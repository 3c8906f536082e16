import inspect
import os
import re
import subprocess
import sys

import kklio


def test_all_names_resolve_once():
    assert len(kklio.__all__) == len(set(kklio.__all__))
    namespace = {}
    exec("from kklio import *", namespace)
    missing = [name for name in kklio.__all__ if name not in namespace]
    assert not missing, missing


def test_transform_init_parameters():
    # no coefficient table and no mode: every polynomial transform is solved
    # and checked by the constructor
    assert list(inspect.signature(kklio.KklTransform).parameters) == [
        "target", "plant", "basis", "series_tol"]


def test_package_needs_numpy_alone():
    src = os.path.dirname(os.path.dirname(os.path.abspath(kklio.__file__)))
    code = ("import sys, kklio, kklio.cli, kklio.harness, kklio.presets; "
            "print(' '.join(m for m in ('scipy', 'hypothesis', 'pytest') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == ""


def test_readme_example_runs(tmp_path):
    # the documented API and its enclosure assert, run as a reader would:
    # the example writes trace.csv into its working directory
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.S | re.M)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    subprocess.run([sys.executable, "-c", blocks[0]], env=env, cwd=tmp_path, check=True)
    assert (tmp_path / "trace.csv").is_file()
