import inspect
import os
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
