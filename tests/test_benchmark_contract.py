"""The benchmark's worker must find every ``kklio`` name it wraps or calls.

``perfbench/worker.py`` wraps functions at the module attributes their
callers look up and builds its observer configs itself. A renamed or removed
attribute would only show when the benchmark runs, so it is loaded here, by
path and unchanged, and checked against the package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import kklio
import kklio.harness
import kklio.presets

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


@pytest.fixture(scope="module")
def worker():
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_attributes_resolve(worker):
    assert worker.TRACED
    for entry in worker.TRACED:
        module = importlib.import_module(entry[0])
        assert callable(getattr(module, entry[1], None)), f"{entry[0]}.{entry[1]}"


def test_gate_and_row_names_resolve():
    assert kklio.harness.CHECK_SLACK > 0.0
    assert callable(kklio.harness.TraceRow)
    for name in ("siE_noise", "siE_disturbance", "OSCILLATOR"):
        assert hasattr(kklio.presets, name), name


@pytest.mark.parametrize("transform", ["polynomial", "series"])
def test_worker_build(worker, transform):
    inputs = {"starts": [[1.0, 0.0]], "x0_halfwidth": 0.5, "gamma": 1.0,
              "transform": transform}
    bundle, cfg = worker.build(kklio, inputs)
    assert isinstance(bundle, kklio.presets.Bundle)
    assert isinstance(cfg, kklio.ObserverConfig)
    assert cfg.transform.mode == transform
    assert cfg.consts is bundle.consts
