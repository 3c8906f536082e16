"""The benchmark's worker must find every ``kklio`` name it wraps or calls.

``perfbench/worker.py`` wraps functions at the module attributes their
callers look up and builds its observer configs itself. A renamed or removed
attribute would only show when the benchmark runs, so it is loaded here, by
path and unchanged, and checked against the package. A short traced run
checks that every span the per-layer metrics need is recorded.
"""

import importlib
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

import kklio
import kklio.harness
import kklio.presets

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, path):
    # run.py's dataclasses look their module up in sys.modules
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def worker():
    return _load("perfbench_worker", PERFBENCH / "worker.py")


@pytest.fixture(scope="module")
def bench():
    return _load("perfbench_run", PERFBENCH / "run.py")


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


@pytest.mark.parametrize("workload", ["noisy-g1", "dist-g07", "series-g1"])
def test_traced_worker_short_run(worker, bench, workload, tmp_path, capsys):
    # a traced run fails (exit 2) when a span the per-layer metrics index is
    # missing, for instance when recovery stops going through the wrapped
    # kklio.observer.invert_T or invert_T stops calling kklio.transform.eval_T
    wl = bench.WORKLOADS[workload]
    inputs = {"run_id": "test", "gamma": wl.gamma, "disturbance": wl.disturbance,
              "transform": wl.transform, "steps": 3, "starts": bench.draw_starts(0, 1),
              "x0_halfwidth": bench.X0_HALFWIDTH, "csv": str(tmp_path / "trace.csv"),
              "trace": True, "setup_only": False, "min_repeats": 1, "deadline": 0.0,
              "spans": None}
    assert worker.main(["worker.py", json.dumps(inputs)]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["restored"] and out["failed"] == 0
    for name in bench.PER_LAYER:
        if name not in ("tracing.overhead_s", "harness.csv_bytes"):
            assert math.isfinite(out["layers"][name]), name
    # the build samples no closed-form constant; only `kklio constants` does
    assert out["layers"]["plant.estimate_lipschitz_s"] == 0.0
    assert out["layers"]["plant.estimate_c_o_s"] == 0.0
