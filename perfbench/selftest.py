"""Checks of the benchmark itself, on short runs of every workload.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes about a minute on two cores.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

# updates per observer run in the short runs
STEPS = {"noisy-g1": 12, "dist-g07": 12, "series-g1": 2}
COUNTS = ("transform.invert_T_calls", "transform.eval_T_calls_per_invert",
          "transform.eval_T_points_per_invert", "sampling.pair_ratio_extremum_calls",
          "harness.csv_bytes")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def short_run(workload: str, trace: int) -> tuple[dict, dict]:
    """The printed result and the written record of a short run at seed 0."""
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "0",
                 "--trace", str(trace), "--steps", str(STEPS[workload]))
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n"
                             f"{proc.stdout}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((run.OUT / f"result-{workload}-seed0-trace{trace}.json").read_text())
    return result, record


def start_hashes(record: dict, traced: bool = False) -> list:
    """The trace hash of each repeat of the record's first (traced) run worker."""
    worker = next(w for w in record["workers"] if "repeats" in w and w["traced"] == traced)
    return [r["trace_sha256"] for r in worker["repeats"]]


class Declaration(unittest.TestCase):
    """BENCHMARK.json and run.py name the same workloads and metrics."""

    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_workloads(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(run.WORKLOADS))

    def test_metric_units(self):
        e2e = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual(e2e, run.END_TO_END)
        self.assertEqual(layers, {k: v[0] for k, v in run.PER_LAYER.items()})

    def test_scale_follows_reference(self):
        # the host runs at half speed from t = 10 on
        samples = [(0.1 * i, run.REFERENCE_S * (2.0 if i >= 100 else 1.0)) for i in range(200)]
        scale = run.Scale(samples)
        self.assertAlmostEqual(scale(1.0, 5.0, 6.0), 1.0)
        self.assertAlmostEqual(scale(2.0, 14.0, 15.0), 1.0)

    def test_seed_zero_is_paper_start(self):
        self.assertEqual(run.draw_starts(0, 3)[0], [1.0, 0.0])
        for seed in range(1, 200):
            starts = run.draw_starts(seed, 3)
            self.assertEqual(starts, run.draw_starts(seed, 3))
            self.assertEqual(len({tuple(x0) for x0 in starts}), 3)


class Workloads(unittest.TestCase):

    def test_every_workload(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                plain, plain_rec = short_run(workload, 0)
                traced, traced_rec = short_run(workload, 1)
                again, _ = short_run(workload, 1)
                self.assertTrue(plain["correct"] and traced["correct"] and again["correct"])
                self.assertEqual(plain["failed"], 0)
                self.assertEqual(set(plain["metrics"]), set(run.END_TO_END))
                self.assertEqual(set(traced["metrics"]), set(run.PER_LAYER))
                for m in (*plain["metrics"].values(), *traced["metrics"].values()):
                    self.assertIsInstance(m["value"], float | int)
                for name in COUNTS:
                    self.assertEqual(traced["metrics"][name]["value"],
                                     again["metrics"][name]["value"], name)
                self.assertEqual(start_hashes(traced_rec, traced=True),
                                 start_hashes(plain_rec)[:run.WORKLOADS[workload].trace_repeats])
                self.assertTrue(traced_rec["checks"]["attributes_restored"])

    def test_noisy_trace_matches_kklio_run(self):
        _, record = short_run("noisy-g1", 0)
        ref = run.OUT / "selftest-kklio-run.csv"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        subprocess.run([sys.executable, "-m", "kklio.cli", "run", "--gamma", "1.0",
                        "--steps", str(STEPS["noisy-g1"]), "--noise", "on", "--out", str(ref)],
                       cwd=ROOT, env=env, check=True, capture_output=True, timeout=120)
        self.assertEqual(hashlib.sha256(ref.read_bytes()).hexdigest(), record["trace_sha256"])


class Isolation(unittest.TestCase):

    def test_fails_without_sources(self):
        bare = run.OUT / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for name in ("run.py", "worker.py", "selftest.py"):
            shutil.copy(HERE / name, bare / "perfbench")
        try:
            proc = bench("--workload", "noisy-g1", "--seed", "0", "--seconds", "1",
                         "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
