"""The kklio benchmark: one workload, one seed, one measuring window.

    python3 perfbench/run.py --workload noisy-g1 --seed 0 --seconds 40 --trace 0

Run it from the root of a checkout; it imports ``kklio`` from that
checkout's ``src/`` and nowhere else. Every workload is a closed loop: one
observer, each update waiting for the previous one. Workers
(``perfbench/worker.py``) run one at a time, each in a fresh interpreter,
because a ``kklio run`` user pays the preset build on every run, with the
BLAS and OpenMP thread pools pinned to one thread.

``--trace 0`` measures the end-to-end metrics. One worker builds the preset
and then makes observer runs ("repeats") until the window is nearly used;
set-up-only workers fill the rest of it, so that ``setup_s`` is a median of
several cold builds. ``--trace 1`` gives the per-layer metrics: it alternates
an untraced and a traced worker, each making the same repeats, and the
difference of their run times is the tracing overhead.

Times are reported as they would read on a reference host. On a shared
two-core machine the speed of one core drifted by up to a factor two over tens
of seconds, more than any bound a regression check can use. So each worker
also times a fixed piece of work that never touches ``kklio``
(``worker.Reference``) every 0.15 s, and every time is scaled by
``REFERENCE_S`` over the reference time measured around it. Over ten seeds
this about halved the spread of the timings; the raw times are kept in the
record (``details.raw`` and the workers' own figures).

``--seed`` makes the inputs, the initial states of the observer runs: seed 0
starts at the paper's ``x0 = (1, 0)``; other seeds turn a set of evenly spaced
starts on the unit circle, so that the box ``x0 +- 0.5`` and the orbit stay
inside ``[-2, 2]^2``. The worker receives only the generated inputs.

Every repeat is checked: no step may break the enclosure rule, have a
non-finite bound or follow the state leaving the box, and repeats from the
same start must write byte-identical traces. The full record, with machine
info, goes to ``perfbench/out/``; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. Exit code
0 when every check passes, 1 when a check fails, 2 when the benchmark cannot
run at all (for instance without ``src/kklio``).
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"

TIME_LIMIT_S = 170.0
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
X0_HALFWIDTH = 0.5
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
# The run worker starts a repeat when it is expected to end within the window;
# set-up-only workers use what is left of it, and at least this many run.
MIN_SETUP_WORKERS = 2
# Times are scaled to a host on which one pass of worker.Reference takes
# REFERENCE_S seconds (about its median on the host the bounds were set on),
# against the reference samples taken within REFERENCE_WINDOW_S.
REFERENCE_S = 0.0037
REFERENCE_WINDOW_S = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    gamma: float
    disturbance: bool
    transform: str
    starts: int  # evenly spaced initial states; repeat i starts at start i
    steps: int  # updates per observer run
    min_repeats: int  # repeats every untraced run makes: trace_sha256 and bound quality
    trace_repeats: int  # repeats of each worker in a traced run


# Measurement noise (siE_noise) is on in every workload; BENCHMARK.json says
# why each one is there. series-g1 makes short runs like the twelve-step one
# in tests/test_observer.py from sixteen starts around the circle: a series
# step costs about eight polynomial steps, and it costs from 0.4 to 2.5 times
# its median depending on the state, so the median needs many distinct ones.
WORKLOADS = {w.name: w for w in (
    Workload("noisy-g1", 1.0, False, "polynomial", 2, 500, 1, 1),
    Workload("dist-g07", 0.7, True, "polynomial", 2, 500, 1, 1),
    Workload("series-g1", 1.0, False, "series", 24, 6, 24, 12),
)}

# name -> unit; the order is the print order.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "enclosed_frac": "fraction",
    "width_x_median": "x-units",
    "slack_p50": "x-units",
    "informative_frac": "fraction",
}

# name -> (unit, end-to-end metric it should move, workloads where it matters
# most / least). Recovery is ~99% of the observer loop, so step (bound
# propagation) should not move anything.
PER_LAYER = {
    "transform.invert_T_self_s": ("s", "step_ms_*, run_s", "noisy-g1, dist-g07 / series-g1"),
    "transform.invert_T_ms_p50": ("ms", "step_ms_*, run_s", "noisy-g1, dist-g07 / series-g1"),
    "transform.invert_T_calls": ("count", "step_ms_*, run_s", "all"),
    "transform.eval_T_calls_per_invert": ("count", "step_ms_*, run_s",
                                          "noisy-g1, dist-g07 / series-g1"),
    "transform.eval_T_us_per_call": ("us", "step_ms_*, run_s", "noisy-g1, dist-g07 / series-g1"),
    "transform.eval_T_points_per_invert": ("count", "step_ms_*, run_s", "series-g1 / noisy-g1"),
    "transform.eval_T_ns_per_point": ("ns", "step_ms_*, run_s", "series-g1 / noisy-g1"),
    "transform.eval_T_invert_s": ("s", "step_ms_*, run_s", "series-g1 / noisy-g1"),
    "transform.invert_T_s": ("s", "step_ms_*, run_s", "all"),
    "transform.eval_T_setup_s": ("s", "setup_s", "all"),
    "transform.eval_T_rows_s": ("s", "run_s", "series-g1 / noisy-g1"),
    "observer.recover_x_bounds_s": ("s", "step_ms_*, run_s", "all"),
    "observer.step_us_p50": ("us", "none: step is ~1% of the loop", "all"),
    "observer.step_s": ("s", "none: step is ~1% of the loop", "all"),
    "observer.init_observer_s": ("s", "run_s, tiny", "all"),
    "presets.build_s": ("s", "setup_s", "all, equally"),
    "plant.estimate_lipschitz_s": ("s", "setup_s", "all, equally"),
    "plant.estimate_c_o_s": ("s", "setup_s", "all, equally"),
    "transform.estimate_forward_lipschitz_s": ("s", "setup_s", "all, equally"),
    "transform.estimate_injectivity_s": ("s", "setup_s", "all, equally"),
    "transform.make_transform_s": ("s", "setup_s", "all, equally"),
    "coords.build_coord_change_s": ("s", "setup_s", "all, equally"),
    "sampling.pair_ratio_extremum_calls": ("count", "setup_s", "all, equally"),
    "sampling.pair_ratio_extremum_s": ("s", "setup_s", "all, equally"),
    "plant.simulate_plant_s": ("s", "run_s, small share", "noisy-g1, dist-g07"),
    "harness.trace_rows_s": ("s", "run_s, small share", "noisy-g1, dist-g07"),
    "harness.write_csv_s": ("s", "run_s, small share", "noisy-g1, dist-g07"),
    "harness.csv_bytes": ("bytes", "run_s, small share", "noisy-g1, dist-g07"),
    "tracing.overhead_s": ("s", "none: traced minus untraced run_s", "all"),
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def draw_starts(seed: int, n: int) -> list:
    """``n`` initial states on the unit circle, evenly spaced and turned by the seed.

    Seed 0 starts at the paper's ``(1, 0)``; any other seed turns the whole
    set by an angle drawn from it. The starts are as far out as the paper's,
    because the orbit radius alone moves the cost of recovery by a third, and
    evenly spaced, so that the cost of a run hardly depends on the seed. The
    oscillator's orbits are near-circles, so the box ``x0 +- 0.5`` and the
    orbit stay inside ``[-2, 2]^2``; the worker checks the simulated orbit.
    """
    phase = 0.0 if seed == 0 else random.Random(seed).uniform(0.0, 2.0 * math.pi)
    starts = [[math.cos(phase + 2.0 * math.pi * i / n), math.sin(phase + 2.0 * math.pi * i / n)]
              for i in range(n)]
    for x0 in starts:
        if any(abs(v) + X0_HALFWIDTH > 2.0 for v in x0):
            raise BenchError(f"seed {seed} drew x0={x0}, whose box leaves [-2, 2]^2")
    return starts


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten of ``n`` samples above it."""
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100.0 * n) >= 10:
            return p
    raise BenchError(f"{n} samples are too few for a tail percentile")


def nearest_rank(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


class Scale:
    """Scales one worker's times to the reference host.

    A time taken from ``t0`` to ``t1`` is multiplied by ``REFERENCE_S`` over
    the median of the worker's reference samples within ``REFERENCE_WINDOW_S``
    of that interval, or of the nearest four when fewer than three are.
    """

    def __init__(self, samples):
        self.samples = sorted(samples)
        self.times = [t for t, _dt in self.samples]

    def __call__(self, seconds: float, t0: float, t1: float) -> float:
        lo = bisect.bisect_left(self.times, t0 - REFERENCE_WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + REFERENCE_WINDOW_S)
        if hi - lo < 3:
            mid = bisect.bisect_left(self.times, 0.5 * (t0 + t1))
            lo, hi = max(0, mid - 2), min(len(self.samples), mid + 2)
        return seconds * REFERENCE_S / statistics.median(dt for _t, dt in self.samples[lo:hi])


def setup_time(record: dict) -> float:
    """A worker's cold build time on the reference host."""
    return record["setup_s"] * REFERENCE_S / statistics.median(record["setup_reference_s"])


def run_times(record: dict) -> tuple[list, list]:
    """A run worker's repeat times and update times, on the reference host."""
    scale = Scale(record["reference"])
    runs, updates = [], []
    for r in record["repeats"]:
        runs.append(scale(r["run_s"], r["t_start"], r["t_end"]))
        updates.extend(scale(u, t, t + u) for u, t in zip(r["update_s"], r["update_t"]))
    return runs, updates


def machine_info() -> dict:
    info = {"python": platform.python_version(), "platform": platform.platform(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": platform.processor() or platform.machine()}
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for dist in ("numpy", "scipy"):
        try:
            info[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            info[dist] = None
    return info


class Runner:
    """Starts workers one at a time and keeps them within the time limit."""

    def __init__(self, t0: float):
        self.t0 = t0
        env = dict(os.environ)
        env.pop("PYTHONPATH", None)
        env.update(PINNED_ENV)
        self.env = env

    def __call__(self, inputs: dict) -> dict:
        started = time.monotonic()
        remaining = TIME_LIMIT_S - (started - self.t0)
        if remaining <= 1.0:
            raise BenchError("time limit reached before the run finished")
        try:
            proc = subprocess.run([sys.executable, str(WORKER), json.dumps(inputs)],
                                  cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker passed the time limit of {TIME_LIMIT_S:g} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
        try:
            record = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError) as exc:
            raise BenchError(f"worker printed no result:\n{proc.stdout[-2000:]}") from exc
        record["wall_s"] = time.monotonic() - started
        return record


def measure(base: dict, wl: Workload, seconds: float, trace: bool, spans: Path,
            runner: Runner) -> list:
    """Run workers until the window is used; returns their records.

    Untraced: one run worker, whose repeats stop when the next one would end
    after the window, then set-up-only workers. Traced: pairs of
    an untraced and a traced worker that each make ``trace_repeats``. A
    worker or pair starts only if the last one would still end in the window,
    once the minimum ran.
    """
    end = runner.t0 + seconds
    if trace:
        records = []
        while not records or time.monotonic() + pair_s <= end:
            pair_start = time.monotonic()
            for traced in (False, True):
                first_traced = traced and not any(r["traced"] for r in records)
                record = runner(dict(base, trace=traced, setup_only=False,
                                     run_id=f"{base['run_id']}-w{len(records)}",
                                     min_repeats=wl.trace_repeats, deadline=0.0,
                                     spans=str(spans) if first_traced else None))
                record["traced"] = traced
                records.append(record)
            pair_s = time.monotonic() - pair_start
        return records
    record = runner(dict(base, trace=False, setup_only=False, run_id=f"{base['run_id']}-w0",
                         min_repeats=wl.min_repeats, deadline=end))
    records = [dict(record, traced=False)]
    while len(records) <= MIN_SETUP_WORKERS or time.monotonic() + records[-1]["wall_s"] <= end:
        records.append(dict(runner(dict(base, trace=False, setup_only=True)), traced=False))
    return records


def checks(records: list, trace: bool) -> dict:
    runs = [r for r in records if "repeats" in r]
    by_start: dict = {}
    for r in runs:
        for rep in r["repeats"]:
            by_start.setdefault(rep["start"], set()).add(rep["trace_sha256"])
    out = {
        "no_failed_steps": all(r["failed"] == 0 for r in runs),
        "initial_row_encloses": all(r["row0_ok"] for r in runs),
        "never_left_box": all(r["left_box_at"] is None for r in runs),
        "orbit_inside_invariant_box": all(r["orbit_inside"] for r in runs),
        "identical_traces": (all(len(v) == 1 for v in by_start.values())
                             and len({r["trace_sha256"] for r in runs}) == 1),
        "kklio_from_checkout": all(r["kklio"] == "src/kklio" for r in records),
    }
    if trace:
        out["attributes_restored"] = all(r["restored"] for r in runs if r["traced"])
    return out


def end_to_end(records: list, wl: Workload) -> tuple[dict, dict]:
    run = records[0]
    runs, updates = run_times(run)
    # fixed by the updates every run makes, so that it does not move with the
    # host's speed; short checks (--steps) fall back to the median
    p_tail = tail_percentile(max(wl.min_repeats * len(run["repeats"][0]["update_s"]), 20))
    tail = nearest_rank(updates, p_tail)
    setups = [setup_time(r) for r in records]
    values = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(runs),
        "step_ms_p50": 1e3 * statistics.median(updates),
        "step_ms_tail": 1e3 * tail,
        "peak_rss_mb": run["peak_rss_mb"],
        "enclosed_frac": 1.0 - run["failed"] / run["attempted"],
        "width_x_median": run["width_x_median"],
        "slack_p50": run["slack_p50"],
        "informative_frac": run["informative_frac"],
    }
    raw_updates = [u for r in run["repeats"] for u in r["update_s"]]
    extra = {
        "step_ms_tail_percentile": p_tail,
        "step_ms_tail_beyond": sum(1 for u in updates if u > tail),
        "step_samples": len(updates),
        "violation_frac": run["failed"] / run["attempted"],
        "repeats": len(runs),
        "setup_samples": len(setups),
        "raw": {"setup_s": statistics.median(r["setup_s"] for r in records),
                "run_s": statistics.median(r["run_s"] for r in run["repeats"]),
                "step_ms_p50": 1e3 * statistics.median(raw_updates),
                "step_ms_tail": 1e3 * nearest_rank(raw_updates, p_tail)},
    }
    return values, extra


def per_layer(records: list) -> tuple[dict, dict]:
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]

    def run_s(group):
        return statistics.median(sum(run_times(r)[0]) for r in group)

    values = {}
    for name in PER_LAYER:
        if name == "tracing.overhead_s":
            values[name] = run_s(traced) - run_s(plain)
        else:
            values[name] = statistics.median(r["layers"][name] for r in traced)
    extra = {"untraced_run_s": run_s(plain), "traced_run_s": run_s(traced),
             "spans": statistics.median(r["layers"]["tracing.spans"] for r in traced)}
    return values, extra


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steps", type=int, default=None,
                    help="override the workload's steps per observer run (for quick checks)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    t0 = time.monotonic()
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    trace = bool(args.trace)
    try:
        if not (ROOT / "src" / "kklio" / "__init__.py").is_file():
            raise BenchError(f"no kklio sources under {ROOT / 'src'}")
        OUT.mkdir(exist_ok=True)
        steps = wl.steps if args.steps is None else args.steps
        if steps < 1:
            raise BenchError("steps must be >= 1")
        base = {
            "run_id": f"{wl.name}-seed{args.seed}-trace{args.trace}",
            "gamma": wl.gamma, "disturbance": wl.disturbance, "transform": wl.transform,
            "steps": steps, "starts": draw_starts(args.seed, wl.starts),
            "x0_halfwidth": X0_HALFWIDTH,
            "csv": str(OUT / f"trace-{wl.name}.csv"),
        }
        spans = OUT / f"spans-{wl.name}.csv"
        records = measure(base, wl, args.seconds, trace, spans, Runner(t0))
        values, extra = per_layer(records) if trace else end_to_end(records, wl)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    gate = checks(records, trace)
    correct = all(gate.values())
    runs = [r for r in records if "repeats" in r]
    units = {k: v[0] for k, v in PER_LAYER.items()} if trace else END_TO_END
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    record = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "elapsed_s": time.monotonic() - t0, "inputs": base,
        "machine": machine_info(), "env": PINNED_ENV, "reference_s": REFERENCE_S,
        "checks": gate, "trace_sha256": runs[0]["trace_sha256"],
        "csv_bytes": runs[0]["csv_bytes"], "details": extra, "result": result,
        "layer_moves": {k: {"moves": v[1], "where": v[2]} for k, v in PER_LAYER.items()}
        if trace else None,
        "workers": records,
    }
    path = OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n", encoding="ascii")

    print(f"workload={wl.name} seed={args.seed} starts={base['starts']} trace={args.trace} "
          f"workers={len(records)} trace_sha256={record['trace_sha256']}")
    for name, m in metrics.items():
        print(f"  {name:<42} {m['value']:>16.6g} {m['unit']}")
    for name, ok in gate.items():
        if not ok:
            print(f"  CHECK FAILED: {name}")
    print(f"record written to {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
