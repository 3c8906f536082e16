"""One repeat of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py '<inputs as JSON>'

The inputs are generated by ``run.py``; the worker never sees the seed. It
imports ``kklio`` from ``src/`` of the checkout it lives in, times the cold
preset build (set-up) and then the run, the way ``kklio run`` does it:
simulation, every observer update, one trace row per step and the CSV
write. The last line of its standard output is one JSON object.

With ``"trace": true`` the public functions of each layer are wrapped at the
module attribute their caller looks up (``kklio.presets.estimate_c_o``,
``kklio.observer.invert_T``, ``kklio.transform.eval_T``, ...). The wrappers
keep spans in memory (name, start, end, parent, run id, points) and the
worker writes them out once the run is over; every wrapped attribute is
restored before the worker returns.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import resource
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# The oscillator's invariant box: the orbit and the initial box must stay in it.
INVARIANT_HALF_WIDTH = 2.0


def import_kklio():
    """Import ``kklio`` from this checkout's ``src/``, never from elsewhere."""
    pkg = SRC / "kklio"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"no kklio sources at {pkg}")
    sys.path.insert(0, str(SRC))
    kklio = importlib.import_module("kklio")
    for module in ("kklio.presets", "kklio.harness"):
        importlib.import_module(module)
    if Path(kklio.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"kklio imported from {kklio.__file__}, not from {pkg}")
    return kklio


# (module, attribute, span name, records points). Each function is wrapped
# where its caller looks it up, so the same function may appear twice.
TRACED = (
    ("kklio.presets", "build_preset", "presets.build"),
    ("kklio.presets", "estimate_lipschitz", "plant.estimate_lipschitz"),
    ("kklio.presets", "estimate_c_o", "plant.estimate_c_o"),
    ("kklio.presets", "estimate_forward_lipschitz", "transform.estimate_forward_lipschitz"),
    ("kklio.presets", "estimate_injectivity", "transform.estimate_injectivity"),
    ("kklio.presets", "make_polynomial_transform", "transform.make_transform"),
    ("kklio.transform", "make_series_transform", "transform.make_transform"),
    ("kklio.presets", "build_coord_change", "coords.build_coord_change"),
    ("kklio.plant", "pair_ratio_extremum", "sampling.pair_ratio_extremum"),
    ("kklio.transform", "pair_ratio_extremum", "sampling.pair_ratio_extremum"),
    ("kklio", "simulate_plant", "plant.simulate_plant"),
    ("kklio", "init_observer", "observer.init_observer"),
    ("kklio", "step", "observer.step"),
    ("kklio", "recover_x_bounds", "observer.recover_x_bounds"),
    ("kklio.observer", "invert_T", "transform.invert_T"),
    ("kklio.transform", "eval_T", "transform.eval_T", True),
    ("kklio.observer", "eval_T", "transform.eval_T", True),
    ("kklio.harness", "write_csv", "harness.write_csv"),
)

# An eval_T span is charged to the nearest enclosing span of these names.
EVAL_T_PARENTS = {
    "transform.invert_T": "invert",
    "presets.build": "setup",
    "transform.make_transform": "setup",
    "harness.trace_row": "rows",
}


class Tracer:
    """In-memory span recorder that wraps module attributes."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # each span: [name, start, end, parent index or -1, points]
        self.spans: list = []
        self._open: list = []
        self._saved: list = []

    def install(self) -> None:
        for entry in TRACED:
            module = importlib.import_module(entry[0])
            original = getattr(module, entry[1])
            self._saved.append((module, entry[1], original))
            setattr(module, entry[1], self._wrap(original, entry[2], len(entry) > 3))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name: str, with_points: bool):
        spans, stack, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            points = _points(args[1]) if with_points else 0
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, points]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, 0]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._open.pop()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("run_id,span,parent,name,start_s,end_s,points\n")
            for i, (name, start, end, parent, points) in enumerate(self.spans):
                fh.write(f"{self.run_id},{i},{parent},{name},{start:.9f},{end:.9f},{points}\n")


def _points(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        import numpy as np
        shape = np.shape(x)
    return math.prod(shape[:-1]) if len(shape) > 1 else 1


class Reference:
    """Times a fixed piece of work that never touches ``kklio``; it tracks host speed.

    The work mixes what ``kklio`` spends its time on: numpy calls on a few
    thousand points, batched small solves and plain interpreter work.
    ``samples`` holds (start, seconds) pairs.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(20240126)
        self.points = rng.uniform(-2.0, 2.0, (4096, 2))
        self.jac = rng.standard_normal((256, 8, 2))
        self.eye = np.eye(2)
        self.loop()  # warm-up
        self.samples: list = []

    def loop(self) -> float:
        import numpy as np

        acc = 0.0
        x, y = self.points[:, 0], self.points[:, 1]
        for e in range(1, 7):
            acc += float(np.einsum("p,p->", x ** e * y ** (6 - e), x))
        jtj = np.einsum("sri,srj->sij", self.jac, self.jac) + self.eye
        grad = np.einsum("sri,sr->si", self.jac, self.jac[..., 0])
        acc += float(np.linalg.solve(jtj, grad[..., None]).sum())
        return acc + sum(i * 0.5 for i in range(3000))

    def sample(self, n: int = 1) -> float:
        """Run the work ``n`` times; returns the seconds spent, to be left out of timings."""
        clock, spent = time.perf_counter, 0.0
        for _ in range(n):
            t0 = clock()
            self.loop()
            dt = clock() - t0
            self.samples.append((t0, dt))
            spent += dt
        return spent


def build(kklio, inputs: dict):
    """The cold set-up a ``kklio run`` user pays: the preset bundle and its config."""
    from kklio.intervals import Box
    import numpy as np

    x0 = np.asarray(inputs["starts"][0], dtype=float)
    half = inputs["x0_halfwidth"]
    bundle = kklio.presets.build_preset(kklio.presets.OSCILLATOR, gamma=inputs["gamma"],
                                        x0_box=Box(x0 - half, x0 + half))
    cfg = bundle.observer_cfg
    if inputs["transform"] == "series":
        # as tests/test_observer.py::test_series_mode_observer_end_to_end builds it
        t_series = kklio.transform.make_series_transform(bundle.plant, bundle.target,
                                                         series_tol=1e-9)
        cfg = kklio.ObserverConfig(transform=t_series, coord=bundle.coord,
                                   consts=bundle.consts, gamma=bundle.target.gamma,
                                   inverse_cfg=kklio.InverseConfig(box=bundle.plant.box_x_enlarged),
                                   recovery_variant="min_max")
    return bundle, cfg


# Seconds of timed work between two reference samples during a run, and the
# samples taken on each side of the build.
REFERENCE_EVERY_S = 0.15
SETUP_REFERENCE_SAMPLES = 4


def run(kklio, inputs: dict, bundle, cfg, span, ref: Reference) -> dict:
    """Observer runs as ``kklio run`` does them, one start each, then the checks.

    Repeat ``i`` starts at ``starts[i]``: it simulates the plant,
    updates the observer at every step, builds one trace row per step and
    writes the CSV. The first ``min_repeats`` repeats always run; later ones,
    one per start at most, only while they are expected to end by
    ``deadline`` (``time.monotonic``). The first ``min_repeats`` give the
    trace hash and the bound-quality figures. Reference samples taken during
    a repeat are left out of its times.
    """
    import numpy as np
    from kklio.harness import TraceRow
    from kklio.intervals import inf_norm

    presets = kklio.presets
    steps = inputs["steps"]
    half = inputs["x0_halfwidth"]
    starts = inputs["starts"]
    w, w_lo, w_hi = presets.siE_noise()
    d = d_lo = d_hi = None
    if inputs["disturbance"]:
        d, d_lo, d_hi = presets.siE_disturbance()
    clock = time.perf_counter

    def row(state, trace):
        """One CSV row, built as ``kklio.harness`` builds it."""
        with span("harness.trace_row"):
            x_true = trace.xs[state.k]
            return TraceRow(
                k=state.k, x=x_true, x_lo=state.x_lo, x_hi=state.x_hi,
                z=kklio.transform.eval_T(cfg.transform, x_true),
                z_lo=state.z_lo, z_hi=state.z_hi, y=trace.ys[state.k], w=trace.ws[state.k],
                resid_hi=state.resid_hi, resid_lo=state.resid_lo,
                width_x=inf_norm(state.x_hi - state.x_lo),
                width_z=inf_norm(state.z_hi - state.z_lo),
            )

    repeats, gate = [], Gate(kklio, cfg)
    digest, quality = hashlib.sha256(), inputs["min_repeats"]
    while True:
        i = len(repeats)
        if i >= quality:
            longest = max(r["wall_s"] for r in repeats)
            if i >= len(starts) or time.monotonic() + longest > inputs["deadline"]:
                break
        x0 = np.asarray(starts[i], dtype=float)
        ref.sample()
        t_start = clock()
        skip = 0.0
        trace = kklio.simulate_plant(bundle.plant, x0, steps, w=w, d=d)
        state = kklio.init_observer(cfg, x0 - half, x0 + half)
        rows = [row(state, trace)]
        update_s, update_t, t_ref = [], [], clock()
        for k in range(steps):
            kw = dict(d_lo=d_lo(k), d_hi=d_hi(k)) if d is not None else {}
            t0 = clock()
            state = kklio.step(state, cfg, trace.ys[k], w_lo(k), w_hi(k), **kw)
            state = kklio.recover_x_bounds(state, cfg)
            t1 = clock()
            update_s.append(t1 - t0)
            update_t.append(t0)
            rows.append(row(state, trace))
            if t1 - t_ref > REFERENCE_EVERY_S:
                skip += ref.sample()
                t_ref = clock()
        kklio.harness.write_csv(inputs["csv"], rows)
        t_end = clock()
        ref.sample()
        data = Path(inputs["csv"]).read_bytes()
        if i < quality:
            digest.update(data)
        repeats.append({"start": i, "run_s": t_end - t_start - skip,
                        "t_start": t_start, "t_end": t_end, "wall_s": clock() - t_start,
                        "update_s": update_s, "update_t": update_t,
                        "trace_sha256": hashlib.sha256(data).hexdigest(),
                        "csv_bytes": len(data)})
        gate.add(trace, rows, i < quality)

    out = {"repeats": repeats, "trace_sha256": digest.hexdigest(),
           "csv_bytes": sum(r["csv_bytes"] for r in repeats[:quality])}
    out.update(gate.summary())
    return out


class Gate:
    """Correctness gate over every trace row, and bound quality over some runs.

    A row fails when it breaks the enclosure rule of ``harness._summarize``
    (state bounds widened by the check slack plus the published inversion
    slack ``margin * max(resid_hi, resid_lo)``, transform bounds by the check
    slack alone), has a non-finite bound, or comes at or after the step where
    the state left the enlarged box. Row 0 is the initial box, not an update.
    Runs are checked as they end, so that no more than the quality runs stay
    in memory.
    """

    def __init__(self, kklio, cfg):
        self.slack0 = kklio.harness.CHECK_SLACK
        self.margin = cfg.margin_c_over_gamma
        self.attempted, self.failed, self.row0_ok = 0, 0, True
        self.left_at, self.inside = [], True
        self.slacks, self.widths = [], []

    def add(self, trace, rows, quality: bool) -> None:
        import numpy as np

        slack0 = self.slack0
        if trace.left_box_at is not None:
            self.left_at.append(trace.left_box_at)
        self.inside &= bool(np.all(np.abs(trace.xs) <= INVARIANT_HALF_WIDTH))
        for r in rows:
            slack = self.margin * max(r.resid_hi, r.resid_lo)
            x_slack = slack0 + slack
            bounds = np.concatenate([r.x_lo, r.x_hi, r.z_lo, r.z_hi])
            bad = (not np.all(np.isfinite(bounds))
                   or np.any(r.x < r.x_lo - x_slack) or np.any(r.x > r.x_hi + x_slack)
                   or np.any(r.z < r.z_lo - slack0) or np.any(r.z > r.z_hi + slack0)
                   or (trace.left_box_at is not None and r.k >= trace.left_box_at))
            if r.k == 0:
                self.row0_ok &= not bad
            else:
                self.attempted += 1
                self.failed += bool(bad)
            if quality:
                self.slacks.append(slack)
                self.widths.append(r.width_x)

    def summary(self) -> dict:
        widths = self.widths
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "row0_ok": self.row0_ok,
            "left_box_at": self.left_at or None,
            "orbit_inside": self.inside,
            "width_x_median": statistics.median(widths),
            "slack_p50": statistics.median(self.slacks),
            "slack_max": max(self.slacks),
            "informative_frac": sum(1 for v in widths if v < 2.0 * INVARIANT_HALF_WIDTH)
            / len(widths),
        }


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer totals, self times, counts and ratios from the spans."""
    spans = tracer.spans
    dur = [end - start for _name, start, end, _parent, _pts in spans]
    child_s = [0.0] * len(spans)
    category = [""] * len(spans)
    by_name: dict = {}
    for i, (name, _start, _end, parent, _pts) in enumerate(spans):
        if parent >= 0:
            child_s[parent] += dur[i]
        category[i] = EVAL_T_PARENTS.get(name) or (category[parent] if parent >= 0 else "other")
        by_name.setdefault(name, []).append(i)

    def total(name):
        return sum(dur[i] for i in by_name.get(name, ()))

    inv = by_name["transform.invert_T"]
    ev_by: dict = {}
    for i in by_name["transform.eval_T"]:
        ev_by.setdefault(category[i], []).append(i)
    ev_inv = ev_by["invert"]
    inv_s = total("transform.invert_T")
    ev_inv_s = sum(dur[i] for i in ev_inv)
    ev_inv_pts = sum(spans[i][4] for i in ev_inv)
    return {
        "transform.invert_T_calls": len(inv),
        "transform.invert_T_s": inv_s,
        "transform.invert_T_self_s": sum(dur[i] - child_s[i] for i in inv),
        "transform.invert_T_ms_p50": 1e3 * statistics.median(dur[i] for i in inv),
        "transform.eval_T_calls_per_invert": len(ev_inv) / len(inv),
        "transform.eval_T_points_per_invert": ev_inv_pts / len(inv),
        "transform.eval_T_us_per_call": 1e6 * ev_inv_s / len(ev_inv),
        "transform.eval_T_ns_per_point": 1e9 * ev_inv_s / ev_inv_pts,
        "transform.eval_T_invert_s": ev_inv_s,
        "transform.eval_T_setup_s": sum(dur[i] for i in ev_by.get("setup", ())),
        "transform.eval_T_rows_s": sum(dur[i] for i in ev_by.get("rows", ())),
        "observer.recover_x_bounds_s": total("observer.recover_x_bounds"),
        "observer.step_s": total("observer.step"),
        "observer.step_us_p50": 1e6 * statistics.median(dur[i] for i in by_name["observer.step"]),
        "observer.init_observer_s": total("observer.init_observer"),
        "presets.build_s": total("presets.build"),
        "plant.estimate_lipschitz_s": total("plant.estimate_lipschitz"),
        "plant.estimate_c_o_s": total("plant.estimate_c_o"),
        "transform.estimate_forward_lipschitz_s": total("transform.estimate_forward_lipschitz"),
        "transform.estimate_injectivity_s": total("transform.estimate_injectivity"),
        "transform.make_transform_s": total("transform.make_transform"),
        "coords.build_coord_change_s": total("coords.build_coord_change"),
        "sampling.pair_ratio_extremum_calls": len(by_name["sampling.pair_ratio_extremum"]),
        "sampling.pair_ratio_extremum_s": total("sampling.pair_ratio_extremum"),
        "plant.simulate_plant_s": total("plant.simulate_plant"),
        "harness.trace_rows_s": total("harness.trace_row"),
        "harness.write_csv_s": total("harness.write_csv"),
        "tracing.spans": len(spans),
    }


def main(argv) -> int:
    inputs = json.loads(argv[1])
    kklio = import_kklio()
    tracer = Tracer(inputs["run_id"]) if inputs["trace"] else None
    out = {"kklio": str(Path(kklio.__file__).resolve().parent.relative_to(ROOT))}
    ref = Reference()
    try:
        if tracer is not None:
            tracer.install()
        ref.sample(SETUP_REFERENCE_SAMPLES)
        t0 = time.perf_counter()
        bundle, cfg = build(kklio, inputs)
        out["setup_s"] = time.perf_counter() - t0
        ref.sample(SETUP_REFERENCE_SAMPLES)
        out["setup_reference_s"] = [dt for _t, dt in ref.samples]
        ref.samples.clear()
        if not inputs["setup_only"]:
            span = tracer.span if tracer is not None else (lambda name: nullcontext())
            out.update(run(kklio, inputs, bundle, cfg, span, ref))
    finally:
        if tracer is not None:
            tracer.restore()
    out["reference"] = ref.samples
    if tracer is not None:
        out["restored"] = all(
            not hasattr(getattr(importlib.import_module(m), a), "__wrapped__")
            for m, a, *_ in TRACED)
        out["layers"] = layer_metrics(tracer)
        out["layers"]["harness.csv_bytes"] = out["csv_bytes"]
        if inputs.get("spans"):
            tracer.write(Path(inputs["spans"]))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
