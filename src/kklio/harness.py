"""Experiment runner: builds a preset stack, simulates, and writes traces.

A run produces one trace row per time step (true state, state/transform
bounds, output, noise, residual slacks, bound widths) plus a summary with
the enclosure-violation count, the mean state-bound width over a window, a
geometric width-decay fit, the first step at which the true state left the
enlarged box (``left_box_at``, ``None`` if it never did), the step at which
recovery found an empty state set (``empty_set_at``), the number of rows
where the paper's box, kept as a diagnostic, is narrower than the returned
one (``paper_box_tighter``) and its median width (``paper_width_x_median``;
``None`` without set inversion), the median and largest number of boxes set
inversion enclosed per step (``boxes_median``, ``boxes_max``; ``None``
without set inversion), which the rows carry but the CSV does not. CSV
output uses 17-significant-digit decimal formatting, so identical
configurations produce byte-identical files.

Every check allows the checking slack of 1e-9 (``CHECK_SLACK``). State-space
checks also allow the published residual slack
``margin_coefficient * max(resid_hi, resid_lo)``. Set-inversion recovery
(polynomial mode) reports residuals of 0.0, so its bounds are checked with
``CHECK_SLACK`` alone; the paper's recovery (series mode) reports its
least-squares residuals. A row with a non-finite bound counts as a
violation, and so does an empty state set, which ends the run: its trace
stops at the step before.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field, fields, replace
from typing import Optional, Sequence

import numpy as np

from . import presets
from .intervals import Box, inf_norm
from .observer import EmptyRecoveryError, init_observer, recover_x_bounds, step
from .plant import simulate_plant
from .svg import write_svg
from .transform import eval_T

CHECK_SLACK = 1e-9


def _is_int(v) -> bool:
    # numpy integers count; bool is an int subclass, but never a count or a seed
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _is_path(v) -> bool:
    return v is None or isinstance(v, (str, os.PathLike))


def _option(default, check):
    return field(default=default, metadata={"check": check})


@dataclass(frozen=True)
class RunConfig:
    """The options of one run, for the CLI and library callers alike. Each field
    carries the test its value must pass; lists are stored as tuples. A value
    of the wrong type or out of range raises ``ValueError`` naming the field.
    """

    preset: str = _option(presets.OSCILLATOR, lambda v: isinstance(v, str))
    tau: float = _option(presets.DEFAULT_TAU, _is_real)
    gamma: float = _option(1.0, _is_real)
    steps: int = _option(500, _is_int)
    seed: int = _option(presets.ESTIMATION_SEED, _is_int)
    noise: bool = _option(True, lambda v: isinstance(v, bool))
    disturbance: bool = _option(False, lambda v: isinstance(v, bool))
    x0: tuple[float, ...] = _option(presets.DEFAULT_X0,
                                    lambda v: isinstance(v, tuple) and all(map(_is_real, v)))
    x0_halfwidth: float = _option(presets.DEFAULT_X0_HALFWIDTH, _is_real)
    window: tuple[int, int] = _option((100, 500), lambda v: isinstance(v, tuple)
                                      and len(v) == 2 and all(map(_is_int, v)))
    out: Optional[str | os.PathLike] = _option(None, _is_path)
    svg: Optional[str | os.PathLike] = _option(None, _is_path)

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, list):
                v = tuple(v)
                object.__setattr__(self, f.name, v)
            if not f.metadata["check"](v):
                raise ValueError(f"run option {f.name!r} has the wrong type: {v!r}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        if not 0.0 <= self.x0_halfwidth < np.inf:
            raise ValueError("run option 'x0_halfwidth' must be finite and >= 0")
        if self.window[0] > self.window[1]:
            raise ValueError(f"run option 'window' must be ordered, got {self.window!r}")
        n_x = len(presets.DEFAULT_X0)  # the oscillator's state dimension
        if self.preset == presets.OSCILLATOR and len(self.x0) != n_x:
            raise ValueError(f"run option 'x0' needs {n_x} entries, the state dimension of "
                             f"preset {self.preset!r}; got {len(self.x0)}")


@dataclass(frozen=True, eq=False)
class TraceRow:
    k: int
    x: np.ndarray
    x_lo: np.ndarray
    x_hi: np.ndarray
    z: np.ndarray
    z_lo: np.ndarray
    z_hi: np.ndarray
    y: np.ndarray
    w: np.ndarray
    resid_hi: float
    resid_lo: float
    width_x: float
    width_z: float
    paper_width_x: Optional[float] = None  # the paper's box, kept as a diagnostic
    boxes: Optional[int] = None  # boxes set inversion enclosed; not written to the CSV


@dataclass(frozen=True, eq=False)
class RunResult:
    config: RunConfig
    rows: list
    summary: dict


def run_experiment(cfg: RunConfig) -> RunResult:
    """Build the stack, run the observer along a simulated trajectory."""
    x0 = np.asarray(cfg.x0, dtype=float)
    x0_box_lo = x0 - cfg.x0_halfwidth
    x0_box_hi = x0 + cfg.x0_halfwidth
    bundle = presets.build_preset(
        cfg.preset, gamma=cfg.gamma, tau=cfg.tau, seed=cfg.seed,
        x0_box=Box(x0_box_lo, x0_box_hi),
    )
    plant = bundle.plant
    w, w_lo, w_hi, d, d_lo, d_hi = _noise_profile(cfg, plant)
    trace = simulate_plant(plant, x0, cfg.steps, w=w, d=d)
    obs_cfg = bundle.observer_cfg
    state = init_observer(obs_cfg, x0_box_lo, x0_box_hi)

    rows = [_row_from_state(0, trace, state, bundle)]
    empty_at = None
    for k in range(cfg.steps):
        kw = dict(d_lo=d_lo(k), d_hi=d_hi(k)) if cfg.disturbance else {}
        state = step(state, obs_cfg, trace.ys[k], w_lo(k), w_hi(k), **kw)
        try:
            state = recover_x_bounds(state, obs_cfg)
        except EmptyRecoveryError as exc:
            empty_at = exc.k
            break
        rows.append(_row_from_state(state.k, trace, state, bundle))

    summary = _summarize(cfg, rows, bundle, trace.left_box_at, empty_at)
    if cfg.out:
        write_csv(cfg.out, rows)
    if cfg.svg:
        write_svg(cfg.svg, rows, plant.n_x)
    return RunResult(config=cfg, rows=rows, summary=summary)


def _noise_profile(cfg: RunConfig, plant):
    """Noise and disturbance realizations with their per-step bounds.

    Returns ``(w, w_lo, w_hi, d, d_lo, d_hi)`` per the toggles. Noise that is
    off has zero bounds; a disturbance that is off is all ``None``.
    """
    if cfg.noise:
        w, w_lo, w_hi = presets.siE_noise()
    else:
        zero = np.zeros(plant.n_y)
        w, w_lo, w_hi = None, (lambda k: zero), (lambda k: zero)
    d = d_lo = d_hi = None
    if cfg.disturbance:
        d, d_lo, d_hi = presets.siE_disturbance()
    return w, w_lo, w_hi, d, d_lo, d_hi


def _row_from_state(k, trace, state, bundle) -> TraceRow:
    x_true = trace.xs[k]
    z_true = eval_T(bundle.transform, x_true)
    return TraceRow(
        k=k, x=x_true, x_lo=state.x_lo, x_hi=state.x_hi,
        z=z_true, z_lo=state.z_lo, z_hi=state.z_hi,
        y=trace.ys[k], w=trace.ws[k],
        resid_hi=state.resid_hi, resid_lo=state.resid_lo,
        width_x=inf_norm(state.x_hi - state.x_lo),
        width_z=inf_norm(state.z_hi - state.z_lo),
        paper_width_x=(None if state.paper_lo is None
                       else inf_norm(state.paper_hi - state.paper_lo)),
        boxes=state.boxes,
    )


def _summarize(cfg: RunConfig, rows, bundle, left_box_at: Optional[int],
               empty_at: Optional[int] = None) -> dict:
    margin_coeff = bundle.observer_cfg.margin_c_over_gamma
    violations = []
    for r in rows:
        x_slack = CHECK_SLACK + margin_coeff * max(r.resid_hi, r.resid_lo)
        # a NaN bound compares false both ways, so finiteness is checked apart
        finite = all(np.isfinite(b).all() for b in (r.x_lo, r.x_hi, r.z_lo, r.z_hi))
        if (not finite or np.any(r.x < r.x_lo - x_slack) or np.any(r.x > r.x_hi + x_slack)
                or np.any(r.z < r.z_lo - CHECK_SLACK) or np.any(r.z > r.z_hi + CHECK_SLACK)):
            violations.append(r.k)
    if empty_at is not None:
        violations.append(empty_at)

    k_lo, k_hi = cfg.window
    in_window = [r.width_x for r in rows if k_lo <= r.k <= k_hi]
    if not in_window:
        # window misses the rows (an empty set may end them early): use their second half
        k_lo, k_hi = rows[-1].k // 2, rows[-1].k
        in_window = [r.width_x for r in rows if k_lo <= r.k <= k_hi]
    mean_width = float(np.mean(in_window))

    # geometric fit over the contiguous stretch of meaningful widths (k >= 1;
    # below 1e-12 the affine recursion's rounding floor dominates)
    widths_z = np.array([r.width_z for r in rows])
    usable = np.nonzero((widths_z > 1e-12) & (np.arange(len(rows)) >= 1))[0]
    if usable.size >= 3 and np.all(np.diff(usable) == 1):
        ratios = widths_z[usable[1:]] / widths_z[usable[:-1]]
        decay = float(np.exp(np.mean(np.log(ratios))))
    else:
        decay = float("nan")
    boxes = [r.boxes for r in rows if r.boxes is not None]
    paper = [r.paper_width_x for r in rows if r.paper_width_x is not None]

    return {
        "preset": cfg.preset,
        "gamma": cfg.gamma,
        "steps": cfg.steps,
        "noise": cfg.noise,
        "disturbance": cfg.disturbance,
        "violations": len(violations),
        "first_violation_k": violations[0] if violations else None,
        "mean_width_x_window": mean_width,
        "window": (k_lo, k_hi),
        "decay_rate_z": decay,
        "final_width_x": rows[-1].width_x,
        "final_width_z": rows[-1].width_z,
        "margin_coefficient": margin_coeff,
        "max_resid": max(max(r.resid_hi, r.resid_lo) for r in rows),
        "left_box_at": left_box_at,
        "empty_set_at": empty_at,
        "paper_box_tighter": sum(1 for r in rows if r.paper_width_x is not None
                                 and r.paper_width_x < r.width_x),
        "paper_width_x_median": float(np.median(paper)) if paper else None,
        "boxes_median": float(np.median(boxes)) if boxes else None,
        "boxes_max": max(boxes) if boxes else None,
    }


def compare_gammas(cfg: RunConfig, gammas: Sequence[float]) -> list[dict]:
    """Run the same experiment per gain (a list of numbers); rows come back sorted by gain."""
    if not isinstance(gammas, (list, tuple)) or not all(map(_is_real, gammas)):
        raise ValueError(f"gammas must be a list of numbers, got {gammas!r}")
    if not gammas:
        raise ValueError("need at least one gamma")
    results = []
    for g in sorted(set(float(g) for g in gammas)):
        out = None if cfg.out is None else _suffixed(cfg.out, g)
        res = run_experiment(replace(cfg, gamma=g, out=out, svg=None))
        results.append(res.summary)
    return results


def format_comparison(summaries: Sequence[dict]) -> str:
    header = f"{'gamma':>7}  {'mean_width_x':>14}  {'decay_z':>10}  {'violations':>10}"
    lines = [header, "-" * len(header)]
    for s in summaries:
        lines.append(
            f"{s['gamma']:>7.3g}  {s['mean_width_x_window']:>14.6g}  "
            f"{s['decay_rate_z']:>10.4g}  {s['violations']:>10d}"
        )
    return "\n".join(lines)


def _suffixed(path, gamma: float) -> str:
    path = os.fspath(path)
    if path.endswith(".csv"):
        return f"{path[:-4]}_gamma{gamma:g}.csv"
    return f"{path}_gamma{gamma:g}"


def csv_header(n_x: int, n_z: int, n_y: int) -> str:
    cols = ["k"]
    cols += [f"x{i+1}" for i in range(n_x)]
    cols += [f"x_lo{i+1}" for i in range(n_x)]
    cols += [f"x_hi{i+1}" for i in range(n_x)]
    cols += [f"z{i+1}" for i in range(n_z)]
    cols += [f"z_lo{i+1}" for i in range(n_z)]
    cols += [f"z_hi{i+1}" for i in range(n_z)]
    cols += [f"y{i+1}" for i in range(n_y)]
    cols += [f"w{i+1}" for i in range(n_y)]
    cols += ["resid_hi", "resid_lo", "width_x", "width_z"]
    return ",".join(cols)


def write_csv(path: str, rows: Sequence[TraceRow]) -> None:
    first = rows[0]
    lines = [csv_header(first.x.size, first.z.size, first.y.size)]
    for r in rows:
        vals = [float(r.k)]
        for arr in (r.x, r.x_lo, r.x_hi, r.z, r.z_lo, r.z_hi, r.y, r.w):
            vals.extend(float(v) for v in arr)
        vals += [r.resid_hi, r.resid_lo, r.width_x, r.width_z]
        lines.append(",".join(_fmt(v) for v in vals))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _fmt(v: float) -> str:
    # non-finite values fall through to "nan", "inf" and "-inf"
    if math.isfinite(v) and v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return f"{v:.17g}"
