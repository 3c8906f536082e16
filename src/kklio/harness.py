"""Experiment runner: builds a preset stack, simulates, and writes traces.

A run produces one trace row per time step (true state, state/transform
bounds, output, noise, inversion residuals, bound widths) plus a summary
with the enclosure-violation count, the mean state-bound width over a
window, a geometric width-decay fit, and the first step at which the true
state left the enlarged box (``left_box_at``, ``None`` if it never did).
CSV output uses 17-significant-digit decimal formatting, so identical
configurations produce byte-identical files.

Violation counting is slack-aware: on top of the checking slack of 1e-9,
state-space checks allow the published inversion slack
``margin_coefficient * max(resid_hi, resid_lo)``, the guaranteed effect of a
nonzero least-squares residual on the recovered bounds. A row with a
non-finite bound counts as a violation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import presets
from .intervals import Box, inf_norm
from .observer import init_observer, recover_x_bounds, step
from .plant import NoiseSpec, simulate_plant
from .svg import write_svg
from .transform import eval_T, load_coefficients

CHECK_SLACK = 1e-9


@dataclass(frozen=True)
class RunConfig:
    preset: str = presets.OSCILLATOR
    tau: float = presets.DEFAULT_TAU
    gamma: float = 1.0
    steps: int = 500
    seed: int = presets.ESTIMATION_SEED
    noise: bool = True
    disturbance: bool = False
    x0: tuple = presets.DEFAULT_X0
    x0_halfwidth: float = presets.DEFAULT_X0_HALFWIDTH
    window: tuple = (100, 500)
    out: Optional[str] = None
    svg: Optional[str] = None
    coeffs: Optional[str] = None

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")


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


@dataclass(frozen=True, eq=False)
class RunResult:
    config: RunConfig
    rows: list
    summary: dict


def run_experiment(cfg: RunConfig) -> RunResult:
    """Build the stack, run the observer along a simulated trajectory."""
    coeffs = None
    if cfg.coeffs is not None:
        coeffs, _basis = load_coefficients(cfg.coeffs)
    x0 = np.asarray(cfg.x0, dtype=float)
    x0_box_lo = x0 - cfg.x0_halfwidth
    x0_box_hi = x0 + cfg.x0_halfwidth
    bundle = presets.build_preset(
        cfg.preset, gamma=cfg.gamma, tau=cfg.tau, seed=cfg.seed,
        x0_box=Box(x0_box_lo, x0_box_hi), coeffs=coeffs,
    )
    plant = bundle.plant
    if not plant.box_x0.contains(x0):
        raise ValueError("true initial state lies outside the initial box")

    w, d, noise_spec = _noise_profile(cfg, plant)
    trace = simulate_plant(plant, x0, cfg.steps, w=w, d=d)
    obs_cfg = bundle.observer_cfg
    state = init_observer(obs_cfg, x0_box_lo, x0_box_hi)

    rows = [_row_from_state(0, trace, state, bundle)]
    for k in range(cfg.steps):
        kw = dict(d_lo=noise_spec.d_lo(k), d_hi=noise_spec.d_hi(k)) if cfg.disturbance else {}
        state = step(state, obs_cfg, trace.ys[k], noise_spec.w_lo(k), noise_spec.w_hi(k), **kw)
        state = recover_x_bounds(state, obs_cfg)
        rows.append(_row_from_state(state.k, trace, state, bundle))

    summary = _summarize(cfg, rows, bundle, trace.left_box_at)
    if cfg.out:
        write_csv(cfg.out, rows)
    if cfg.svg:
        write_svg(cfg.svg, rows, plant.n_x)
    return RunResult(config=cfg, rows=rows, summary=summary)


def _noise_profile(cfg: RunConfig, plant):
    """Noise/disturbance realizations plus their bound spec per the toggles."""
    zero = NoiseSpec.zero(plant.n_y, plant.n_x)
    w = None
    w_lo, w_hi = zero.w_lo, zero.w_hi
    if cfg.noise:
        w, w_lo, w_hi = presets.siE_noise()
    d = None
    d_lo, d_hi = zero.d_lo, zero.d_hi
    if cfg.disturbance:
        d, d_lo, d_hi = presets.siE_disturbance()
    return w, d, NoiseSpec(w_lo=w_lo, w_hi=w_hi, d_lo=d_lo, d_hi=d_hi)


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
    )


def _summarize(cfg: RunConfig, rows, bundle, left_box_at: Optional[int]) -> dict:
    margin_coeff = bundle.observer_cfg.margin_c_over_gamma
    violations = []
    for r in rows:
        x_slack = CHECK_SLACK + margin_coeff * max(r.resid_hi, r.resid_lo)
        # a NaN bound compares false both ways, so finiteness is checked apart
        finite = all(np.isfinite(b).all() for b in (r.x_lo, r.x_hi, r.z_lo, r.z_hi))
        if (not finite or np.any(r.x < r.x_lo - x_slack) or np.any(r.x > r.x_hi + x_slack)
                or np.any(r.z < r.z_lo - CHECK_SLACK) or np.any(r.z > r.z_hi + CHECK_SLACK)):
            violations.append(r.k)

    k_lo, k_hi = cfg.window
    in_window = [r.width_x for r in rows if k_lo <= r.k <= k_hi]
    if not in_window:
        # window misses the run entirely: fall back to its second half
        k_lo, k_hi = cfg.steps // 2, cfg.steps
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
        "gamma_star_raw": bundle.gamma_star_raw,
        "max_resid": max(max(r.resid_hi, r.resid_lo) for r in rows),
        "left_box_at": left_box_at,
    }


def compare_gammas(cfg: RunConfig, gammas: Sequence[float]) -> list[dict]:
    """Run the same experiment per gain; rows come back sorted by gain."""
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


def _suffixed(path: str, gamma: float) -> str:
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
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return f"{v:.17g}"
