"""The interval observer recursion.

Bounds are propagated in framed target coordinates, where the propagation
matrix ``Lambda = R_{k+1} A inv(R_k)`` is constant, nonnegative and Schur:

    zhat+ <- Lambda zhat+ + (R B) y + (R B)^- w+ - (R B)^+ w-
    zhat- <- Lambda zhat- + (R B) y + (R B)^- w- - (R B)^+ w+

(with ``R = R_{k+1}`` and the superscripts denoting the nonnegative sign
split). Known disturbance bounds on the state equation widen both framed
bounds by their transform-Lipschitz image mapped through the frame split.
Unframed bounds follow from the split of the inverse frame. State-space
bounds are recovered by numerically inverting the transform at both bound
vectors, ``u = T*(z+)`` and ``v = T*(z-)``: each inverse lies within the
inverse-Lipschitz margin ``c / gamma**(m_bar-1) * max_j (z+_j - z-_j)`` of
every state whose image lies in the bounds, so the state lies in the
intersection of the two boxes, ``[max(u, v) - margin, min(u, v) + margin]``.

States are immutable values; ``step`` and the recovery operations return new
states, so independent observers can run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .coords import CoordChangeSeq
from .intervals import inf_norm, interval_image
from .plant import SystemConstants
from .transform import InverseConfig, KklTransform, eval_T, invert_T


@dataclass(frozen=True, eq=False)
class ObserverConfig:
    """Everything the recursion needs; the recovery margin is derived.

    ``margin_c_over_gamma`` is ``c / gamma**(m_bar-1)``, the inverse-Lipschitz
    coefficient of the transform. ``gamma`` must be the transform's own gain,
    since a larger one would shrink that margin below what is guaranteed.
    ``recovery_variant`` accepts only ``"min_max"`` (the intersection rule);
    the keyword remains because the benchmark worker (``perfbench/worker.py``)
    passes it.
    """

    transform: KklTransform
    coord: CoordChangeSeq
    consts: SystemConstants
    gamma: float
    inverse_cfg: InverseConfig
    recovery_variant: str = "min_max"
    margin_c_over_gamma: float = field(init=False)

    def __post_init__(self):
        if self.recovery_variant != "min_max":
            raise ValueError(f"recovery_variant must be 'min_max', got {self.recovery_variant!r}")
        if self.gamma != self.transform.target.gamma:
            raise ValueError(f"gamma={self.gamma} does not match the transform's "
                             f"gamma={self.transform.target.gamma}")
        if self.consts.c_L is None or self.consts.c_I is None:
            raise ValueError("constants must provide c_L and c_I")
        object.__setattr__(self, "margin_c_over_gamma",
                           self.consts.c / self.gamma ** (self.consts.m_bar - 1))
        a = self.transform.target.A
        for k in range(3):
            defect = np.max(np.abs(self.coord.R(k + 1) @ a @ self.coord.S(k) - self.coord.Lambda))
            if defect > 1e-9:
                raise ValueError("coordinate frames do not match the target matrix")


@dataclass(frozen=True, eq=False)
class ObserverState:
    """Bounds at time ``k``; state-space bounds exist after recovery.

    ``inv_hi``/``inv_lo`` cache the raw inversion points used to warm-start
    the next recovery; ``resid_hi``/``resid_lo`` are the reported inversion
    residuals (zero at ``k = 0``, where the bounds are the initial box).
    """

    k: int
    zhat_hi: np.ndarray
    zhat_lo: np.ndarray
    z_hi: np.ndarray
    z_lo: np.ndarray
    x_hi: Optional[np.ndarray] = None
    x_lo: Optional[np.ndarray] = None
    inv_hi: Optional[np.ndarray] = None
    inv_lo: Optional[np.ndarray] = None
    resid_hi: float = 0.0
    resid_lo: float = 0.0


def init_observer(cfg: ObserverConfig, x0_lo, x0_hi) -> ObserverState:
    """Initial framed bounds from the initial-condition box.

    Both transform images of the box corners, padded by the forward
    Lipschitz bound times the largest initial spread, bracket the transform
    of every point of the box; the frame split carries that bracket into
    framed coordinates. Raises ``ValueError`` on non-finite or unordered
    corners.
    """
    x0_lo = _finite("x0_lo", x0_lo)
    x0_hi = _finite("x0_hi", x0_hi)
    if np.any(x0_lo > x0_hi):
        raise ValueError("initial bounds are not ordered: x0_lo > x0_hi somewhere")
    t_hi = eval_T(cfg.transform, x0_hi)
    t_lo = eval_T(cfg.transform, x0_lo)
    pad = cfg.consts.c_L * float(np.max(x0_hi - x0_lo))
    z_hi = np.minimum(t_hi, t_lo) + pad
    z_lo = np.maximum(t_hi, t_lo) - pad
    zhat_lo, zhat_hi = interval_image(cfg.coord.R(0), z_lo, z_hi)
    return ObserverState(k=0, zhat_hi=zhat_hi, zhat_lo=zhat_lo,
                         z_hi=z_hi, z_lo=z_lo,
                         x_hi=x0_hi.copy(), x_lo=x0_lo.copy())


def step(state: ObserverState, cfg: ObserverConfig, y_k,
         w_lo, w_hi, d_lo=None, d_hi=None) -> ObserverState:
    """Advance the framed bounds one step using the output at time ``k``.

    Raises ``ValueError`` on a NaN or infinite input, or on unordered bounds.
    """
    y_k = _finite("y_k", y_k)
    w_lo = _finite("w_lo", w_lo)
    w_hi = _finite("w_hi", w_hi)
    if np.any(w_lo > w_hi):
        raise ValueError("noise bounds are not ordered: w_lo > w_hi somewhere")
    lam = cfg.coord.Lambda
    r_next = cfg.coord.R(state.k + 1)
    rb = r_next @ cfg.transform.target.B
    drive = rb @ y_k
    n_lo, n_hi = interval_image(rb, w_lo, w_hi)
    zhat_hi = lam @ state.zhat_hi + drive - n_lo
    zhat_lo = lam @ state.zhat_lo + drive - n_hi

    if d_lo is not None or d_hi is not None:
        d_lo = np.zeros(cfg.transform.plant.n_x) if d_lo is None else _finite("d_lo", d_lo)
        d_hi = np.zeros(cfg.transform.plant.n_x) if d_hi is None else _finite("d_hi", d_hi)
        if np.any(d_lo > d_hi):
            raise ValueError("disturbance bounds are not ordered: d_lo > d_hi somewhere")
        delta = cfg.consts.c_L * max(inf_norm(d_hi), inf_norm(d_lo))
        if delta > 0.0:
            # image of [-delta, delta]^n_z through the frame split
            widen = delta * np.abs(r_next).sum(axis=1)
            zhat_hi = zhat_hi + widen
            zhat_lo = zhat_lo - widen

    z_lo, z_hi = interval_image(cfg.coord.S(state.k + 1), zhat_lo, zhat_hi)
    return ObserverState(k=state.k + 1, zhat_hi=zhat_hi, zhat_lo=zhat_lo,
                         z_hi=z_hi, z_lo=z_lo,
                         inv_hi=state.inv_hi, inv_lo=state.inv_lo)


def _finite(name: str, v) -> np.ndarray:
    # every comparison with NaN is false, so the ordering checks alone let it through
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} is not finite: {v}")
    return v


def recover_x_bounds(state: ObserverState, cfg: ObserverConfig) -> ObserverState:
    """Recover state-space bounds from the current unframed bounds.

    At ``k = 0`` the bounds are the initial box and the state is returned
    unchanged. Otherwise both bound vectors are inverted numerically in one
    stacked call (each warm started from its previous recovery); the state
    bounds are the intersection of the two inverse-Lipschitz boxes around
    the inverses.
    """
    if state.k == 0:
        return state
    warm = None
    if state.inv_hi is not None and state.inv_lo is not None:
        warm = np.stack([state.inv_hi, state.inv_lo])
    (u, v), resids = invert_T(cfg.transform, np.stack([state.z_hi, state.z_lo]),
                              cfg.inverse_cfg.with_warm_start(warm))
    resid_hi, resid_lo = float(resids[0]), float(resids[1])
    margin = cfg.margin_c_over_gamma * float(np.max(state.z_hi - state.z_lo))
    x_hi = np.minimum(u, v) + margin
    x_lo = np.maximum(u, v) - margin
    return replace(state, x_hi=x_hi, x_lo=x_lo, inv_hi=u, inv_lo=v,
                   resid_hi=resid_hi, resid_lo=resid_lo)


def mixed_monotone_bounds(decomposition: Callable[[np.ndarray, np.ndarray], np.ndarray],
                          z_lo: np.ndarray, z_hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """State bounds ``(x_lo, x_hi)`` from a decomposition of the inverse map."""
    x_lo = np.asarray(decomposition(z_lo, z_hi), dtype=float)
    x_hi = np.asarray(decomposition(z_hi, z_lo), dtype=float)
    return x_lo, x_hi


def recover_x_mixed_monotone(state: ObserverState, cfg: ObserverConfig,
                             decomposition: Callable[[np.ndarray, np.ndarray], np.ndarray],
                             check_tol: float = 1e-3) -> tuple[np.ndarray, np.ndarray]:
    """Tighter recovery for callers who supply a decomposition of the inverse.

    Only valid when the inverse map is mixed monotone, which is situational;
    the decomposition is spot-checked against the numerical inverse on the
    diagonal (``decomposition(z, z)`` must equal the inverse at ``z``).
    """
    zs = np.stack([state.z_hi, state.z_lo, 0.5 * (state.z_hi + state.z_lo)])
    xs_num, _ = invert_T(cfg.transform, zs, cfg.inverse_cfg)
    for z, x_num in zip(zs, xs_num):
        diag = np.asarray(decomposition(z, z), dtype=float)
        if inf_norm(diag - x_num) > check_tol:
            raise ValueError(
                "decomposition disagrees with the inverse on the diagonal: "
                f"gap {inf_norm(diag - x_num):.3e} at z={z}"
            )
    return mixed_monotone_bounds(decomposition, state.z_lo, state.z_hi)
