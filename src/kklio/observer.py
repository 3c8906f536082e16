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
vectors, ``u = T*(z+)`` and ``v = T*(z-)``, as the intersection
``[max(u, v) - margin, min(u, v) + margin]`` with the inverse-Lipschitz margin
``c / gamma**(m_bar-1) * max_j (z+_j - z-_j)``. That box holds every state
whose image lies in the bounds only if the inversions are exact and the
sampled ``c_I`` is a true injectivity margin. Neither is certified, and
noise-free orbits near a near-singular point of the Jacobian of ``T`` break
enclosure even with the harness's residual slack.

States are immutable values; ``step`` and the recovery operations return new
states, so independent observers can run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .coords import CoordChangeSeq
from .intervals import Box, inf_norm, interval_image
from .transform import InverseConfig, KklTransform, SystemConstants, eval_T, invert_T


@dataclass(frozen=True, eq=False)
class ObserverConfig:
    """Everything the recursion needs; the recovery margin is derived.

    ``margin_c_over_gamma`` is ``c / gamma**(m_bar-1)``, the inverse-Lipschitz
    coefficient of the transform. ``gamma`` must be the transform's own gain,
    since a larger one would shrink that margin below what is guaranteed.
    ``coord`` must be built from the target's own blocks and gain, since
    other frames do not turn its matrix into ``coord.Lambda``.
    ``recovery_variant`` accepts only ``"min_max"`` (the intersection rule);
    the keyword remains because the benchmark worker (``perfbench/worker.py``)
    passes it. The inversion box must lie inside the plant's enlarged box,
    where ``c_L`` and ``c_I`` are sampled, and contain the invariant box.
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
        if self.consts.m != self.transform.target.m:
            # m_bar sets the margin's exponent: other orders void its guarantee
            raise ValueError(f"orders m={self.consts.m} do not match the transform's "
                             f"m={self.transform.target.m}")
        plant = self.transform.plant
        box = self.inverse_cfg.box
        if not (plant.box_x_enlarged.contains_box(box) and box.contains_box(plant.box_x)):
            raise ValueError("inversion box must lie inside the enlarged box and "
                             "contain the invariant box")
        object.__setattr__(self, "margin_c_over_gamma",
                           self.consts.c / self.gamma ** (self.consts.m_bar - 1))
        target = self.transform.target
        if self.coord.blocks != target.blocks or self.coord.gamma != target.gamma:
            raise ValueError("coordinate frames do not match the target's blocks and gamma")


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
    corners, on corners of another length than ``n_x``, and on a box
    outside the plant's invariant box.
    """
    x0_lo = _finite("x0_lo", x0_lo)
    x0_hi = _finite("x0_hi", x0_hi)
    n_x = cfg.transform.plant.n_x
    if x0_lo.shape != (n_x,) or x0_hi.shape != (n_x,):
        raise ValueError(f"x0_lo and x0_hi need length n_x={n_x}, got {x0_lo.shape}, {x0_hi.shape}")
    if np.any(x0_lo > x0_hi):
        raise ValueError("initial bounds are not ordered: x0_lo > x0_hi somewhere")
    box_x, x0_box = cfg.transform.plant.box_x, Box(x0_lo, x0_hi)
    if not box_x.contains_box(x0_box):
        raise ValueError(f"initial box {x0_box.corners()} must lie inside the "
                         f"invariant box {box_x.corners()}")
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

    Raises ``ValueError`` on a NaN or infinite input, on unordered bounds, and
    on inputs not of shape ``(n_y,)`` (``y_k``, ``w_*``) or ``(n_x,)`` (``d_*``).
    """
    plant = cfg.transform.plant
    y_k = _finite("y_k", y_k, plant.n_y)
    w_lo = _finite("w_lo", w_lo, plant.n_y)
    w_hi = _finite("w_hi", w_hi, plant.n_y)
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
        d_lo = np.zeros(plant.n_x) if d_lo is None else _finite("d_lo", d_lo, plant.n_x)
        d_hi = np.zeros(plant.n_x) if d_hi is None else _finite("d_hi", d_hi, plant.n_x)
        if np.any(d_lo > d_hi):
            raise ValueError("disturbance bounds are not ordered: d_lo > d_hi somewhere")
        delta = cfg.consts.c_L * max(inf_norm(d_hi), inf_norm(d_lo))
        if delta > 0.0:
            spread = np.full(cfg.transform.target.n_z, delta)
            widen_lo, widen_hi = interval_image(r_next, -spread, spread)
            zhat_hi = zhat_hi + widen_hi
            zhat_lo = zhat_lo + widen_lo

    z_lo, z_hi = interval_image(cfg.coord.S(state.k + 1), zhat_lo, zhat_hi)
    return ObserverState(k=state.k + 1, zhat_hi=zhat_hi, zhat_lo=zhat_lo,
                         z_hi=z_hi, z_lo=z_lo,
                         inv_hi=state.inv_hi, inv_lo=state.inv_lo)


def _finite(name: str, v, n: Optional[int] = None) -> np.ndarray:
    # every comparison with NaN is false, so the ordering checks alone let it through
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} is not finite: {v}")
    if n is not None and v.shape != (n,):
        raise ValueError(f"{name} needs shape ({n},), got {v.shape}")
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
                              cfg.inverse_cfg, warm=warm)
    resid_hi, resid_lo = float(resids[0]), float(resids[1])
    margin = cfg.margin_c_over_gamma * float(np.max(state.z_hi - state.z_lo))
    x_hi = np.minimum(u, v) + margin
    x_lo = np.maximum(u, v) - margin
    return replace(state, x_hi=x_hi, x_lo=x_lo, inv_hi=u, inv_lo=v,
                   resid_hi=resid_hi, resid_lo=resid_lo)
