"""The interval observer recursion.

Bounds are propagated in framed target coordinates, where the propagation
matrix ``Lambda = R_{k+1} A inv(R_k)`` is constant, nonnegative and Schur:

    zhat+ <- Lambda zhat+ + (R B) y + (R B)^- w+ - (R B)^+ w-
    zhat- <- Lambda zhat- + (R B) y + (R B)^- w- - (R B)^+ w+

(with ``R = R_{k+1}`` and the superscripts denoting the nonnegative sign
split). Known disturbance bounds on the state equation widen both framed
bounds by their transform-Lipschitz image mapped through the frame split.
Unframed bounds follow from the split of the inverse frame.

State-space bounds come from the unframed bounds ``[z]`` in one of two ways:

* set inversion, when the transform's Jacobian is affine (polynomial mode
  with a basis of degree at most 2; ``setinv``): the returned box is the
  hull of every state of a prior set whose image lies in ``[z]``, found by
  bisection and contracted by Krawczyk. The prior is ``f(X_k) + [d]``,
  which ``step`` builds (``setinv.dynamic_prior``) when the plant's
  dynamics are linear (``PlantModel.f_linear``), intersected with the
  enlarged box; without it, it is the enlarged box. ``X_k`` is the set of
  states consistent with every bound so far, as the boxes the last recovery
  kept (the initial box at ``k = 0``), not their hull: one step's bounds
  are often met on several branches of states far apart. The box needs no
  residual slack, so the state reports residuals of 0.0.
  A state set that comes out empty means a broken assumption (noise or
  disturbance outside its declared bounds, or the state outside the
  enlarged box) and raises ``EmptyRecoveryError``; recovery never falls
  back to a wider box. The paper's box (next item) is still computed, from
  one Gauss-Newton start per bound at the hull's centre, and kept on the
  state as a diagnostic.
* the paper's recovery otherwise (series mode): both bound vectors are
  inverted numerically, ``u = T*(z+)`` and ``v = T*(z-)``, and the bounds
  are ``[max(u, v) - margin, min(u, v) + margin]`` with the inverse-Lipschitz
  margin ``c / gamma**(m_bar-1) * max_j (z+_j - z-_j)``. That box holds every
  state whose image lies in ``[z]`` only if the inversions are exact and the
  sampled ``c_I`` is a true injectivity margin. Neither is certified; the
  state reports the inversion residuals, which the harness turns into a
  slack.

Rounding is not yet outward anywhere: set inversion and its prior widen
their bounds by a stated rounding bound (see ``setinv``), and the
propagation rounds to nearest.

States are immutable values; ``step`` and the recovery operations return new
states, so independent observers can run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .coords import CoordChangeSeq
from .intervals import Box, inf_norm, interval_image
from .setinv import QuadraticEnclosure, dynamic_prior, set_invert
from .transform import InverseConfig, KklTransform, SystemConstants, eval_T, invert_T


class EmptyRecoveryError(RuntimeError):
    """No state of the prior box maps into the transform bounds at step ``k``."""

    def __init__(self, k: int):
        super().__init__(f"the state set is empty at k={k}: no state of the prior box maps "
                         "into the transform bounds (noise or disturbance outside its declared "
                         "bounds, or the state outside the enlarged box)")
        self.k = k


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
    ``enclosure`` is derived too: the coefficient arrays of set-inversion
    recovery over the enlarged box, or ``None`` when the transform's
    Jacobian is not affine and recovery is the paper's.
    """

    transform: KklTransform
    coord: CoordChangeSeq
    consts: SystemConstants
    gamma: float
    inverse_cfg: InverseConfig
    recovery_variant: str = "min_max"
    margin_c_over_gamma: float = field(init=False)
    enclosure: Optional[QuadraticEnclosure] = field(init=False, repr=False)

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
        object.__setattr__(self, "enclosure",
                           QuadraticEnclosure.of(self.transform, plant.box_x_enlarged))


@dataclass(frozen=True, eq=False)
class ObserverState:
    """Bounds at time ``k``; state-space bounds exist after recovery.

    ``inv_hi``/``inv_lo`` hold the inversion points of the paper's box (they
    warm-start the next recovery in series mode); ``resid_hi``/``resid_lo``
    are the residual slack the returned box needs: the inversion residuals
    of the paper's recovery, 0.0 for set inversion and at ``k = 0``, where
    the bounds are the initial box. ``x_boxes`` holds the state set's boxes,
    a ``(lo, hi)`` pair of ``(boxes, n_x)`` arrays: the initial box, then
    those set inversion kept, which ``step`` maps to ``prior``
    (``setinv.dynamic_prior``). ``paper_lo``/``paper_hi`` is the paper's box,
    kept as a diagnostic with set inversion.
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
    paper_lo: Optional[np.ndarray] = None
    paper_hi: Optional[np.ndarray] = None
    x_boxes: Optional[tuple] = None
    prior: Optional[tuple] = None


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
                         x_hi=x0_hi.copy(), x_lo=x0_lo.copy(),
                         x_boxes=(x0_lo[None].copy(), x0_hi[None].copy()))


def step(state: ObserverState, cfg: ObserverConfig, y_k,
         w_lo, w_hi, d_lo=None, d_hi=None) -> ObserverState:
    """Advance the framed bounds one step using the output at time ``k``.

    With set-inversion recovery and linear dynamics (``PlantModel.f_linear``),
    it also builds the prior of the next recovery from the state set at
    ``k``, when its bounds are finite (``setinv.dynamic_prior``). Raises
    ``ValueError`` on a NaN or infinite input, on unordered bounds, and on
    inputs not of shape ``(n_y,)`` (``y_k``, ``w_*``) or ``(n_x,)`` (``d_*``).
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

    disturbed = d_lo is not None or d_hi is not None
    if disturbed:
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

    prior = None
    if cfg.enclosure is not None and plant.f_linear is not None and _bounded(state):
        prior = dynamic_prior(plant.f_linear, state.x_lo, state.x_hi, state.x_boxes,
                              (d_lo, d_hi) if disturbed else None)

    z_lo, z_hi = interval_image(cfg.coord.S(state.k + 1), zhat_lo, zhat_hi)
    return ObserverState(k=state.k + 1, zhat_hi=zhat_hi, zhat_lo=zhat_lo,
                         z_hi=z_hi, z_lo=z_lo,
                         inv_hi=state.inv_hi, inv_lo=state.inv_lo,
                         prior=prior)


def _bounded(state: ObserverState) -> bool:
    return (state.x_lo is not None and state.x_hi is not None and state.x_boxes is not None
            and bool(np.all(np.isfinite(state.x_lo)) and np.all(np.isfinite(state.x_hi))))


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
    unchanged. With set inversion (``cfg.enclosure``) the bounds are the
    contracted hull of the states of the prior whose image lies in the
    bounds, and an empty set raises ``EmptyRecoveryError``; the paper's box
    is added as a diagnostic. Otherwise they are the paper's box, from both
    bound vectors inverted in one stacked call, each warm started from its
    previous recovery.
    """
    if state.k == 0:
        return state
    if cfg.enclosure is None:
        warm = None
        if state.inv_hi is not None and state.inv_lo is not None:
            warm = np.stack([state.inv_hi, state.inv_lo])
        (x_lo, x_hi), u, v, resids = _paper_box(state, cfg, warm, lattice=True)
        return replace(state, x_hi=x_hi, x_lo=x_lo, inv_hi=u, inv_lo=v,
                       resid_hi=float(resids[0]), resid_lo=float(resids[1]))

    box = cfg.transform.plant.box_x_enlarged
    lo, hi, union = box.lo, box.hi, None
    if state.prior is not None:
        (lo, hi), union = state.prior
        lo, hi = np.maximum(box.lo, lo), np.minimum(box.hi, hi)
    found = (set_invert(cfg.enclosure, state.z_lo, state.z_hi, lo, hi, union)
             if np.all(lo <= hi) else None)
    if found is None:
        raise EmptyRecoveryError(state.k)
    x_lo, x_hi, _, kept = found
    centre = 0.5 * (x_lo + x_hi)
    (paper_lo, paper_hi), u, v, _ = _paper_box(state, cfg, np.stack([centre, centre]),
                                               lattice=False)
    return replace(state, x_hi=x_hi, x_lo=x_lo, inv_hi=u, inv_lo=v,
                   resid_hi=0.0, resid_lo=0.0,
                   paper_lo=paper_lo, paper_hi=paper_hi, x_boxes=kept)


def _paper_box(state: ObserverState, cfg: ObserverConfig, warm, lattice: bool):
    """The paper's box ``[max(u, v) - margin, min(u, v) + margin]`` with the
    inverses ``u``, ``v`` of both bound vectors and their residuals."""
    (u, v), resids = invert_T(cfg.transform, np.stack([state.z_hi, state.z_lo]),
                              cfg.inverse_cfg, warm=warm, lattice=lattice)
    margin = cfg.margin_c_over_gamma * float(np.max(state.z_hi - state.z_lo))
    return (np.maximum(u, v) - margin, np.minimum(u, v) + margin), u, v, resids
