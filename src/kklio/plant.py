"""Discrete-time plant models and estimation of their regularity constants.

A plant is ``x[k+1] = f(x[k]) + d[k]``, ``y[k] = h(x[k]) + w[k]`` together
with an exact inverse of ``f``, an invariant box the solutions of interest
stay in, and a slightly larger box used to saturate backward iterations so
that chained evaluations of the inverse dynamics remain bounded.

The maps ``f``, ``f_inv`` and ``h`` must be numpy-vectorized: they take ``(..., n_x)``
arrays of any leading shape, such as the ``(series_n, ..., n_x)`` backward orbit
(``PlantModel.backward_orbit``) that the series transform passes to ``h`` whole,
and return ``(..., n_x)`` resp. ``(..., n_y)``.

The estimated constants, ``c_f`` and ``c_h`` (``estimate_lipschitz``) and
``c_o`` (``estimate_c_o``), are inputs of the closed-form gain threshold
``transform.gamma_star`` only; no run reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .intervals import Box
from .sampling import pair_ratio_extremum


@dataclass(frozen=True, eq=False)
class PlantModel:
    """Plant dynamics with inverse, output map, and its nested boxes.

    ``box_x0`` holds the initial-condition corners, ``box_x`` the invariant
    set, and ``box_x_enlarged`` the saturation box; they must be nested. The
    map shapes are checked once, on the two corners of ``box_x``, as a
    ``(2, n_x)`` and as a ``(2, 1, n_x)`` array.
    """

    n_x: int
    n_y: int
    f: Callable[[np.ndarray], np.ndarray]
    f_inv: Callable[[np.ndarray], np.ndarray]
    h: Callable[[np.ndarray], np.ndarray]
    box_x: Box
    box_x0: Box
    box_x_enlarged: Box

    def __post_init__(self):
        if self.n_x < 1 or self.n_y < 1:
            raise ValueError("state and output dimensions must be positive")
        for box in (self.box_x, self.box_x0, self.box_x_enlarged):
            if box.dim != self.n_x:
                raise ValueError("box dimension does not match n_x")
        if not self.box_x.contains_box(self.box_x0):
            raise ValueError(f"initial box {self.box_x0.corners()} must lie inside the "
                             f"invariant box {self.box_x.corners()}")
        if not self.box_x_enlarged.contains_box(self.box_x):
            raise ValueError(f"enlarged box {self.box_x_enlarged.corners()} must contain the "
                             f"invariant box {self.box_x.corners()}")
        corners = np.stack([self.box_x.lo, self.box_x.hi])
        for pts in (corners, corners[:, None]):
            for name, n_out in (("f", self.n_x), ("f_inv", self.n_x), ("h", self.n_y)):
                try:
                    shape = np.shape(getattr(self, name)(pts))
                except (IndexError, ValueError) as err:
                    raise ValueError(f"{name} fails on an input of shape {pts.shape}: {err}")
                if shape != pts.shape[:-1] + (n_out,):
                    raise ValueError(f"{name} maps an input of shape {pts.shape} to shape "
                                     f"{shape}, expected {pts.shape[:-1] + (n_out,)}")

    def backward_orbit(self, x, n: int) -> np.ndarray:
        """Rows ``j < n``: ``x`` after ``j + 1`` steps of ``f_inv``, each clamped into the
        enlarged box (with the bits of ``np.clip``); shape ``(n,) + x.shape``."""
        v, orbit = np.asarray(x, dtype=float), np.empty((n,) + np.shape(x))
        for row in orbit:
            v = np.maximum(self.f_inv(v), self.box_x_enlarged.lo, out=row)
            v = np.minimum(v, self.box_x_enlarged.hi, out=row)
        return orbit


@dataclass(frozen=True, eq=False)
class PlantTrace:
    """Simulated trajectory; row ``k`` holds ``x[k]``, ``y[k]`` and the noises."""

    xs: np.ndarray
    ys: np.ndarray
    ws: np.ndarray
    ds: np.ndarray
    left_box_at: Optional[int]

    def __len__(self) -> int:
        return self.xs.shape[0]


def simulate_plant(model: PlantModel, x0, steps: int,
                   w: Callable[[int], np.ndarray] | None = None,
                   d: Callable[[int], np.ndarray] | None = None) -> PlantTrace:
    """Roll the plant forward ``steps`` steps from ``x0``.

    Returns states and outputs for ``k = 0..steps``. If the state ever
    leaves the enlarged box, the first such index is flagged in the trace.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    x = np.asarray(x0, dtype=float).copy()
    xs = np.empty((steps + 1, model.n_x))
    ys = np.empty((steps + 1, model.n_y))
    ws = np.zeros((steps + 1, model.n_y))
    ds = np.zeros((steps + 1, model.n_x))
    left_at = None
    for k in range(steps + 1):
        if left_at is None and not model.box_x_enlarged.contains(x):
            left_at = k
        wk = np.zeros(model.n_y) if w is None else np.asarray(w(k), dtype=float)
        xs[k] = x
        ws[k] = wk
        ys[k] = np.asarray(model.h(x), dtype=float) + wk
        if k < steps:
            dk = np.zeros(model.n_x) if d is None else np.asarray(d(k), dtype=float)
            ds[k] = dk
            x = np.asarray(model.f(x), dtype=float) + dk
    return PlantTrace(xs=xs, ys=ys, ws=ws, ds=ds, left_box_at=left_at)


def distinguishability_map(model: PlantModel, m: Sequence[int]):
    """Stacked backward output map at orders ``m``.

    Channel ``i`` contributes ``h_i`` on the first m[i] rows of one
    ``backward_orbit``; the result has ``sum(m)`` components and accepts
    batched input like the plant maps.
    """
    m = tuple(int(mi) for mi in m)
    if len(m) != model.n_y or any(mi < 1 for mi in m):
        raise ValueError("need one order >= 1 per output channel")

    def omap(x):
        ys = np.asarray(model.h(model.backward_orbit(x, max(m))), dtype=float)
        return np.stack([ys[j, ..., i] for i, mi in enumerate(m) for j in range(mi)], axis=-1)

    return omap


def estimate_lipschitz(model: PlantModel, samples: int = 20000, seed: int = 0) -> tuple[float, float]:
    """Sampled Lipschitz bounds for ``f_inv`` and ``h`` on the enlarged box.

    Maximal increment ratios over random pairs and sign-direction probes,
    inflated by a 1.1 safety factor. Deterministic given the seed, and
    monotone under a growing sample budget.
    """
    box = model.box_x_enlarged
    c_f = 1.1 * pair_ratio_extremum(model.f_inv, box, samples, seed)
    c_h = 1.1 * pair_ratio_extremum(model.h, box, samples, seed + 1)
    return c_f, c_h


def estimate_c_o(model: PlantModel, m: Sequence[int], samples: int = 20000, seed: int = 0) -> float:
    """Sampled injectivity modulus of the backward distinguishability map.

    Minimal increment ratio over pairs in the invariant box, deflated by a
    0.9 safety factor. Raises if the sampled ratio is numerically zero,
    which means the chosen orders do not separate states.
    """
    omap = distinguishability_map(model, m)
    raw = pair_ratio_extremum(omap, model.box_x, samples, seed, minimize=True)
    if raw <= 1e-12:
        raise ValueError(
            f"not Lipschitz backward distinguishable at orders {tuple(m)}: "
            f"sampled ratio {raw:.3e}"
        )
    return 0.9 * raw
