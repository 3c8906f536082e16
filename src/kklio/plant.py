"""Discrete-time plant models and estimation of their regularity constants.

A plant is ``x[k+1] = f(x[k]) + d[k]``, ``y[k] = h(x[k]) + w[k]`` together
with an exact inverse of ``f``, an invariant box the solutions of interest
stay in, and a slightly larger box used to saturate backward iterations so
that chained evaluations of the inverse dynamics remain bounded.

The maps ``f``, ``f_inv`` and ``h`` must be numpy-vectorized: they take
``(..., n_x)`` arrays and return ``(..., n_x)`` resp. ``(..., n_y)``.

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
    map shapes are checked once, on the two corners of ``box_x``.
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
        for name, n_out in (("f", self.n_x), ("f_inv", self.n_x), ("h", self.n_y)):
            shape = np.shape(getattr(self, name)(corners))
            if shape != (2, n_out):
                raise ValueError(f"{name} maps an input of shape (2, {self.n_x}) to shape "
                                 f"{shape}, expected (2, {n_out})")

    def f_inv_clamped(self, x) -> np.ndarray:
        """One backward step, saturated into the enlarged box."""
        return self.box_x_enlarged.clamp(self.f_inv(np.asarray(x, dtype=float)))


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

    Channel ``i`` contributes ``h_i`` composed with 1..m[i] saturated
    backward steps; the result has ``sum(m)`` components and accepts batched
    input like the plant maps.
    """
    m = tuple(int(mi) for mi in m)
    if len(m) != model.n_y or any(mi < 1 for mi in m):
        raise ValueError("need one order >= 1 per output channel")
    depth = max(m)

    def omap(x):
        x = np.asarray(x, dtype=float)
        per_channel: list[list[np.ndarray]] = [[] for _ in range(model.n_y)]
        v = x
        for j in range(1, depth + 1):
            v = model.f_inv_clamped(v)
            y = np.asarray(model.h(v), dtype=float)
            for i, mi in enumerate(m):
                if j <= mi:
                    per_channel[i].append(y[..., i])
        cols = [col for chan in per_channel for col in chan]
        return np.stack(cols, axis=-1)

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
