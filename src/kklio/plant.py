"""Discrete-time plant models and estimation of their regularity constants.

A plant is ``x[k+1] = f(x[k]) + d[k]``, ``y[k] = h(x[k]) + w[k]`` together
with an exact inverse of ``f``, an invariant box the solutions of interest
stay in, and a slightly larger box used to saturate backward iterations so
that chained evaluations of the inverse dynamics remain bounded.

The maps ``f``, ``f_inv`` and ``h`` must be numpy-vectorized: they take
``(..., n_x)`` arrays and return ``(..., n_x)`` resp. ``(..., n_y)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .intervals import Box
from .sampling import pair_ratio_extremum


@dataclass(frozen=True, eq=False)
class PlantModel:
    """Plant dynamics with inverse, output map, and its nested boxes.

    ``box_x0`` holds the initial-condition corners, ``box_x`` the invariant
    set, and ``box_x_enlarged`` the saturation box; they must be nested.
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
            raise ValueError("initial box must lie inside the invariant box")
        if not self.box_x_enlarged.contains_box(self.box_x):
            raise ValueError("enlarged box must contain the invariant box")

    def f_inv_clamped(self, x) -> np.ndarray:
        """One backward step, saturated into the enlarged box."""
        return self.box_x_enlarged.clamp(self.f_inv(np.asarray(x, dtype=float)))


@dataclass(frozen=True)
class SystemConstants:
    """Regularity constants of a plant/transform pair.

    ``c_f`` and ``c_h`` bound the increments of the inverse dynamics and the
    output map; ``c_o`` is the injectivity modulus of the backward
    distinguishability map at orders ``m``; ``c_c`` bounds the inverse
    controllability matrices of the target blocks from below; ``c_N`` is the
    norm-equivalence factor (1 for the max norm). ``c_L`` and ``c_I``
    describe the transform itself and are filled in once it is built; ``c``
    follows from them.
    """

    c_f: float
    c_h: float
    c_o: float
    c_c: float
    m: tuple[int, ...]
    c_N: float = 1.0
    c_L: Optional[float] = None
    c_I: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "m", tuple(int(mi) for mi in self.m))
        for name in ("c_f", "c_h", "c_o", "c_c", "c_N"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")
        for name in ("c_L", "c_I"):
            value = getattr(self, name)
            if value is not None and not value > 0.0:
                raise ValueError(f"{name} must be strictly positive when set")
        if not self.m or any(mi < 1 for mi in self.m):
            raise ValueError("orders m must all be >= 1")

    @property
    def m_bar(self) -> int:
        return max(self.m)

    @property
    def c(self) -> Optional[float]:
        """Inverse-Lipschitz constant of the transform, ``1 / c_I``."""
        return None if self.c_I is None else 1.0 / self.c_I

    def with_transform_constants(self, c_L: float, c_I: float) -> "SystemConstants":
        return replace(self, c_L=c_L, c_I=c_I)


@dataclass(frozen=True)
class NoiseSpec:
    """Known per-step bounds on measurement noise and state disturbance."""

    w_lo: Callable[[int], np.ndarray]
    w_hi: Callable[[int], np.ndarray]
    d_lo: Callable[[int], np.ndarray]
    d_hi: Callable[[int], np.ndarray]

    @staticmethod
    def zero(n_y: int, n_x: int) -> "NoiseSpec":
        zy = np.zeros(n_y)
        zx = np.zeros(n_x)
        return NoiseSpec(lambda k: zy, lambda k: zy, lambda k: zx, lambda k: zx)


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
