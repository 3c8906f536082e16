"""Dense vector/matrix primitives for guaranteed interval propagation.

Everything operates on small dense numpy arrays. The sign split
``m == split_pos(m) - split_neg(m)`` holds exactly in floating point
(entries are copies or zeros); the bound-propagation logic downstream
relies on that identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def split_pos(m) -> np.ndarray:
    """Entrywise nonnegative part ``max(m, 0)``."""
    return np.maximum(np.asarray(m, dtype=float), 0.0)


def split_neg(m) -> np.ndarray:
    """Entrywise nonnegative part of ``-m``, so ``split_pos(m) - split_neg(m) == m``."""
    return np.maximum(-np.asarray(m, dtype=float), 0.0)


def interval_image(m, a_lo, a_hi) -> tuple[np.ndarray, np.ndarray]:
    """Guaranteed image of the box ``[a_lo, a_hi]`` under the linear map ``m``.

    Returns ``(lo, hi)`` such that ``lo <= m @ a <= hi`` componentwise for
    every ``a`` with ``a_lo <= a <= a_hi``. Corners of shape ``(s, n)`` hold
    one box per row, and their images are rows too, ``a @ split.T``.
    """
    m = np.asarray(m, dtype=float)
    a_lo = np.asarray(a_lo, dtype=float)
    a_hi = np.asarray(a_hi, dtype=float)
    if m.ndim != 2 or a_lo.shape != a_hi.shape or a_lo.ndim > 2 or a_lo.shape[-1:] != m.shape[1:]:
        raise ValueError(f"shape mismatch: m is {m.shape}, a_lo is {a_lo.shape}, "
                         f"a_hi is {a_hi.shape}")
    p = split_pos(m)
    n = split_neg(m)
    if a_lo.ndim == 2:
        return a_lo @ p.T - a_hi @ n.T, a_hi @ p.T - a_lo @ n.T
    return p @ a_lo - n @ a_hi, p @ a_hi - n @ a_lo


def inf_norm(v) -> float:
    """Max-abs norm of a vector (the norm used throughout this package)."""
    v = np.asarray(v, dtype=float)
    return float(np.max(np.abs(v))) if v.size else 0.0


def mat_inf_norm(m) -> float:
    """Operator norm induced by the max-abs vector norm (max absolute row sum)."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    return float(np.max(np.abs(m).sum(axis=1)))


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box ``[lo, hi]`` in R^dim."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float)).copy()
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float)).copy()
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("box corners must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("box corners must be finite")
        if np.any(lo > hi):
            raise ValueError("box lower corner exceeds upper corner")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.size

    @property
    def width(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def corners(self) -> str:
        return f"lo={[float(v) for v in self.lo]} hi={[float(v) for v in self.hi]}"

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lo) and np.all(x <= self.hi))

    def contains_box(self, other: "Box") -> bool:
        return bool(np.all(other.lo >= self.lo) and np.all(other.hi <= self.hi))

    def clamp(self, x) -> np.ndarray:
        """Componentwise clamp of ``x`` (batched over leading axes) into the box.

        ``np.minimum(np.maximum(...))`` gives the bits of ``np.clip`` without
        its wrapper's overhead.
        """
        return np.minimum(np.maximum(np.asarray(x, dtype=float), self.lo), self.hi)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=(n, self.dim))

    def grid(self, per_axis: int) -> np.ndarray:
        """Regular lattice of ``per_axis**dim`` points including the corners."""
        axes = [np.linspace(self.lo[i], self.hi[i], per_axis) for i in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1).reshape(-1, self.dim)
