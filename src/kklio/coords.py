"""Time-varying coordinate frames that make the target dynamics nonnegative.

For a block-diagonal Schur matrix built from the canonical block kinds below,
there is a closed-form sequence of invertible frames ``R_k`` such that
``R_{k+1} @ A @ inv(R_k)`` is one constant matrix ``Lambda`` that is
elementwise nonnegative and Schur:

* ``positive_real(lam)``, ``negative_real(lam)``: R_k = sign(lam)^k
* ``rotation(rho, theta)``: R_k = rot(-k*theta)

``Lambda`` is ``diag(gamma * modulus)``, one entry per block row, and the gain
lies in (0, 1], so it is Schur because every block's modulus is below 1.
Frames are evaluated directly from ``k`` (never by accumulating products),
so there is no drift for large ``k``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_KINDS = ("positive_real", "negative_real", "rotation")


@dataclass(frozen=True)
class CanonicalBlock:
    kind: str
    lam: float = 0.0
    rho: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown block kind {self.kind!r}")
        if self.kind == "positive_real" and not 0.0 <= self.lam:
            raise ValueError("positive_real block needs lam >= 0")
        if self.kind == "negative_real" and not self.lam < 0.0:
            raise ValueError("negative_real block needs lam < 0")
        if self.kind == "rotation" and not self.rho > 0.0:
            raise ValueError("rotation block needs rho > 0")
        for name in ("lam",) if self.kind == "rotation" else ("rho", "theta"):
            if getattr(self, name) != 0.0:
                raise ValueError(f"{self.kind} block takes no {name}, got {getattr(self, name)!r}")
        if not self.modulus < 1.0:
            raise ValueError(f"block modulus {self.modulus} is not < 1: the block is not Schur")

    @staticmethod
    def positive_real(lam: float) -> "CanonicalBlock":
        return CanonicalBlock("positive_real", lam=lam)

    @staticmethod
    def negative_real(lam: float) -> "CanonicalBlock":
        return CanonicalBlock("negative_real", lam=lam)

    @staticmethod
    def rotation(rho: float, theta: float) -> "CanonicalBlock":
        return CanonicalBlock("rotation", rho=rho, theta=theta)

    @property
    def modulus(self) -> float:
        return self.rho if self.kind == "rotation" else abs(self.lam)

    @property
    def dim(self) -> int:
        return 2 if self.kind == "rotation" else 1

    def a_block(self) -> np.ndarray:
        """The unscaled target sub-block this frame construction covers."""
        if self.kind == "rotation":
            c, s = math.cos(self.theta), math.sin(self.theta)
            return self.rho * np.array([[c, -s], [s, c]])
        return np.array([[self.lam]])

    def r_block(self, k: int) -> np.ndarray:
        if self.kind != "rotation":
            return np.array([[(-1.0 if self.lam < 0.0 else 1.0) ** (k % 2)]])
        phi = k * self.theta
        c, s = math.cos(phi), math.sin(phi)
        # rotation by -k*theta
        return np.array([[c, s], [-s, c]])


@dataclass(frozen=True, eq=False)
class CoordChangeSeq:
    """Frames for the canonical ``blocks`` at gain ``gamma``.

    ``Lambda``, the constant propagation matrix, and ``sigma``, a bound on
    ``||R_k|| + ||inv(R_k)||``, are derived from them, so they always belong
    to these frames. ``gamma`` must lie in (0, 1], as ``TargetSystem``'s.
    """

    blocks: tuple[CanonicalBlock, ...]
    gamma: float
    Lambda: np.ndarray = field(init=False)
    sigma: float = field(init=False)

    def __post_init__(self):
        blocks = tuple(self.blocks)
        if not blocks:
            raise ValueError("need at least one block")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "Lambda", np.diag(
            [self.gamma * b.modulus for b in blocks for _ in range(b.dim)]))
        # the max-norm of a planar rotation is |cos| + |sin| <= sqrt(2)
        rotates = any(b.kind == "rotation" for b in blocks)
        object.__setattr__(self, "sigma", 2.0 * (math.sqrt(2.0) if rotates else 1.0))

    def R(self, k: int) -> np.ndarray:
        if k < 0:
            raise ValueError("frame index must be nonnegative")
        return _blockdiag([b.r_block(k) for b in self.blocks])

    def S(self, k: int) -> np.ndarray:
        """Inverse frame ``R(k).T``: every block of ``R(k)`` is ``+-1`` or a rotation.

        Returned C-contiguous, like ``R(k)``, so products with it sum in the same order.
        """
        return np.ascontiguousarray(self.R(k).T)

    def frame_norms(self, ks) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized ``(||R_k||, ||inv(R_k)||)`` for an array of indices.

        The two are equal: every block of ``R_k`` is ``+-1`` or a rotation,
        so ``inv(R_k) = R_k.T`` has the same max-norm.
        """
        ks = np.asarray(ks, dtype=float)
        norm = np.zeros_like(ks)
        for b in self.blocks:
            # a real block has theta = 0, so its term is exactly 1
            norm = np.maximum(norm, np.abs(np.cos(ks * b.theta)) + np.abs(np.sin(ks * b.theta)))
        return norm, norm


def build_coord_change(blocks, gamma: float) -> CoordChangeSeq:
    """Assemble the frame sequence for the given blocks and gain."""
    return CoordChangeSeq(blocks=blocks, gamma=gamma)


def assemble_target_matrix(blocks, gamma: float) -> np.ndarray:
    """The scaled target matrix ``gamma * blockdiag(...)`` these frames expect."""
    return gamma * _blockdiag([b.a_block() for b in blocks])


def _blockdiag(mats) -> np.ndarray:
    n = sum(m.shape[0] for m in mats)
    out = np.zeros((n, n))
    i = 0
    for m in mats:
        d = m.shape[0]
        out[i:i + d, i:i + d] = m
        i += d
    return out
