"""Randomized pair sampling behind the Lipschitz-type constant estimators.

The estimators combine two pair populations over a box:

* independent uniform pairs, which probe ratios between distant points, and
* short probes ``(x, x + delta * s)`` with sign vectors ``s in {-1,+1}^dim``,
  which attain the induced max-norm of the local Jacobian of a smooth map
  (exactly so for linear maps).

Both populations are generated from separate child streams of one seed, and
a larger ``samples`` budget extends each stream, so estimates are monotone
under growing sample sets.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .intervals import Box

_PROBE_SCALE = 1e-4
_MAX_PATTERNS = 64


def sign_patterns(dim: int) -> np.ndarray:
    """All sign vectors in ``{-1,+1}^dim`` (a fixed random subset beyond 64)."""
    if 2**dim <= _MAX_PATTERNS:
        return np.array(list(product((-1.0, 1.0), repeat=dim)))
    return np.random.default_rng(0).choice((-1.0, 1.0), size=(_MAX_PATTERNS, dim))


def pair_ratio_extremum(fn, box: Box, samples: int, seed: int, minimize: bool = False) -> float:
    """Extremal ratio ``||fn(a) - fn(b)|| / ||a - b||`` over sampled pairs in ``box``.

    ``fn`` must accept batched input of shape ``(..., dim)`` and return
    ``(..., out_dim)`` (or scalar per point). Norms are max-abs.

    In minimize mode the best sampled pairs additionally seed a pattern-search
    descent on the ratio field: pure sampling under-explores the narrow
    pockets where injectivity-type ratios bottom out. Every refined value is
    the ratio of an actually evaluated pair, so the result can only move
    toward the true infimum, never below it.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    if np.any(box.width <= 0.0):
        raise ValueError("degenerate box: zero width along some axis")

    root = np.random.SeedSequence(seed)
    g_global, g_local = (np.random.default_rng(s) for s in root.spawn(2))

    patterns = sign_patterns(box.dim)
    n_global = samples // 2
    n_local = max(1, (samples - n_global) // len(patterns))
    delta = _PROBE_SCALE * float(np.max(box.width))

    ratios = []
    pair_pool = []

    if n_global:
        # one draw per pair keeps prefixes stable as the budget grows
        pairs = g_global.uniform(box.lo, box.hi, size=(n_global, 2, box.dim))
        a, b = pairs[:, 0, :], pairs[:, 1, :]
        dx = np.max(np.abs(a - b), axis=-1)
        df = _gap(fn, a, b)
        mask = dx > 1e-300
        ratios.append(df[mask] / dx[mask])
        pair_pool.append((a[mask], b[mask], ratios[-1]))

    pts = box.sample(g_local, n_local)
    for s in patterns:
        probed = pts + delta * s
        df = _gap(fn, probed, pts)
        ratios.append(df / delta)
        pair_pool.append((probed, pts, ratios[-1]))

    all_ratios = np.concatenate(ratios)
    if not minimize:
        return float(np.max(all_ratios))
    best = float(np.min(all_ratios))
    return min(best, _descend_ratio(fn, box, pair_pool))


_REFINE_CANDIDATES = 16
_REFINE_ITERS = 60


def _descend_ratio(fn, box: Box, pair_pool) -> float:
    """Pattern-search descent of the pair-ratio field from the best candidates."""
    a_all = np.concatenate([p[0] for p in pair_pool])
    b_all = np.concatenate([p[1] for p in pair_pool])
    r_all = np.concatenate([p[2] for p in pair_pool])
    order = np.argsort(r_all, kind="stable")[:_REFINE_CANDIDATES]
    a, b = a_all[order], b_all[order]
    current = r_all[order]

    dim = box.dim
    moves = np.concatenate([sign_patterns(dim), np.eye(dim), -np.eye(dim)])
    step = 0.05 * float(np.max(box.width))
    n_c = a.shape[0]
    for _ in range(_REFINE_ITERS):
        improved = np.zeros(n_c, dtype=bool)
        for move_a in (True, False):
            for mv in moves:
                ta = box.clamp(a + step * mv) if move_a else a
                tb = b if move_a else box.clamp(b + step * mv)
                dx = np.max(np.abs(ta - tb), axis=-1)
                ok = dx > 1e-12
                r = np.where(ok, _gap(fn, ta, tb) / np.where(ok, dx, 1.0), np.inf)
                accept = r < current
                a = np.where(accept[:, None], ta, a)
                b = np.where(accept[:, None], tb, b)
                current = np.where(accept, r, current)
                improved |= accept
        if not np.any(improved):
            step *= 0.5
            if step < 1e-9 * float(np.max(box.width)):
                break
    return float(np.min(current))


def _gap(fn, a, b):
    fa = np.asarray(fn(a), dtype=float)
    fb = np.asarray(fn(b), dtype=float)
    if fa.ndim == 1:
        return np.abs(fa - fb)
    return np.max(np.abs(fa - fb), axis=-1)
