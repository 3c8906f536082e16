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
    ``(..., out_dim)``, as the plant maps, ``eval_T`` and the
    distinguishability map do. Norms are max-abs.

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

    pair_pool = []

    if n_global:
        # one draw per pair keeps prefixes stable as the budget grows
        pairs = g_global.uniform(box.lo, box.hi, size=(n_global, 2, box.dim))
        a, b = pairs[:, 0, :], pairs[:, 1, :]
        dx = np.max(np.abs(a - b), axis=-1)
        df = _gap(_eval(fn, a), _eval(fn, b))
        mask = dx > 1e-300
        pair_pool.append((a[mask], b[mask], df[mask] / dx[mask]))

    pts = box.sample(g_local, n_local)
    f_pts = _eval(fn, pts)
    for s in patterns:
        probed = pts + delta * s
        df = _gap(_eval(fn, probed), f_pts)
        pair_pool.append((probed, pts, df / delta))

    all_ratios = np.concatenate([r for _, _, r in pair_pool])
    if not minimize:
        return float(np.max(all_ratios))
    best = float(np.min(all_ratios))
    return min(best, _descend_ratio(fn, box, pair_pool))


_REFINE_CANDIDATES = 16
_REFINE_ITERS = 60


def _descend_ratio(fn, box: Box, pair_pool) -> float:
    """Pattern-search descent of the pair-ratio field from the best candidates.

    ``fn`` values of the current pairs are kept alongside them, so each trial
    evaluates only the side that moved.
    """
    a, b, current = _best_pairs(pair_pool, _REFINE_CANDIDATES)
    fa, fb = _eval(fn, a), _eval(fn, b)

    dim = box.dim
    moves = np.concatenate([sign_patterns(dim), np.eye(dim), -np.eye(dim)])
    step = 0.05 * float(np.max(box.width))
    n_c = a.shape[0]
    for _ in range(_REFINE_ITERS):
        improved = np.zeros(n_c, dtype=bool)
        for move_a in (True, False):
            for mv in moves:
                if move_a:
                    ta, tb = box.clamp(a + step * mv), b
                    fta, ftb = _eval(fn, ta), fb
                else:
                    ta, tb = a, box.clamp(b + step * mv)
                    fta, ftb = fa, _eval(fn, tb)
                dx = np.max(np.abs(ta - tb), axis=-1)
                ok = dx > 1e-12
                r = np.where(ok, _gap(fta, ftb) / np.where(ok, dx, 1.0), np.inf)
                accept = r < current
                a = np.where(accept[:, None], ta, a)
                b = np.where(accept[:, None], tb, b)
                fa = np.where(accept[:, None], fta, fa)
                fb = np.where(accept[:, None], ftb, fb)
                current = np.where(accept, r, current)
                improved |= accept
        if not np.any(improved):
            step *= 0.5
            if step < 1e-9 * float(np.max(box.width)):
                break
    return float(np.min(current))


def _best_pairs(pair_pool, k: int):
    """The ``k`` lowest-ratio pairs of the pool, ties in pool order.

    Equal to a stable sort of the concatenated pool, but only each piece's
    own best ``k`` are gathered: a pair among the best ``k`` overall is among
    the best ``k`` of its piece, and the gathered candidates keep pool order.
    """
    picks = [(a, b, r, _smallest_k(r, k)) for a, b, r in pair_pool]
    r = np.concatenate([r[i] for _, _, r, i in picks])
    order = np.argsort(r, kind="stable")[:k]
    a = np.concatenate([a[i] for a, _, _, i in picks])[order]
    b = np.concatenate([b[i] for _, b, _, i in picks])[order]
    return a, b, r[order]


def _smallest_k(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` smallest values, equal to ``np.argsort(values, kind="stable")[:k]``.

    A partition finds the k-th smallest value; only the values up to it are
    stably sorted, so ties at the cut keep their index order. ``~(v > cut)``
    also keeps NaNs (which sort last), so a NaN cut degrades to a full sort.
    """
    values = np.asarray(values)
    if values.shape[0] <= k:
        return np.argsort(values, kind="stable")
    cut = values[np.argpartition(values, k - 1)[k - 1]]
    candidates = np.flatnonzero(~(values > cut))
    return candidates[np.argsort(values[candidates], kind="stable")[:k]]


def _eval(fn, x) -> np.ndarray:
    return np.asarray(fn(x), dtype=float)


def _gap(fa, fb):
    return np.max(np.abs(fa - fb), axis=-1)
