"""Randomized pair sampling behind the Lipschitz-type constant estimators.

The estimators combine two pair populations over a box:

* independent uniform pairs, which probe ratios between distant points, and
* short probes ``(x, x + delta * s)`` with sign vectors ``s in {-1,+1}^dim``,
  which attain the induced max-norm of the local Jacobian of a smooth map
  (exactly so for linear maps).

Both populations are generated from separate child streams of one seed, and
a larger ``samples`` budget extends each stream, so the sampled extremum is
monotone under growing sample sets. The descended minimum of minimize mode is
not: a larger budget can start the descent from other candidates and end
higher (on the oscillator's transform at gamma 1, seed 1, 400 samples give
0.0039 and 800 give 0.022).

Both populations stream through ``fn`` in chunks of at most ``_CHUNK`` rows,
keeping only a running extremum and each pool piece's best descent
candidates, so memory is set by the chunk, not the budget. The result is
bit-equal to one pass over all rows.
"""

from __future__ import annotations

from functools import reduce
from itertools import product

import numpy as np

from .intervals import Box

_PROBE_SCALE = 1e-4
_MAX_PATTERNS = 64
_CHUNK = 8192


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

    extremum = np.min if minimize else np.max
    found = []  # each chunk's extremum; NaN propagates through the final one
    # minimize mode: each pool piece's best pairs so far, the uniform pairs
    # first, then one piece per sign pattern
    best = [None] * (1 + len(patterns))

    def take(piece, a, b, r):
        if r.size:
            found.append(extremum(r))
        if minimize:
            if best[piece] is not None:
                a, b, r = (np.concatenate(p) for p in zip(best[piece], (a, b, r)))
            keep = _smallest_k(r, _REFINE_CANDIDATES)
            best[piece] = (a[keep], b[keep], r[keep])

    # sequential draws continue one stream, so prefixes stay stable as the
    # budget grows and the chunking does not change the pairs
    for n in _chunk_sizes(n_global):
        pairs = g_global.uniform(box.lo, box.hi, size=(n, 2, box.dim))
        a, b = pairs[:, 0, :], pairs[:, 1, :]
        dx = _gap(a, b)
        df = _gap(_eval(fn, a), _eval(fn, b))
        mask = dx > 1e-300
        take(0, a[mask], b[mask], df[mask] / dx[mask])

    for n in _chunk_sizes(n_local):
        pts = box.sample(g_local, n)
        f_pts = _eval(fn, pts)
        for piece, s in enumerate(patterns, 1):
            probed = pts + delta * s
            take(piece, probed, pts, _gap(_eval(fn, probed), f_pts) / delta)

    result = float(extremum(found))
    if not minimize:
        return result
    return min(result, _descend_ratio(fn, box, best))


def _chunk_sizes(n: int) -> list[int]:
    """Row counts of ``ceil(n / _CHUNK)`` nearly equal chunks of ``n`` rows.

    No chunk has one row unless ``n`` is one: a one-row batch goes to BLAS
    gemv in a polynomial ``eval_T`` and rounds differently from a batch.
    """
    count = -(-n // _CHUNK)
    size, extra = divmod(n, count)
    return [size + 1] * extra + [size] * (count - extra)


_REFINE_CANDIDATES = 16
_REFINE_ITERS = 60


def _descend_ratio(fn, box: Box, pair_pool) -> float:
    """Pattern-search descent of the pair-ratio field from the best candidates.

    The candidates are held as one ``(n, 2, dim)`` array of pairs with their
    ``(n, 2, out_dim)`` values of ``fn``; a trial moves one side of every
    pair, so it evaluates only that side.
    """
    a, b, current = _best_pairs(pair_pool, _REFINE_CANDIDATES)
    pairs = np.stack([a, b], axis=1)
    values = np.stack([_eval(fn, a), _eval(fn, b)], axis=1)

    dim = box.dim
    moves = np.concatenate([sign_patterns(dim), np.eye(dim), -np.eye(dim)])
    step = 0.05 * float(np.max(box.width))
    for _ in range(_REFINE_ITERS):
        improved = np.zeros(len(pairs), dtype=bool)
        for side, other in ((0, 1), (1, 0)):
            for mv in moves:
                trial = box.clamp(pairs[:, side] + step * mv)
                f_trial = _eval(fn, trial)
                dx = _gap(trial, pairs[:, other])
                ok = dx > 1e-12
                r = np.where(ok, _gap(f_trial, values[:, other]) / np.where(ok, dx, 1.0), np.inf)
                accept = r < current
                pairs[accept, side], values[accept, side] = trial[accept], f_trial[accept]
                current = np.where(accept, r, current)
                improved |= accept
        if not np.any(improved):
            step *= 0.5
            if step < 1e-9 * float(np.max(box.width)):
                break
    return float(np.min(current))


def _best_pairs(pair_pool, k: int):
    """The ``k`` lowest-ratio pairs of the pool, ties in pool order.

    The sampler keeps only each piece's best ``k`` pairs, so the stable sort
    of the concatenated pool is a sort of a few dozen ratios.
    """
    r = np.concatenate([r for _, _, r in pair_pool])
    order = np.argsort(r, kind="stable")[:k]
    a = np.concatenate([a for a, _, _ in pair_pool])[order]
    b = np.concatenate([b for _, b, _ in pair_pool])[order]
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
    """Max-abs difference over the last axis, as a column-wise maximum.

    Exact in any order, and far faster than ``np.max(..., axis=-1)`` over a
    last axis only a few entries long; NaN propagates the same way.
    """
    return reduce(np.maximum, np.moveaxis(np.abs(fa - fb), -1, 0))
