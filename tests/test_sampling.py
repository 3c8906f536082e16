import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kklio import Box, eval_T
from kklio.presets import build_oscillator
from kklio.sampling import (_REFINE_CANDIDATES, _REFINE_ITERS, _best_pairs, _descend_ratio,
                            _smallest_k, pair_ratio_extremum, sign_patterns)

# few distinct values, so that most cuts fall inside a run of ties
_TIED = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, np.inf, np.nan])


@settings(max_examples=300, deadline=None)
@given(values=arrays(np.float64, st.integers(0, 200),
                     elements=st.one_of(_TIED, st.floats(0.0, 1.0))),
       k=st.integers(1, 40))
def test_smallest_k_equals_stable_argsort(values, k):
    expected = np.argsort(values, kind="stable")[:k]
    assert np.array_equal(_smallest_k(values, k), expected)


@settings(max_examples=200, deadline=None)
@given(pieces=st.lists(arrays(np.float64, st.integers(0, 60), elements=_TIED),
                       min_size=1, max_size=5),
       k=st.integers(1, 20))
def test_best_pairs_equals_sorted_concatenation(pieces, k):
    pool, start = [], 0
    for r in pieces:
        # the pair coordinates carry their pool position, to check the gather
        pos = np.arange(start, start + r.shape[0], dtype=float)
        pool.append((np.stack([pos, -pos], axis=-1), np.stack([pos, 2 * pos], axis=-1), r))
        start += r.shape[0]
    r_all = np.concatenate([p[2] for p in pool])
    order = np.argsort(r_all, kind="stable")[:k]
    a, b, r = _best_pairs(pool, k)
    assert np.array_equal(a, np.concatenate([p[0] for p in pool])[order])
    assert np.array_equal(b, np.concatenate([p[1] for p in pool])[order])
    assert np.array_equal(r, r_all[order], equal_nan=True)


def _gap(fn, a, b):
    return np.max(np.abs(np.asarray(fn(a), dtype=float) - np.asarray(fn(b), dtype=float)), axis=-1)


def _descend_both_sides(fn, box, pair_pool):
    """The descent as it was before it kept ``fn`` values: both sides every trial."""
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


def _pool(fn, box, seed, n=400):
    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(2):
        a, b = box.sample(rng, n), box.sample(rng, n)
        pool.append((a, b, _gap(fn, a, b) / np.max(np.abs(a - b), axis=-1)))
    return pool


def test_descend_ratio_equals_both_sides_loop_vector_fn():
    osc = build_oscillator(gamma=1.0)
    box = osc.plant.box_x_enlarged

    def fn(x):
        return eval_T(osc.transform, x)

    pool = _pool(fn, box, seed=3)
    assert _descend_ratio(fn, box, pool) == _descend_both_sides(fn, box, pool)


def test_sign_patterns_beyond_64_are_a_fixed_subset():
    patterns = sign_patterns(7)
    assert patterns.shape == (64, 7)
    assert np.all(np.abs(patterns) == 1.0)
    assert np.array_equal(patterns, sign_patterns(7))


def test_local_probes_evaluate_base_points_once():
    box = Box([-1.0, -1.0], [1.0, 1.0])
    calls = []

    def fn(x):
        calls.append(x.shape[0])
        return x * x

    pair_ratio_extremum(fn, box, samples=1000, seed=0)
    # global pairs: both sides; local probes: the base points once, then
    # one call per sign pattern
    assert len(calls) == 2 + 1 + len(sign_patterns(2))
