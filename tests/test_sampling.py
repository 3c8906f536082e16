import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kklio import Box, KklTransform, eval_T
from kklio import sampling
from kklio.presets import build_oscillator
from kklio.sampling import (_CHUNK, _PROBE_SCALE, _REFINE_CANDIDATES, _REFINE_ITERS, _best_pairs,
                            _chunk_sizes, _descend_ratio, _smallest_k, pair_ratio_extremum,
                            sign_patterns)
from kklio.transform import estimate_forward_lipschitz, estimate_injectivity

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


def _one_pass(fn, box, samples, seed, minimize=False):
    """The sampler as one pass: every pair, value and ratio alive at once.

    Returns the result and the pool that the descent starts from (``None``
    in maximize mode).
    """
    g_global, g_local = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    patterns = sign_patterns(box.dim)
    n_global = samples // 2
    n_local = max(1, (samples - n_global) // len(patterns))
    delta = _PROBE_SCALE * float(np.max(box.width))
    pairs = g_global.uniform(box.lo, box.hi, size=(n_global, 2, box.dim))
    a, b = pairs[:, 0, :], pairs[:, 1, :]
    dx = np.max(np.abs(a - b), axis=-1)
    mask = dx > 1e-300
    pool = [(a[mask], b[mask], _gap(fn, a, b)[mask] / dx[mask])]
    pts = box.sample(g_local, n_local)
    for s in patterns:
        probed = pts + delta * s
        pool.append((probed, pts, _gap(fn, probed, pts) / delta))
    ratios = np.concatenate([r for _, _, r in pool])
    if not minimize:
        return float(np.max(ratios)), None
    return min(float(np.min(ratios)), _descend_ratio(fn, box, pool)), pool


def _streamed(monkeypatch, fn, box, samples, seed, minimize):
    """The sampler's result and the pool its descent starts from."""
    seen = []

    def descend(fn, box, pool):
        seen.append(pool)
        return _descend_ratio(fn, box, pool)

    monkeypatch.setattr(sampling, "_descend_ratio", descend)
    result = pair_ratio_extremum(fn, box, samples, seed, minimize=minimize)
    return result, (seen[0] if seen else None)


def _assert_same_candidates(pool, oracle_pool):
    if oracle_pool is None:
        assert pool is None
        return
    got, want = _best_pairs(pool, _REFINE_CANDIDATES), _best_pairs(oracle_pool, _REFINE_CANDIDATES)
    for g, w in zip(got, want):
        assert np.array_equal(g, w, equal_nan=True)


def _nan_on_part(x):
    # only the second output is NaN, so a max over outputs that skipped NaN
    # would still see the first
    y = x * x
    y[..., 1] = np.where(x[..., 0] > 0.5, np.nan, y[..., 1])
    return y


def _scale_by_two(x):
    return 2.0 * x


# width 625/512 makes the probe step exactly 2**-13, so on [1, 1 + 625/512]^2
# every probe of 2x lands on an exact double: all ratios of the linear map
# tie at exactly 2, and the descent candidates are picked by pool order alone
_TIE_BOX = Box([1.0, 1.0], [1.0 + 625 / 512, 1.0 + 625 / 512])
_UNIT_BOX = Box([-1.0, -1.0], [1.0, 1.0])


@pytest.mark.parametrize("minimize", [False, True])
@pytest.mark.parametrize("fn, box", [(_scale_by_two, _TIE_BOX), (_nan_on_part, _UNIT_BOX)],
                         ids=["tied-linear", "nan-on-part"])
@pytest.mark.parametrize("samples", [2, 3, 20, 33, 34, 35, 100, 401])
def test_streamed_sampler_equals_one_pass(monkeypatch, fn, box, samples, minimize):
    # chunks of 16 rows: 2-20 samples stay below one chunk, 33-35 give a
    # global pass of one chunk plus one row (17 rows), 100 and 401 are
    # non-multiples of the chunk
    monkeypatch.setattr(sampling, "_CHUNK", 16)
    want, oracle_pool = _one_pass(fn, box, samples, seed=4, minimize=minimize)
    got, pool = _streamed(monkeypatch, fn, box, samples, seed=4, minimize=minimize)
    assert repr(got) == repr(want)
    _assert_same_candidates(pool, oracle_pool)


def test_tie_box_ratios_tie_exactly():
    _, pool = _one_pass(_scale_by_two, _TIE_BOX, 200, seed=4, minimize=True)
    assert np.all(np.concatenate([r for _, _, r in pool]) == 2.0)


def test_nan_on_part_propagates():
    assert np.isnan(pair_ratio_extremum(_nan_on_part, _UNIT_BOX, 200, seed=4))
    assert np.isnan(pair_ratio_extremum(_nan_on_part, _UNIT_BOX, 200, seed=4, minimize=True))


@pytest.mark.parametrize("minimize", [False, True])
def test_streamed_sampler_equals_one_pass_polynomial_T(monkeypatch, minimize):
    # two global chunks at the default size, the second one row longer than
    # a naive split would leave it: a one-row eval_T rounds differently
    osc = build_oscillator(gamma=1.0)
    box = osc.plant.box_x_enlarged

    def fn(x):
        return eval_T(osc.transform, x)

    samples = 2 * (_CHUNK + 1)
    want, oracle_pool = _one_pass(fn, box, samples, seed=8, minimize=minimize)
    got, pool = _streamed(monkeypatch, fn, box, samples, seed=8, minimize=minimize)
    assert repr(got) == repr(want)
    _assert_same_candidates(pool, oracle_pool)


@settings(max_examples=300, deadline=None)
@given(n=st.one_of(st.integers(1, 4 * _CHUNK), st.integers(1, 10**7)))
def test_chunk_sizes_split_evenly(n):
    sizes = _chunk_sizes(n)
    assert sum(sizes) == n
    assert len(sizes) == -(-n // _CHUNK)
    assert max(sizes) <= _CHUNK
    assert max(sizes) - min(sizes) <= 1
    assert min(sizes) >= min(n, 2)


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_injectivity_memory_bounded_by_chunk():
    t = build_oscillator(gamma=1.0).transform
    # one pass over all rows peaks at 32 MiB here
    assert _traced_peak(lambda: estimate_injectivity(t, samples=400000)) < 4 * 2**20


def test_series_sampler_memory_does_not_grow_with_budget():
    osc = build_oscillator(gamma=1.0)
    t = KklTransform(osc.target, osc.plant)
    peak_40k = _traced_peak(lambda: estimate_forward_lipschitz(t, samples=40000))
    peak_160k = _traced_peak(lambda: estimate_forward_lipschitz(t, samples=160000))
    # the largest chunk has 6667 rows at 40k samples and 8000 rows at 160k;
    # one pass over all rows grows 4x (22.6 -> 90.3 MiB)
    assert peak_160k < 1.5 * peak_40k
