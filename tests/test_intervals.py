import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kklio import Box, inf_norm, interval_image, mat_inf_norm, split_neg, split_pos

finite_mats = arrays(
    np.float64,
    st.tuples(st.integers(1, 5), st.integers(1, 5)),
    elements=st.floats(-1e6, 1e6, allow_nan=False),
)


def test_split_pos_examples():
    np.testing.assert_array_equal(split_pos([[1, -2], [0, 3]]), [[1, 0], [0, 3]])
    np.testing.assert_array_equal(split_pos(np.zeros((2, 2))), np.zeros((2, 2)))
    np.testing.assert_array_equal(split_pos([[-0.5]]), [[0.0]])


def test_split_neg_examples():
    np.testing.assert_array_equal(split_neg([[1, -2], [0, 3]]), [[0, 2], [0, 0]])
    np.testing.assert_array_equal(split_neg(np.eye(3)), np.zeros((3, 3)))
    np.testing.assert_array_equal(split_neg([[-0.5]]), [[0.5]])


@given(finite_mats)
@settings(max_examples=200, deadline=None)
def test_split_identity_exact(m):
    p, n = split_pos(m), split_neg(m)
    assert np.array_equal(p - n, m)
    assert np.all(p >= 0) and np.all(n >= 0)
    assert np.all(p >= m)


def test_interval_image_identity():
    lo, hi = interval_image(np.eye(2), [-1.0, 0.0], [1.0, 2.0])
    np.testing.assert_array_equal(lo, [-1.0, 0.0])
    np.testing.assert_array_equal(hi, [1.0, 2.0])


def test_interval_image_sign_flip():
    lo, hi = interval_image([[-1.0]], [2.0], [3.0])
    np.testing.assert_array_equal(lo, [-3.0])
    np.testing.assert_array_equal(hi, [-2.0])


def test_interval_image_containment_bulk():
    # sampling oracle: every point of the box must land inside the image bounds
    rng = np.random.default_rng(42)
    n_cases = 10000
    m = rng.normal(size=(n_cases, 4, 4)) * 3.0
    a_lo = rng.uniform(-5, 0, size=(n_cases, 4))
    a_hi = a_lo + rng.uniform(0, 5, size=(n_cases, 4))
    a = a_lo + rng.uniform(0, 1, size=(n_cases, 4)) * (a_hi - a_lo)
    p = np.maximum(m, 0.0)
    n = np.maximum(-m, 0.0)
    lo = np.einsum("kij,kj->ki", p, a_lo) - np.einsum("kij,kj->ki", n, a_hi)
    hi = np.einsum("kij,kj->ki", p, a_hi) - np.einsum("kij,kj->ki", n, a_lo)
    ma = np.einsum("kij,kj->ki", m, a)
    assert np.all(lo <= ma) and np.all(ma <= hi)


def test_interval_image_degenerate_box():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(4, 4))
    a = rng.normal(size=4)
    lo, hi = interval_image(m, a, a)
    assert np.array_equal(lo, hi)
    np.testing.assert_allclose(lo, m @ a, rtol=0, atol=1e-12)


def test_interval_image_dimension_mismatch():
    with pytest.raises(ValueError):
        interval_image(np.eye(2), [1.0, 2.0, 3.0], [2.0, 3.0, 4.0])


@st.composite
def row_boxes(draw):
    m = draw(finite_mats)
    s = draw(st.integers(1, 6))
    corner = arrays(np.float64, (s, m.shape[1]), elements=st.floats(-1e6, 1e6))
    a, b = draw(corner), draw(corner)
    return m, np.minimum(a, b), np.maximum(a, b)


@given(row_boxes())
@settings(max_examples=200, deadline=None)
def test_interval_image_of_a_batch_is_the_image_of_each_row(case):
    # a batch maps row by row as one product, which BLAS may round
    # differently from the vector call; a lone row, or one column, cannot
    m, a_lo, a_hi = case
    lo, hi = interval_image(m, a_lo, a_hi)
    assert lo.shape == hi.shape == (len(a_lo), m.shape[0])
    mag = np.maximum(np.abs(a_lo), np.abs(a_hi)) @ np.abs(m).T
    tol = 4.0 * m.shape[1] * np.finfo(float).eps * mag
    exact = len(a_lo) == 1 or m.shape[1] == 1
    for row in range(len(a_lo)):
        v_lo, v_hi = interval_image(m, a_lo[row], a_hi[row])
        if exact:
            assert np.array_equal(lo[row], v_lo) and np.array_equal(hi[row], v_hi)
        assert np.all(np.abs(lo[row] - v_lo) <= tol[row])
        assert np.all(np.abs(hi[row] - v_hi) <= tol[row])


@pytest.mark.parametrize("a_lo,a_hi", [
    (np.zeros((3, 2)), np.zeros((2, 2))),
    (np.zeros((3, 3)), np.zeros((3, 3))),
    (np.zeros((3, 2)), np.zeros(2)),
    (np.zeros((1, 3, 2)), np.zeros((1, 3, 2))),
], ids=["rows", "columns", "mixed", "3-d"])
def test_interval_image_batch_shape_mismatch(a_lo, a_hi):
    with pytest.raises(ValueError, match="shape mismatch"):
        interval_image(np.eye(2), a_lo, a_hi)


@pytest.mark.parametrize(
    "v,expected",
    [([1, -3, 2], 3.0), ([0, 0], 0.0), ([-0.2], 0.2)],
)
def test_inf_norm(v, expected):
    assert inf_norm(v) == expected


def test_inf_norm_zero_iff_zero_vector():
    rng = np.random.default_rng(11)
    for _ in range(50):
        v = rng.normal(size=4)
        assert (inf_norm(v) == 0.0) == bool(np.all(v == 0.0))


def test_mat_inf_norm_is_max_row_sum():
    m = np.array([[1.0, -2.0], [0.5, 0.25]])
    assert mat_inf_norm(m) == 3.0


def test_box_validation_and_ops():
    b = Box([-1.0, 0.0], [1.0, 2.0])
    assert b.dim == 2
    assert b.contains([0.0, 1.0])
    assert not b.contains([0.0, 2.5])
    np.testing.assert_array_equal(b.clamp([5.0, -5.0]), [1.0, 0.0])
    assert b.contains_box(Box([-0.5, 0.5], [0.5, 1.5]))
    with pytest.raises(ValueError):
        Box([1.0], [0.0])
    with pytest.raises(ValueError):
        Box([0.0, np.inf], [1.0, 2.0])
