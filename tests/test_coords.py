import math

import numpy as np
import pytest

from kklio import CanonicalBlock, CoordChangeSeq, assemble_target_matrix, build_coord_change


def test_negative_real_block():
    seq = build_coord_change([CanonicalBlock.negative_real(-0.5)], gamma=1.0)
    np.testing.assert_array_equal(seq.Lambda, [[0.5]])
    assert seq.sigma == 2.0
    a = assemble_target_matrix(seq.blocks, 1.0)
    for k in range(6):
        prod = seq.R(k + 1) @ a @ np.linalg.inv(seq.R(k))
        np.testing.assert_allclose(prod, seq.Lambda, atol=1e-15)


def test_diagonal_positive_blocks_identity_frames():
    blocks = [CanonicalBlock.positive_real(l) for l in (0.1, 0.2, 0.3, 0.4)]
    seq = build_coord_change(blocks, gamma=0.7)
    np.testing.assert_array_equal(seq.Lambda, 0.7 * np.diag([0.1, 0.2, 0.3, 0.4]))
    for k in (0, 1, 5, 117):
        np.testing.assert_array_equal(seq.R(k), np.eye(4))
        np.testing.assert_array_equal(seq.S(k), np.eye(4))


def test_rotation_block():
    seq = build_coord_change([CanonicalBlock.rotation(0.9, math.pi / 3)], gamma=1.0)
    np.testing.assert_allclose(seq.Lambda, 0.9 * np.eye(2), atol=1e-15)
    a = assemble_target_matrix(seq.blocks, 1.0)
    for k in range(6):
        prod = seq.R(k + 1) @ a @ np.linalg.inv(seq.R(k))
        np.testing.assert_allclose(prod, seq.Lambda, atol=1e-12)
    # orthogonality
    for k in (1, 3, 10):
        np.testing.assert_allclose(seq.R(k) @ seq.R(k).T, np.eye(2), atol=1e-14)


def test_rotation_frame_closed_form():
    seq = build_coord_change([CanonicalBlock.rotation(0.9, math.pi / 2)], gamma=1.0)
    c, s = math.cos(math.pi / 2), math.sin(math.pi / 2)
    np.testing.assert_allclose(seq.R(1), [[c, s], [-s, c]], atol=1e-15)
    np.testing.assert_allclose(seq.S(1), [[c, -s], [s, c]], atol=1e-15)


def test_mixed_blocks_constancy_and_bounds():
    blocks = [
        CanonicalBlock.negative_real(-0.5),
        CanonicalBlock.rotation(0.9, math.pi / 3),
        CanonicalBlock.positive_real(0.3),
    ]
    seq = build_coord_change(blocks, gamma=0.95)
    a = assemble_target_matrix(blocks, 0.95)
    for k in range(51):
        prod = seq.R(k + 1) @ a @ np.linalg.inv(seq.R(k))
        assert np.max(np.abs(prod - seq.Lambda)) <= 1e-12
    assert np.all(seq.Lambda >= 0.0)
    assert np.max(np.abs(np.linalg.eigvals(seq.Lambda))) < 1.0
    ks = np.arange(10001)
    fwd, inv = seq.frame_norms(ks)
    assert np.all(fwd + inv <= seq.sigma + 1e-12)
    # frame_norms agrees with assembled matrices
    for k in (0, 1, 7, 9999):
        assert fwd[k] == pytest.approx(np.abs(seq.R(k)).sum(axis=1).max(), abs=1e-12)
        assert inv[k] == pytest.approx(np.abs(seq.S(k)).sum(axis=1).max(), abs=1e-12)


def test_r_s_inverse_identity():
    blocks = [CanonicalBlock.negative_real(-0.7), CanonicalBlock.rotation(0.8, 1.1)]
    seq = build_coord_change(blocks, gamma=1.0)
    for k in (0, 1, 2, 13, 1001):
        np.testing.assert_allclose(seq.R(k) @ seq.S(k), np.eye(3), atol=1e-12)


def test_frame_split_identity():
    from kklio import split_neg, split_pos
    blocks = [CanonicalBlock.negative_real(-0.5), CanonicalBlock.rotation(0.9, 0.7)]
    seq = build_coord_change(blocks, gamma=1.0)
    for k in (0, 1, 5, 42):
        s = seq.S(k)
        assert np.array_equal(split_pos(s) - split_neg(s), s)


def test_non_schur_rejected():
    with pytest.raises(ValueError):
        CanonicalBlock.positive_real(1.0)
    with pytest.raises(ValueError):
        CanonicalBlock.rotation(1.2, 0.3)
    with pytest.raises(ValueError):
        build_coord_change([CanonicalBlock.positive_real(0.99)], gamma=1.02)


def test_negative_real_even_odd_frames():
    b = CanonicalBlock.negative_real(-0.5)
    assert b.r_block(3)[0, 0] == -1.0
    assert b.r_block(4)[0, 0] == 1.0


def test_frames_derive_lambda_and_sigma():
    # the observer propagates with Lambda, and one that is not the blocks' own
    # lets the true z leave its bounds, so it cannot be passed in
    blocks = (CanonicalBlock.positive_real(0.5), CanonicalBlock.rotation(0.9, 0.7))
    seq = CoordChangeSeq(blocks=blocks, gamma=0.9)
    np.testing.assert_array_equal(seq.Lambda, build_coord_change(blocks, 0.9).Lambda)
    with pytest.raises(TypeError):
        CoordChangeSeq(blocks=blocks, gamma=0.9, Lambda=0.5 * seq.Lambda, sigma=seq.sigma)
    with pytest.raises(ValueError, match=r"gamma must lie in \(0, 1\]"):
        CoordChangeSeq(blocks=blocks, gamma=1.2)


@pytest.mark.parametrize("kind, kwargs, match", [
    ("spiral", {}, "unknown block kind"),
    ("positive_real", {"lam": -0.1}, "lam >= 0"),
    ("negative_real", {"lam": 0.0}, "lam < 0"),
    ("rotation", {"rho": 0.0, "theta": 0.3}, "rho > 0"),
    ("rotation", {"rho": 0.5, "theta": 0.3, "lam": 7.0}, "rotation block takes no lam"),
    ("positive_real", {"lam": 0.5, "rho": 0.5}, "positive_real block takes no rho"),
    ("negative_real", {"lam": -0.5, "theta": 0.3}, "negative_real block takes no theta"),
    ("positive_real", {"lam": 0.5, "theta": float("nan")}, "positive_real block takes no theta"),
])
def test_block_refuses_parameters_outside_its_kind(kind, kwargs, match):
    with pytest.raises(ValueError, match=match):
        CanonicalBlock(kind, **kwargs)
