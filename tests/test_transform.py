import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kklio import (Box, CanonicalBlock, ClosedFormConstants, InverseConfig, KklTransform,
                   PlantModel, SystemConstants, TargetSystem, estimate_forward_lipschitz,
                   estimate_injectivity, eval_T, eval_T_poly, eval_T_series, gamma_star, invert_T,
                   make_polynomial_transform, make_series_transform, solve_poly_T,
                   transform_residual)
from kklio.presets import (POLY_BASIS, build_oscillator, closed_form_constants,
                           make_oscillator_plant)


def unit_consts():
    return ClosedFormConstants(c_f=1.0, c_h=1.0, c_o=1.0, c_c=1.0)


def real_target(lams, b, gamma):
    """One output channel of positive real blocks with the eigenvalues ``lams``."""
    return TargetSystem(channels=(([CanonicalBlock.positive_real(l) for l in lams], b),),
                        gamma=gamma)


def single_block_target(lam=0.5, gamma=0.5):
    return real_target((lam,), [1.0], gamma)


def two_channel_target(gamma):
    """Two output channels, of the positive real blocks (0.3, 0.5) and (0.4,)."""
    blocks = lambda lams: tuple(CanonicalBlock.positive_real(l) for l in lams)
    return TargetSystem(channels=((blocks((0.3, 0.5)), [1.0, 1.0]), (blocks((0.4,)), [1.0])),
                        gamma=gamma)


def linear_plant(f_mat, h_mat, lo=-2.0, hi=2.0, enlarge=1.0):
    f_mat = np.asarray(f_mat, dtype=float)
    h_mat = np.atleast_2d(np.asarray(h_mat, dtype=float))
    f_inv_mat = np.linalg.inv(f_mat)
    n = f_mat.shape[0]
    return PlantModel(
        n_x=n, n_y=h_mat.shape[0],
        f=lambda x: np.asarray(x, float) @ f_mat.T,
        f_inv=lambda x: np.asarray(x, float) @ f_inv_mat.T,
        h=lambda x: np.asarray(x, float) @ h_mat.T,
        box_x=Box([lo] * n, [hi] * n),
        box_x0=Box([lo] * n, [hi] * n),
        box_x_enlarged=Box([lo * enlarge] * n, [hi * enlarge] * n),
    )


# --- gamma_star and the constants types ------------------------------------


def test_gamma_star_hand_case():
    # min{1/0.5, 1/0.5, 1/(0.5 + 0.5)} = 1
    assert gamma_star(unit_consts(), single_block_target()) == pytest.approx(1.0)


def test_gamma_star_oscillator_regression():
    b = build_oscillator(gamma=1.0)
    consts, gs_raw = closed_form_constants(b)
    assert gs_raw == pytest.approx(7.97303902279075e-07, rel=1e-9)
    assert 0.0 < gamma_star(consts, b.target) < 1.0


_VALID = {ClosedFormConstants: dict(c_f=1.0, c_h=1.0, c_o=1.0, c_c=1.0),
          SystemConstants: dict(c_L=1.0, c_I=1.0, m=(1,))}


@pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
@pytest.mark.parametrize("cls,name", [(cls, name) for cls, kw in _VALID.items() for name in kw],
                         ids=lambda v: getattr(v, "__name__", v))
def test_constants_reject_nonpositive(cls, name, value):
    kw = dict(_VALID[cls], **{name: (value,) if name == "m" else value})
    with pytest.raises(ValueError, match=rf"\b{name} must"):
        cls(**kw)


# --- polynomial mode ---------------------------------------------------------


def test_solve_poly_identity_dynamics():
    plant = PlantModel(
        n_x=1, n_y=1,
        f=lambda x: np.asarray(x, float),
        f_inv=lambda x: np.asarray(x, float),
        h=lambda x: np.asarray(x, float),
        box_x=Box([-1.0], [1.0]), box_x0=Box([-1.0], [1.0]),
        box_x_enlarged=Box([-1.0], [1.0]),
    )
    target = single_block_target(lam=0.5, gamma=1.0)
    coeffs = solve_poly_T(plant, target, basis=((1,),))
    # T = lam*T + x  =>  T(x) = 2x
    np.testing.assert_allclose(coeffs, [[2.0]], rtol=1e-14)


def test_solve_poly_resonance_errors():
    plant = PlantModel(
        n_x=1, n_y=1,
        f=lambda x: 0.5 * np.asarray(x, float),
        f_inv=lambda x: 2.0 * np.asarray(x, float),
        h=lambda x: np.asarray(x, float),
        box_x=Box([-1.0], [1.0]), box_x0=Box([-1.0], [1.0]),
        box_x_enlarged=Box([-1.0], [1.0]),
    )
    target = single_block_target(lam=0.5, gamma=1.0)
    with pytest.raises(ValueError, match="resonant"):
        solve_poly_T(plant, target, basis=((1,),))


def test_solve_poly_near_resonance_errors():
    # a 1x1 system has condition number 1 however small it is: only a scale
    # shows that f = (0.5 + 1e-13) x resonates with lambda = 0.5
    plant = PlantModel(
        n_x=1, n_y=1,
        f=lambda x: (0.5 + 1e-13) * np.asarray(x, float),
        f_inv=lambda x: np.asarray(x, float) / (0.5 + 1e-13),
        h=lambda x: np.asarray(x, float),
        box_x=Box([-1.0], [1.0]), box_x0=Box([-1.0], [1.0]),
        box_x_enlarged=Box([-1.0], [1.0]),
    )
    target = single_block_target(lam=0.5, gamma=1.0)
    with pytest.raises(ValueError, match="resonant target eigenvalue in block 0"):
        solve_poly_T(plant, target, basis=((1,),))


def test_solve_poly_basis_not_closed():
    plant = make_oscillator_plant()
    target = build_oscillator(gamma=1.0).target
    with pytest.raises(ValueError, match="not closed"):
        solve_poly_T(plant, target, basis=((2, 0), (1, 0), (0, 1)))


def test_solve_poly_output_not_in_basis():
    plant = make_oscillator_plant()
    target = build_oscillator(gamma=1.0).target
    with pytest.raises(ValueError, match="spanned"):
        solve_poly_T(plant, target, basis=((1, 0), (0, 1)))


def test_oscillator_coefficients_regression():
    b = build_oscillator(gamma=1.0)
    pinned_row0 = [1.0689320507622944, -1.0933795255469965, 0.48894949569405183,
                   0.97410604192355044, 1.2330456226880395]
    pinned_row3 = [1.5163847217789126, -1.5693158846685811, 1.0586232577933845,
                   1.3461538461538451, 1.9230769230769231]
    np.testing.assert_allclose(b.transform.poly_coeffs[0], pinned_row0, rtol=1e-12)
    np.testing.assert_allclose(b.transform.poly_coeffs[3], pinned_row3, rtol=1e-12)


def test_solve_poly_nondiagonal_block():
    # a rotation block couples the rows; the block solve must still
    # produce an exact solution of the linear-in-target identity
    plant = make_oscillator_plant()
    target = TargetSystem(channels=(([CanonicalBlock.rotation(0.5, 0.7)], [0.0, 1.0]),),
                          gamma=0.9)
    t = make_polynomial_transform(plant, target, POLY_BASIS)
    pts = plant.box_x.sample(np.random.default_rng(8), 500)
    assert transform_residual(t, pts) <= 1e-10


def test_solve_poly_two_output_channels():
    f_mat = np.array([[1.0, -0.1], [0.1, 0.99]])
    plant = linear_plant(f_mat, np.eye(2), enlarge=1.5)
    pos = CanonicalBlock.positive_real
    target = TargetSystem(
        channels=(
            ([pos(0.3)], [1.0]),
            ([pos(0.2), pos(0.5)], [1.0, 1.0]),
        ),
        gamma=1.0,
    )
    t = make_polynomial_transform(plant, target, basis=((1, 0), (0, 1)))
    assert t.poly_coeffs.shape == (3, 2)
    pts = plant.box_x.sample(np.random.default_rng(9), 500)
    assert transform_residual(t, pts) <= 1e-10


def test_poly_residual_on_grid():
    b = build_oscillator(gamma=1.0)
    pts = b.plant.box_x.sample(np.random.default_rng(0), 1000)
    assert transform_residual(b.transform, pts) <= 1e-10


# --- series mode -------------------------------------------------------------


def test_series_zero_output_map():
    plant = linear_plant(np.array([[0.9, -0.2], [0.2, 0.9]]), [[0.0, 0.0]])
    target = single_block_target(lam=0.5, gamma=1.0)
    t = make_series_transform(plant, target)
    for x in plant.box_x.sample(np.random.default_rng(1), 20):
        np.testing.assert_array_equal(eval_T_series(t, x), np.zeros(1))


def test_series_matches_sylvester_oracle():
    # expanding linear dynamics: backward iterates contract, so saturation
    # never activates and the series must match the exact linear solution
    ang = 0.4
    f_mat = 1.25 * np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    h_mat = np.array([[1.0, 0.5]])
    plant = linear_plant(f_mat, h_mat, enlarge=1.5)
    target = real_target((0.3, 0.5), [1.0, 1.0], gamma=1.0)
    tol = 1e-9
    t = make_series_transform(plant, target, series_tol=tol)
    p_mat = scipy.linalg.solve_sylvester(target.A, -f_mat, -target.B @ h_mat)
    pts = plant.box_x.sample(np.random.default_rng(2), 200)
    series = eval_T_series(t, pts)
    assert np.max(np.abs(series - pts @ p_mat.T)) <= tol


def test_series_two_outputs_match_sylvester_oracle():
    # two outputs, one channel each: the series contraction runs with n_y = 2
    ang = 0.4
    f_mat = 1.25 * np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    h_mat = np.array([[1.0, 0.5], [-0.3, 1.0]])
    plant = linear_plant(f_mat, h_mat, enlarge=1.5)
    target = two_channel_target(gamma=1.0)
    tol = 1e-9
    t = make_series_transform(plant, target, series_tol=tol)
    assert t.series_table.shape == (t.series_n, 3, 2)
    p_mat = scipy.linalg.solve_sylvester(target.A, -f_mat, -target.B @ h_mat)
    pts = plant.box_x.sample(np.random.default_rng(2), 200)
    assert np.max(np.abs(eval_T_series(t, pts) - pts @ p_mat.T)) <= tol


def _series_per_term(t, x):
    """The series as a loop of one saturated step, one ``h`` and one ``A^j B`` per term."""
    x = np.asarray(x, dtype=float)
    box = t.plant.box_x_enlarged
    acc = np.zeros(x.shape[:-1] + (t.target.n_z,))
    a_pow_b = t.target.B.copy()
    v = x
    for _ in range(t.series_n):
        v = np.clip(t.plant.f_inv(v), box.lo, box.hi)
        acc = acc + np.einsum("zy,...y->...z", a_pow_b, np.asarray(t.plant.h(v), dtype=float))
        a_pow_b = t.target.A @ a_pow_b
    return acc


def _contracting_series(case):
    # contracting dynamics, so the backward orbit saturates
    ang = 0.4
    f_mat = 0.8 * np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    if case == "one-block":
        # n_z = 1 and a slow block: 234 terms, one value per point
        return make_series_transform(linear_plant(f_mat, [[1.0, 0.3]], enlarge=1.5),
                                     single_block_target(lam=0.9, gamma=1.0))
    lin = linear_plant(f_mat, np.eye(2), enlarge=1.5)
    # a nonlinear, elementwise h
    h = lambda x: np.stack([x[..., 0] * x[..., 1], np.sin(x[..., 0]) + x[..., 1]], axis=-1)
    plant = PlantModel(n_x=2, n_y=2, f=lin.f, f_inv=lin.f_inv, h=h, box_x=lin.box_x,
                       box_x0=lin.box_x0, box_x_enlarged=lin.box_x_enlarged)
    return make_series_transform(plant, two_channel_target(gamma=0.9))


@pytest.mark.parametrize("case", ["oscillator", "two-output", "one-block"])
def test_series_equals_per_term_loop(osc, case):
    t = (make_series_transform(osc.plant, osc.target)
         if case == "oscillator" else _contracting_series(case))
    rng = np.random.default_rng(11)
    # points beyond the enlarged box too, so the clamp acts on the first step
    big = t.plant.box_x_enlarged.sample(rng, 1400) * 1.5
    for x in (big[0], big[:1], big[:2], big[:177], big):
        assert np.array_equal(eval_T_series(t, x), _series_per_term(t, x))


def test_series_matches_polynomial_oscillator():
    b = build_oscillator(gamma=1.0)
    t_series = make_series_transform(b.plant, b.target, series_tol=1e-9)
    pts = b.plant.box_x.grid(32)
    gap = np.abs(eval_T_series(t_series, pts) - eval_T_poly(b.transform, pts))
    assert np.max(gap) <= 1e-6


def test_series_mode_residual_within_tolerance():
    b = build_oscillator(gamma=1.0)
    tol = 1e-9
    t_series = make_series_transform(b.plant, b.target, series_tol=tol)
    pts = b.plant.box_x.sample(np.random.default_rng(6), 300)
    assert transform_residual(t_series, pts) <= tol


def test_series_rejects_noncontractive_scaled_matrix():
    plant = linear_plant(np.array([[2.0, 0.0], [0.0, 2.0]]), [[1.0, 0.0]])
    # Schur block (modulus 0.9) whose max-norm is 0.9*sqrt(2) = 1.27: the scaled
    # target matrix is not a contraction, so the tail bound cannot be applied
    target = TargetSystem(channels=(([CanonicalBlock.rotation(0.9, math.pi / 4)], [0.0, 1.0]),),
                          gamma=1.0)
    with pytest.raises(ValueError, match="series"):
        make_series_transform(plant, target)


# --- inversion ---------------------------------------------------------------


@pytest.fixture(scope="module")
def osc():
    return build_oscillator(gamma=1.0)


@pytest.mark.parametrize("bad", [
    {"tol": float("nan")}, {"tol": float("inf")},
    {"fd_step": 0.0}, {"fd_step": -1e-6}, {"fd_step": float("nan")}, {"fd_step": float("inf")},
    {"max_iters": 0},
], ids=["tol-nan", "tol-inf", "fd_step-0", "fd_step-neg", "fd_step-nan", "fd_step-inf",
        "max_iters-0"])
def test_inverse_config_rejects_idle_settings(osc, bad):
    # each of these would make invert_T return a lattice point untouched; the
    # Gauss-Newton settings are module constants, so the box is the only field
    with pytest.raises(TypeError, match=next(iter(bad))):
        InverseConfig(box=osc.plant.box_x_enlarged, **bad)


def test_invert_roundtrip(osc):
    cfg = InverseConfig(box=osc.plant.box_x_enlarged)
    pts = osc.plant.box_x.sample(np.random.default_rng(10), 100)
    for x_true in pts:
        x, resid = invert_T(osc.transform, eval_T(osc.transform, x_true), cfg)
        assert np.max(np.abs(x - x_true)) <= 1e-4
        assert resid <= 1e-8


def test_invert_center_residual(osc):
    cfg = InverseConfig(box=osc.plant.box_x_enlarged)
    z = eval_T(osc.transform, osc.plant.box_x.center)
    _, resid = invert_T(osc.transform, z, cfg)
    assert resid <= 1e-8


def test_invert_far_outside_clamps(osc):
    cfg = InverseConfig(box=osc.plant.box_x_enlarged)
    z = eval_T(osc.transform, np.array([1.0, 0.5])) + 50.0
    x, resid = invert_T(osc.transform, z, cfg)
    assert osc.plant.box_x_enlarged.contains(x)
    assert resid > 1.0


def test_invert_deterministic(osc):
    cfg = InverseConfig(box=osc.plant.box_x_enlarged)
    z = eval_T(osc.transform, np.array([0.3, -0.7])) + np.array([0.2, -0.1, 0.15, 0.05])
    x1, r1 = invert_T(osc.transform, z, cfg)
    x2, r2 = invert_T(osc.transform, z, cfg)
    assert np.array_equal(x1, x2) and r1 == r2


def test_invert_warm_start_used(osc):
    cfg = InverseConfig(box=osc.plant.box_x_enlarged)
    x_true = np.array([0.4, 0.2])
    z = eval_T(osc.transform, x_true)
    x, resid = invert_T(osc.transform, z, cfg, warm=x_true + 1e-3)
    assert np.max(np.abs(x - x_true)) <= 1e-6
    assert resid <= 1e-8


@pytest.fixture(scope="module")
def osc_series(osc):
    return make_series_transform(osc.plant, osc.target)


@pytest.mark.parametrize("warm", [None, "shared", "per_target"])
@pytest.mark.parametrize("mode", ["polynomial", "series"])
def test_invert_stack_equals_single_calls(osc, osc_series, mode, warm):
    # the first target is met exactly by its warm start (or within a few
    # iterations from the lattice); the second is unreachable, so its starts
    # run to the iteration cap while the first target's rows sit converged
    t = osc.transform if mode == "polynomial" else osc_series
    cfg = InverseConfig(box=osc.plant.box_x_enlarged)
    x_near = np.array([0.4, 0.2])
    zs = np.stack([eval_T(t, x_near), eval_T(t, np.array([1.0, 0.5])) + 50.0])
    warms = {None: [None, None],
             "shared": [x_near, x_near],
             "per_target": [x_near, np.array([-0.3, 0.6])]}[warm]
    xs, rs = invert_T(t, zs, cfg, warm=None if warm is None else np.stack(warms))
    assert xs.shape == (2, 2) and rs.shape == (2,)
    for j in range(2):
        x, r = invert_T(t, zs[j], cfg, warm=warms[j])
        assert np.array_equal(xs[j], x) and rs[j] == r
    assert rs[0] <= 1e-8 and rs[1] > 1.0


def test_invert_stack_rejects_bad_shapes(osc):
    cfg = InverseConfig(box=osc.plant.box_x_enlarged)
    z = eval_T(osc.transform, np.array([0.4, 0.2]))
    with pytest.raises(ValueError, match="z must"):
        invert_T(osc.transform, z[:3], cfg)
    # the warm start is shaped like the result: one point per target
    for zs, warm in ((np.stack([z, z]), np.zeros((3, 2))), (np.stack([z, z]), np.zeros(2)),
                     (z, np.zeros((1, 2)))):
        with pytest.raises(ValueError, match="warm"):
            invert_T(osc.transform, zs, cfg, warm=warm)


def _mixed_targets(t):
    # most rows for a reachable target converge within a few iterations and
    # leave the batch; rows for an unreachable one iterate several times longer
    z_near = eval_T(t, np.array([0.4, 0.2]))
    z_far = eval_T(t, np.array([1.0, 0.5])) + 50.0
    starts = np.random.default_rng(12).uniform(-1.0, 1.0, (10, 2))
    return np.stack([z_near if s % 3 else z_far for s in range(10)]), starts


@pytest.mark.parametrize("mode", ["polynomial", "series"])
def test_gauss_newton_rows_independent_of_batch(osc, osc_series, mode):
    # each start is compared with a batch of itself and a copy: a lone
    # polynomial point goes through a one-row matmul, which numpy hands to
    # BLAS gemv, and that rounds differently from the batched product
    from kklio.transform import _gauss_newton
    t = osc.transform if mode == "polynomial" else osc_series
    cfg = InverseConfig(box=osc.plant.box_x_enlarged)
    z, starts = _mixed_targets(t)
    xs, rs = _gauss_newton(t, z, starts[:, None], cfg)
    xs, rs = xs[:, 0], rs[:, 0]
    assert rs[0] > 1.0 and rs[2] <= 1e-8
    for s in range(10):
        x, r = _gauss_newton(t, z[[s, s]], starts[[s, s], None], cfg)
        x, r = x[:, 0], r[:, 0]
        for j in range(2):
            assert np.array_equal(xs[s], x[j]) and rs[s] == r[j]


def test_gauss_newton_skips_converged_rows(osc, monkeypatch):
    import kklio.transform as transform
    cfg = InverseConfig(box=osc.plant.box_x_enlarged)
    z, starts = _mixed_targets(osc.transform)
    counts = []

    def counting_eval_T(t, x):
        counts.append(len(x))
        return eval_T(t, x)

    monkeypatch.setattr(transform, "eval_T", counting_eval_T)
    transform._gauss_newton(osc.transform, z, starts[:, None], cfg)
    # calls: the starts, then one ladder per iteration (the polynomial
    # Jacobian comes from its table, without evaluating the transform)
    assert counts[0] == 10
    ladder = counts[1:]
    assert len(ladder) > 10
    assert ladder[0] == 14 * 10 and ladder[-1] == 14
    assert all(b <= a for a, b in zip(ladder, ladder[1:]))
    assert all(q % 14 == 0 for q in ladder)


@pytest.mark.parametrize("mode", ["polynomial", "series"])
def test_invert_returns_winner_run_alone(osc, osc_series, mode):
    # a start that leaves the batch because it cannot win ends where it was
    # dropped; the start that wins is never dropped, so it ends where it
    # would running alone, as its own group of one (two copies of it, so
    # no evaluation is a lone point)
    from kklio.transform import _best_start, _gauss_newton
    t = osc.transform if mode == "polynomial" else osc_series
    cfg = InverseConfig(box=osc.plant.box_x_enlarged)
    starts = cfg.start_points
    offset = np.array([0.05, -0.03, 0.02, -0.04])
    dropped = 0
    for x_true in ([0.4, 0.2], [-1.3, 0.9], [1.7, -1.5]):
        z = eval_T(t, np.array([x_true, x_true]))[0] + offset
        x, r = invert_T(t, z, cfg)
        xs, rs = _gauss_newton(t, z[None], starts[None], cfg)
        best = _best_start(xs[0], rs[0])
        alone_x, alone_r = _gauss_newton(t, np.stack([z] * len(starts)), starts[:, None], cfg)
        assert np.array_equal(x, alone_x[best, 0]) and r == alone_r[best, 0]
        assert np.array_equal(xs[0, best], x) and rs[0, best] == r
        dropped += int(np.sum(np.any(xs[0] != alone_x[:, 0], axis=1)))
    assert dropped > 0


def test_invert_exact_hit_runs_no_iteration(osc, monkeypatch):
    # the warm start meets z exactly, so it leaves before its Jacobian; its
    # sum of squares is 0, so every other start leaves the batch before its
    # first line search
    import kklio.transform as transform
    cfg = InverseConfig(box=osc.plant.box_x_enlarged)
    x_star = np.array([0.4, 0.2])
    z = eval_T(osc.transform, np.stack([x_star, x_star]))[0]
    counts = []

    def counting_eval_T(t, x):
        counts.append(len(x))
        return eval_T(t, x)

    monkeypatch.setattr(transform, "eval_T", counting_eval_T)
    x, r = invert_T(osc.transform, z, cfg, warm=x_star)
    assert np.array_equal(x, x_star) and r == 0.0
    # calls: the 50 starts, and nothing more
    assert counts == [50]


def test_invert_keeps_start_that_is_still_far_behind(osc):
    # criterion 03's point 36: the start heading for the true preimage stays
    # over n_z times the best sum of squares for several iterations, so a
    # drop rule on the sum of squares alone returned a point 0.16 away; its
    # own Gauss-Newton model keeps it
    cfg = InverseConfig(box=osc.plant.box_x_enlarged)
    x_true = osc.plant.box_x.sample(np.random.default_rng(123), 100)[36]
    x, resid = invert_T(osc.transform, eval_T(osc.transform, x_true), cfg)
    assert np.max(np.abs(x - x_true)) <= 1e-8
    assert resid <= 1e-8


def test_oscillator_jacobian_matches_hand_derivation(osc):
    # T_r = c0 x1^2 + c1 x2^2 + c2 x1 x2 + c3 x1 + c4 x2 over POLY_BASIS
    from kklio.transform import jacobian_poly
    c = osc.transform.poly_coeffs
    x = osc.plant.box_x_enlarged.sample(np.random.default_rng(21), 50)
    x1, x2 = x[:, :1], x[:, 1:]
    oracle = np.stack([2 * c[:, 0] * x1 + c[:, 2] * x2 + c[:, 3],
                       2 * c[:, 1] * x2 + c[:, 2] * x1 + c[:, 4]], axis=-1)
    np.testing.assert_allclose(jacobian_poly(osc.transform, x), oracle, rtol=0, atol=1e-12)


def test_jacobian_row_alone_equals_row_in_batch(osc):
    # a lone point must get the bits it gets in a batch, or Gauss-Newton
    # rows would depend on how many starts are still active
    from kklio.transform import jacobian_poly
    x = osc.plant.box_x_enlarged.sample(np.random.default_rng(22), 10)
    batch = jacobian_poly(osc.transform, x)
    for s in range(10):
        assert np.array_equal(jacobian_poly(osc.transform, x[s:s + 1])[0], batch[s])
        assert np.array_equal(jacobian_poly(osc.transform, x[s]), batch[s])


@st.composite
def _random_poly_tables(draw):
    # any table over any basis: an arbitrary table cannot become a transform,
    # so the Jacobian table is checked on its own
    n_x = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * n_x).filter(lambda e: sum(e) <= 3)
    basis = tuple(draw(st.lists(exps, min_size=1, max_size=8, unique=True)))
    n_z = draw(st.integers(1, 3))
    coeffs = draw(arrays(float, (n_z, len(basis)), elements=st.floats(-2.0, 2.0)))
    x = draw(arrays(float, (5, n_x), elements=st.floats(-1.5, 1.5)))
    return basis, coeffs, x


@settings(max_examples=60, deadline=None)
@given(_random_poly_tables())
def test_jacobian_table_matches_central_differences(case):
    # degree <= 3, so the central difference errs by h^2/6 times the third
    # derivative, about 1e-10 here, plus rounding of order eps / h
    from kklio.transform import _jacobian_table, _monomials
    basis, coeffs, x = case
    (n_z, _), n_x, h = coeffs.shape, x.shape[1], 1e-5
    jac_basis, table = _jacobian_table(basis, coeffs, n_x)
    jac = (_monomials(x, jac_basis) @ table).reshape(len(x), n_z, n_x)
    for i in range(n_x):
        step = h * np.eye(n_x)[i]
        central = (_monomials(x + step, basis) - _monomials(x - step, basis)) @ coeffs.T / (2 * h)
        np.testing.assert_allclose(jac[..., i], central, rtol=0, atol=1e-8)


@pytest.mark.parametrize("kw", [{"poly_coeffs": np.zeros((4, 5))}, {"mode": "polynomial"}],
                         ids=["poly_coeffs", "mode"])
def test_transform_takes_no_table_or_mode(osc, kw):
    # a polynomial transform comes only from the solve and its identity check
    with pytest.raises(TypeError, match=next(iter(kw))):
        KklTransform(target=osc.target, plant=osc.plant, basis=POLY_BASIS, **kw)


def test_transform_rejects_basis_not_closed(osc):
    with pytest.raises(ValueError, match="not closed"):
        KklTransform(osc.target, osc.plant, basis=((2, 0), (1, 0), (0, 1)))


def test_transform_rejects_repeated_basis_tuple(osc):
    # a repeated monomial passes the identity check, yet its second copy
    # would overwrite the first in the Jacobian table, and Gauss-Newton
    # would follow a wrong Jacobian
    basis = ((2, 0), (2, 0), (0, 2), (1, 1), (1, 0), (0, 1))
    with pytest.raises(ValueError, match=r"\(2, 0\) more than once"):
        solve_poly_T(osc.plant, osc.target, basis)
    with pytest.raises(ValueError, match=r"\(2, 0\) more than once"):
        make_polynomial_transform(osc.plant, osc.target, basis)


@pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan"), float("inf")],
                         ids=["zero", "negative", "nan", "inf"])
def test_transform_rejects_bad_series_tol(osc, tol):
    # inf would size a one-term series, which is not T
    with pytest.raises(ValueError, match="series_tol"):
        make_series_transform(osc.plant, osc.target, series_tol=tol)


@pytest.mark.parametrize("basis", [POLY_BASIS, None], ids=["polynomial", "series"])
def test_transform_rejects_target_of_other_channel_count(osc, basis):
    # the oscillator has one output: series mode used to broadcast it into
    # both channels, polynomial mode to fail with an IndexError
    blocks = tuple(CanonicalBlock.positive_real(l) for l in (0.1, 0.2))
    target = TargetSystem(channels=((blocks, np.ones(2)), (blocks, np.ones(2))), gamma=1.0)
    with pytest.raises(ValueError, match=r"target has 2 output channels, the plant has n_y=1"):
        KklTransform(target, osc.plant, basis)


def test_transform_rejects_basis_not_closed_under_cubic_dynamics():
    # x o f = x^3 / 2 lies in the basis, but x^3 o f = x^9 / 8 does not
    box = Box([-1.0], [1.0])
    plant = PlantModel(n_x=1, n_y=1, f=lambda x: 0.5 * np.asarray(x) ** 3,
                       f_inv=lambda x: np.cbrt(2.0 * np.asarray(x)), h=lambda x: np.asarray(x),
                       box_x=box, box_x0=box, box_x_enlarged=box)
    with pytest.raises(ValueError, match="not closed"):
        KklTransform(single_block_target(), plant, ((1,), (3,)))


def test_transform_of_triangular_polynomial_dynamics():
    # f(x) = (x1 + 0.1 x2^2, 0.9 x2) is not affine, yet {x1, x2, x2^2} is
    # closed under it: x1 o f = x1 + 0.1 x2^2, x2 o f = 0.9 x2, x2^2 o f = 0.81 x2^2
    from kklio.transform import jacobian_poly
    box = Box([-1.0, -1.0], [1.0, 1.0])
    f = lambda x: np.stack([x[..., 0] + 0.1 * x[..., 1] ** 2, 0.9 * x[..., 1]], axis=-1)

    def f_inv(x):
        x2 = x[..., 1] / 0.9
        return np.stack([x[..., 0] - 0.1 * x2 ** 2, x2], axis=-1)

    plant = PlantModel(n_x=2, n_y=1, f=f, f_inv=f_inv, h=lambda x: np.asarray(x)[..., :1],
                       box_x=box, box_x0=box, box_x_enlarged=box)
    t = KklTransform(real_target((0.1, 0.2, 0.3), np.ones(3), gamma=1.0), plant,
                     ((1, 0), (0, 1), (0, 2)))
    x = box.sample(np.random.default_rng(5), 500)
    assert transform_residual(t, x) <= 1e-12
    h = 1e-5  # T is quadratic: the central difference errs by rounding only
    central = np.stack([(eval_T(t, x + h * e) - eval_T(t, x - h * e)) / (2 * h)
                        for e in np.eye(2)], axis=-1)
    np.testing.assert_allclose(jacobian_poly(t, x), central, rtol=0, atol=1e-9)


def test_transform_affine_dynamics_with_offset():
    # f(0) != 0: the offset composes into the constant monomial, which the
    # basis must then hold
    f_mat, off = np.array([[0.9, -0.2], [0.2, 0.9]]), np.array([0.1, -0.05])
    f_inv_mat = np.linalg.inv(f_mat)
    box = Box([-1.0, -1.0], [1.0, 1.0])
    plant = PlantModel(n_x=2, n_y=1, f=lambda x: np.asarray(x) @ f_mat.T + off,
                       f_inv=lambda x: (np.asarray(x) - off) @ f_inv_mat.T,
                       h=lambda x: np.asarray(x)[..., :1], box_x=box, box_x0=box,
                       box_x_enlarged=box)
    target = real_target((0.1, 0.2, 0.3), np.ones(3), gamma=1.0)
    t = KklTransform(target, plant, ((1, 0), (0, 1), (0, 0)))
    assert transform_residual(t, box.sample(np.random.default_rng(3), 500)) <= 1e-13
    with pytest.raises(ValueError, match="not closed"):
        KklTransform(target, plant, ((1, 0), (0, 1)))


def test_best_start_matches_sorted_keys():
    from kklio.transform import _best_start
    rng = np.random.default_rng(4)
    for _ in range(200):
        # few distinct values, so residual, max-norm and point ties all occur
        xs = rng.choice([-1.5, -0.5, 0.0, 0.5, 1.5], size=(12, 2))
        rs = rng.choice([0.0, 1e-12, 0.3], size=12)
        ref = sorted(range(12), key=lambda i: (rs[i], np.max(np.abs(xs[i])), tuple(xs[i])))[0]
        assert _best_start(xs, rs) == ref


def _monomials_product_loop(x, basis):
    cols = []
    for e in basis:
        col = np.ones(x.shape[:-1])
        for i, p in enumerate(e):
            if p:
                col = col * x[..., i] ** p
        cols.append(col)
    return np.stack(cols, axis=-1)


def test_monomials_match_product_loop():
    from kklio.transform import _monomials
    basis = ((0, 0, 0), (3, 0, 1), (1, 1, 1), (0, 4, 0), (2, 0, 0), (0, 0, 1), (1, 2, 3))
    x = np.random.default_rng(5).uniform(-2.0, 2.0, (7, 11, 3))
    for pts in (x, x[0, 0]):
        assert np.array_equal(_monomials(pts, basis), _monomials_product_loop(pts, basis))


def test_start_points_fixed_lattice():
    # 7 interior points per axis, cell centres, first axis slowest
    cfg = InverseConfig(box=Box([-3.0, 0.0], [4.0, 0.7]))
    pts = cfg.start_points
    assert pts.shape == (49, 2)
    # built once with the config and shared by every inversion, so read-only
    assert not pts.flags.writeable
    with pytest.raises(ValueError):
        pts[0, 0] = 0.0
    centres = np.arange(7) + 0.5
    np.testing.assert_allclose(pts[:7], np.stack([np.full(7, -3.0 + centres[0]),
                                                  0.1 * centres], axis=1), rtol=0, atol=1e-15)
    np.testing.assert_allclose(pts[::7, 0], -3.0 + centres, rtol=0, atol=1e-15)


# --- sampled constants -------------------------------------------------------


def test_lipschitz_sandwich(osc):
    c = osc.consts
    rng = np.random.default_rng(77)
    a = osc.plant.box_x.sample(rng, 10000)
    b = osc.plant.box_x.sample(rng, 10000)
    dx = np.max(np.abs(a - b), axis=1)
    mask = dx > 1e-12
    dt = np.max(np.abs(eval_T(osc.transform, a) - eval_T(osc.transform, b)), axis=1)
    gamma = osc.target.gamma
    lower = c.c_I * gamma ** (c.m_bar - 1) * dx[mask]
    upper = c.c_L * dx[mask]
    assert np.all(dt[mask] >= lower)
    assert np.all(dt[mask] <= upper)


def test_estimated_constants_positive(osc):
    assert estimate_forward_lipschitz(osc.transform, samples=20000, seed=1) > 0
    assert estimate_injectivity(osc.transform, samples=20000, seed=2) > 0


def test_injectivity_refuses_zero_output_map():
    plant = linear_plant(np.array([[0.9, -0.2], [0.2, 0.9]]), [[0.0, 0.0]])
    t = KklTransform(single_block_target(lam=0.5, gamma=1.0), plant, ((1, 0), (0, 1)))
    with pytest.raises(ValueError, match="numerically non-injective"):
        estimate_injectivity(t, samples=2000, seed=0)


def test_target_system_validation():
    with pytest.raises(ValueError, match="Schur"):
        real_target((1.0,), [1.0], gamma=0.5)
    with pytest.raises(ValueError, match="controllable"):
        real_target((0.5, 0.5), [0.0, 0.0], gamma=0.5)
    with pytest.raises(ValueError, match="gamma"):
        real_target((0.5,), [1.0], gamma=1.5)
    with pytest.raises(ValueError, match="b_i"):
        real_target((0.5, 0.2), [1.0], gamma=0.5)
    for blocks in ([], [np.array([[0.5]])]):
        with pytest.raises(ValueError, match="CanonicalBlocks"):
            TargetSystem(channels=((blocks, [1.0]),), gamma=0.5)


def test_target_matrices_assembled_from_blocks():
    # two channels mixing the three block kinds; A and B are what the blocks
    # give when placed by hand, and the frames' block order is kept
    neg = CanonicalBlock.negative_real(-0.5)
    rot = CanonicalBlock.rotation(0.8, 0.6)
    pos = CanonicalBlock.positive_real(0.3)
    t = TargetSystem(channels=(([neg, rot], [1.0, 0.0, 1.0]), ([pos], [2.0])), gamma=0.9)
    c, s = math.cos(0.6), math.sin(0.6)
    a = np.zeros((4, 4))
    a[0, 0] = 0.9 * -0.5
    a[1:3, 1:3] = 0.9 * (0.8 * np.array([[c, -s], [s, c]]))
    a[3, 3] = 0.9 * 0.3
    b = np.zeros((4, 2))
    b[:3, 0] = [1.0, 0.0, 1.0]
    b[3, 1] = 2.0
    assert np.array_equal(t.A, a) and np.array_equal(t.B, b)
    assert t.blocks == (neg, rot, pos) and t.m == (3, 1) and t.n_z == 4


def test_target_c_c_vandermonde():
    t = real_target((0.1, 0.2, 0.3, 0.4), np.ones(4), gamma=1.0)
    ctrb = np.vander(np.array([0.1, 0.2, 0.3, 0.4]), 4, increasing=True)
    oracle = 1.0 / np.max(np.abs(np.linalg.inv(ctrb)).sum(axis=1))
    assert t.c_c() == pytest.approx(oracle, rel=1e-12)
