"""Set-inversion recovery: the enclosure of ``T``, the paving, and what a run
of the observer guarantees with it."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kklio import (EmptyRecoveryError, InverseConfig, PlantModel, eval_T, init_observer,
                   invert_T, make_series_transform, recover_x_bounds, simulate_plant, step)
from kklio import harness
from kklio.cli import main
from kklio.harness import CHECK_SLACK
from kklio.presets import DEFAULT_TAU, build_oscillator, siE_disturbance, siE_noise
from kklio.setinv import PriorGrid, QuadraticEnclosure, set_invert
from kklio.transform import _gauss_newton, jacobian_poly


@pytest.fixture(scope="module")
def osc():
    return build_oscillator(gamma=1.0)


def test_enclosure_of_oscillator_transform(osc):
    enc = osc.observer_cfg.enclosure
    assert isinstance(enc, QuadraticEnclosure)
    for x in np.random.default_rng(3).uniform(-3.0, 3.0, (20, 2)):
        np.testing.assert_allclose(enc.jacobian(x), jacobian_poly(osc.transform, x), atol=1e-12)
        np.testing.assert_allclose(enc.value(x), eval_T(osc.transform, x), atol=1e-12)


def test_enclosure_absent_without_affine_jacobian(osc):
    t_series = make_series_transform(osc.plant, osc.target, series_tol=1e-9)
    assert QuadraticEnclosure.of(t_series, osc.plant.box_x_enlarged) is None


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
       st.lists(st.floats(0.0, 1.5), min_size=2, max_size=2),
       st.integers(0, 2 ** 32 - 1))
def test_enclosure_holds_sampled_images(osc, centre, radius, seed):
    # T of every sampled point of c +- r lies in T(c) +- rad; image2 gives
    # both doubled, and T(c) less T(0)
    enc = osc.observer_cfg.enclosure
    c, r = np.array(centre), np.array(radius)
    tc2, rad2 = enc.image2(np.stack([c, c + 0.1]), r)
    for centre_k, tc2_k, rad2_k in zip((c, c + 0.1), tc2, rad2):
        pts = centre_k + r * np.random.default_rng(seed).uniform(-1.0, 1.0, (200, 2))
        pts = np.vstack([pts, centre_k + r * np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]])])
        gap2 = np.abs(2.0 * (eval_T(osc.transform, pts) - enc.t0) - tc2_k)
        assert np.all(gap2 <= rad2_k)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
       st.one_of(st.floats(0.0, 0.3), st.floats(1e-4, 1e-2)),
       st.one_of(st.floats(0.0, 1.0), st.floats(0.005, 0.05)), st.integers(0, 2 ** 32 - 1))
def test_set_invert_keeps_every_preimage(osc, point, z_half, prior_half, seed):
    # any state of the prior whose image lies in [z] stays in the recovered
    # box: the point [z] is built around, and every sampled one
    enc = osc.observer_cfg.enclosure
    x = np.array(point)
    rng = np.random.default_rng(seed)
    z = eval_T(osc.transform, x)
    z_lo = z - z_half * rng.uniform(0.0, 1.0, 4)
    z_hi = z + z_half * rng.uniform(0.0, 1.0, 4)
    lo = x - prior_half * rng.uniform(0.0, 1.0, 2)
    hi = x + prior_half * rng.uniform(0.0, 1.0, 2)
    found = set_invert(enc, z_lo, z_hi, lo, hi)
    assert found is not None
    x_lo, x_hi, boxes, (box_lo, box_hi) = found
    pts = np.vstack([x, rng.uniform(lo, hi, (4000, 2))])
    tz = eval_T(osc.transform, pts)
    sol = pts[np.all((tz >= z_lo) & (tz <= z_hi), axis=1)]
    assert np.all(x_lo <= sol) and np.all(sol <= x_hi)
    assert np.all(lo <= x_lo) and np.all(x_hi <= hi) and 1 <= boxes <= 4096
    # the kept boxes cover every solution and lie in the hull
    assert all(_in_boxes(sol, box_lo, box_hi))
    assert np.all(x_lo <= box_lo) and np.all(box_hi <= x_hi)


def _in_boxes(pts, box_lo, box_hi):
    return np.any(np.all((pts[:, None] >= box_lo) & (pts[:, None] <= box_hi), axis=2), axis=1)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
       st.floats(0.0, 0.3), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_set_invert_in_a_prior_union_keeps_every_preimage(osc, point, z_half, n_boxes, seed):
    # the prior is a union of boxes, one around the point [z] is built
    # around: every solution in the union stays in the hull and in a kept box
    enc = osc.observer_cfg.enclosure
    x = np.array(point)
    rng = np.random.default_rng(seed)
    z = eval_T(osc.transform, x)
    z_lo = z - z_half * rng.uniform(0.0, 1.0, 4)
    z_hi = z + z_half * rng.uniform(0.0, 1.0, 4)
    centres = np.vstack([x, rng.uniform(-2.0, 2.0, (n_boxes - 1, 2))])
    radii = rng.uniform(0.0, 0.6, (n_boxes, 2))
    prior = centres - radii, centres + radii
    lo, hi = prior[0].min(axis=0), prior[1].max(axis=0)
    found = set_invert(enc, z_lo, z_hi, lo, hi, prior)
    assert found is not None
    x_lo, x_hi, _, (box_lo, box_hi) = found
    pts = np.vstack([x, rng.uniform(lo, hi, (6000, 2))])
    pts = pts[_in_boxes(pts, *prior)]
    tz = eval_T(osc.transform, pts)
    sol = pts[np.all((tz >= z_lo) & (tz <= z_hi), axis=1)]
    assert np.all(x_lo <= sol) and np.all(sol <= x_hi)
    assert all(_in_boxes(sol, box_lo, box_hi))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.integers(0, 2 ** 32 - 1))
def test_prior_grid_counts_every_box_that_meets_the_union(n_boxes, seed):
    # a box that shares a point with a union box meets a marked cell; one
    # whose cells are all marked lies in the union's cells
    rng = np.random.default_rng(seed)
    lo, hi = np.array([-1.0, -0.5]), np.array([2.0, 0.5])
    c = rng.uniform(lo, hi, (n_boxes, 2))
    r = rng.uniform(0.0, 0.2, (n_boxes, 2)) * rng.integers(0, 2, (n_boxes, 2))
    grid = PriorGrid(lo, hi, c - r, c + r)
    q_c = rng.uniform(lo, hi, (500, 2))
    q_r = rng.uniform(0.0, 0.3, 2)
    marked, cells = grid.count(q_c, q_r)
    meets = np.any(np.all((np.abs(q_c[:, None] - c) <= q_r + r), axis=2), axis=1)
    assert np.all(marked[meets] > 0.5)
    assert np.all(marked <= cells + 1e-9) and np.all(marked >= -1e-9)
    # union boxes meet themselves, and the whole grid holds all of them
    marked_self, _ = grid.count(c, r)
    assert np.all(marked_self > 0.5)
    whole, all_cells = grid.count(((lo + hi) / 2)[None], (hi - lo) / 2)
    assert all_cells[0] == 128 * 128 and 0.5 < whole[0] <= all_cells[0]


# [z] around T(x), widened by z_half times the fractions below and above,
# and a prior around x, widened by prior_half times its fractions: cases
# where Krawczyk without the spread of C J over its box drops solutions
CONTRACTION_CASES = [
    ((-0.32184205577867786, -0.67880436669935), 0.043189295607439816,
     (0.33154295679497225, 0.19692751205314052, 0.3231192698404406, 0.0575530507416262),
     (0.743972344522691, 0.4774148160095223, 0.758650030488023, 0.5165108604422681),
     0.14358482729857214, (0.9111819536470757, 0.4033830658353006),
     (0.8395568006894896, 0.33048292433246096)),
    ((-0.6800183604314132, 1.1625304850015366), 0.05605920027734277,
     (0.052242867690589945, 0.3753618327626975, 0.1379550042923936, 0.06780271507429558),
     (0.8752581003890143, 0.8217443846968553, 0.5903240915496222, 0.5263603162711633),
     0.22139582380504072, (0.9093908240073595, 0.46834613287658167),
     (0.334528177578978, 0.6082850518002976)),
]


@pytest.mark.parametrize("case", CONTRACTION_CASES)
def test_contraction_keeps_every_sampled_solution(osc, case):
    x, z_half, z_below, z_above, prior_half, below, above = (np.array(v) for v in case)
    z = eval_T(osc.transform, x)
    z_lo, z_hi = z - z_half * z_below, z + z_half * z_above
    lo, hi = x - prior_half * below, x + prior_half * above
    x_lo, x_hi, _, _ = set_invert(osc.observer_cfg.enclosure, z_lo, z_hi, lo, hi)
    pts = np.random.default_rng(0).uniform(lo, hi, (40000, 2))
    tz = eval_T(osc.transform, pts)
    sol = pts[np.all((tz >= z_lo) & (tz <= z_hi), axis=1)]
    assert len(sol) > 100
    assert np.all(x_lo <= sol) and np.all(sol <= x_hi)


def test_set_invert_empty_when_image_misses(osc):
    enc = osc.observer_cfg.enclosure
    z = eval_T(osc.transform, np.array([0.5, 0.5])) + 0.3
    assert set_invert(enc, z, z, np.array([0.4, 0.4]), np.array([0.6, 0.6])) is None


def test_krawczyk_contracts_a_point_target(osc):
    # a zero-width target inside a small prior: the hull shrinks to rounding level
    enc = osc.observer_cfg.enclosure
    x = np.array([0.8, -0.3])
    z = eval_T(osc.transform, x)
    x_lo, x_hi, boxes, _ = set_invert(enc, z, z, x - 0.004, x + 0.004)
    assert boxes == 1 and np.max(x_hi - x_lo) < 1e-9
    assert np.all(x_lo <= x) and np.all(x <= x_hi)


def test_invert_without_lattice_is_the_warm_start_alone(osc):
    t, cfg = osc.transform, InverseConfig(box=osc.plant.box_x_enlarged)
    z = np.stack([eval_T(t, np.array([0.3, 0.9])) + 0.05, eval_T(t, np.array([-1.0, 0.2]))])
    warm = np.array([[0.0, 0.5], [-0.5, 0.0]])
    xs, rs = invert_T(t, z, cfg, warm=warm, lattice=False)
    gx, gr = _gauss_newton(t, z, warm[:, None], cfg)
    assert np.array_equal(xs, gx[:, 0]) and np.array_equal(rs, gr[:, 0])
    with pytest.raises(ValueError, match="warm start"):
        invert_T(t, z[0], cfg, lattice=False)


def _saddle(f):
    # 0.45 off at (3, 0), but 0 at the corners and the centre of [-3, 3]^2
    def g(x):
        x = np.asarray(x, dtype=float)
        return f(x) + 0.05 * (x[..., :1] ** 2 - x[..., 1:] ** 2)
    return g


def test_plant_checks_its_linear_dynamics(osc):
    p = osc.plant
    kw = dict(n_x=2, n_y=1, f_inv=p.f_inv, h=p.h, box_x=p.box_x, box_x0=p.box_x0,
              box_x_enlarged=p.box_x_enlarged)
    tau = DEFAULT_TAU
    # column i is f(e_i) - f(0), bit for bit the oscillator's matrix
    assert np.array_equal(p.f_linear, np.array([[1.0, -tau], [tau, 1.0 - tau * tau]]))
    assert p.f_linear.flags.c_contiguous and not p.f_linear.flags.writeable
    # the matrix is derived, never declared
    with pytest.raises(TypeError):
        PlantModel(**kw, f=p.f, f_linear=p.f_linear)
    # an f that its matrix does not match, or that is not finite, has none
    assert PlantModel(**kw, f=_saddle(p.f)).f_linear is None
    assert PlantModel(**kw, f=lambda x: p.f(x) + 1e-6).f_linear is None
    nan_on_axes = lambda x: np.where(np.any(x == 0.0, axis=-1, keepdims=True), np.nan, p.f(x))
    assert PlantModel(**kw, f=nan_on_axes).f_linear is None


def test_step_carries_the_prior(osc):
    cfg = osc.observer_cfg
    state = init_observer(cfg, osc.plant.box_x0.lo, osc.plant.box_x0.hi)
    d = 0.01 * np.ones(2)
    nxt = step(state, cfg, np.array([0.3]), np.array([-0.1]), np.array([0.1]), d_lo=-d, d_hi=d)
    corners = osc.plant.box_x0.grid(2)
    images = osc.plant.f(corners)
    (prior_lo, prior_hi), union = nxt.prior
    assert np.all(prior_lo <= images.min(axis=0) - d)
    assert np.all(prior_hi >= images.max(axis=0) + d)
    np.testing.assert_allclose(prior_lo, images.min(axis=0) - d, atol=1e-11)
    # the initial state set is the initial box alone: its image is the frame
    assert np.array_equal(union[0], prior_lo[None]) and np.array_equal(union[1], prior_hi[None])
    # the boxes of the state set map box by box, inside the image of the bounds
    box_lo = np.array([[0.5, -0.5], [1.0, 0.0]])
    box_hi = np.array([[0.8, 0.0], [1.5, 0.5]])
    kept = replace(state, x_boxes=(box_lo, box_hi))
    nxt = step(kept, cfg, np.array([0.3]), np.array([-0.1]), np.array([0.1]), d_lo=-d, d_hi=d)
    (prior_lo, prior_hi), union = nxt.prior
    for lo, hi, m_lo, m_hi in zip(box_lo, box_hi, *union):
        images = osc.plant.f(np.array([[lo[0], lo[1]], [lo[0], hi[1]], [hi[0], lo[1]],
                                       [hi[0], hi[1]]]))
        np.testing.assert_allclose(m_lo, images.min(axis=0) - d, atol=1e-11)
        np.testing.assert_allclose(m_hi, images.max(axis=0) + d, atol=1e-11)
        assert np.all(prior_lo <= m_lo) and np.all(m_hi <= prior_hi)
    # a state without finite state bounds gives no prior
    for x_lo in (None, np.array([np.nan, 0.0]), np.array([-np.inf, 0.0])):
        bare = replace(state, x_lo=x_lo)
        assert step(bare, cfg, np.array([0.3]), np.zeros(1), np.zeros(1)).prior is None


def _realized_run(bundle, steps, ws, ds, x0):
    """The observer with the declared bounds of the demo run, on a plant
    driven by the given noise and disturbance realizations."""
    plant, cfg = bundle.plant, bundle.observer_cfg
    _, w_lo, w_hi = siE_noise()
    _, d_lo, d_hi = siE_disturbance()
    trace = simulate_plant(plant, x0, steps, w=lambda k: ws[k], d=lambda k: ds[k])
    state = init_observer(cfg, plant.box_x0.lo, plant.box_x0.hi)
    yield trace, state
    for k in range(steps):
        state = step(state, cfg, trace.ys[k], w_lo(k), w_hi(k), d_lo=d_lo(k), d_hi=d_hi(k))
        yield trace, recover_x_bounds(state, cfg)


STEPS = 60


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.floats(0.0, 1.0), min_size=STEPS + 1, max_size=STEPS + 1),
       st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                min_size=STEPS, max_size=STEPS),
       st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
def test_any_realization_within_bounds_is_enclosed(osc, w_frac, d_frac, x0_frac):
    # noise anywhere in [w_lo(k), w_hi(k)], disturbance anywhere in
    # [d_lo, d_hi] and a start anywhere in the initial box: every row holds
    # the state and its image with CHECK_SLACK alone
    _, w_lo, w_hi = siE_noise()
    ws = [w_lo(k) + f * (w_hi(k) - w_lo(k)) for k, f in enumerate(w_frac)]
    ds = [0.01 * np.array(f) for f in d_frac] + [np.zeros(2)]
    box = osc.plant.box_x0
    x0 = box.center + 0.5 * box.width * np.array(x0_frac)
    for trace, s in _realized_run(osc, STEPS, ws, ds, x0):
        x = trace.xs[s.k]
        assert s.resid_hi == 0.0 and s.resid_lo == 0.0
        assert np.all(x >= s.x_lo - CHECK_SLACK) and np.all(x <= s.x_hi + CHECK_SLACK)
        z = eval_T(osc.transform, x)
        assert np.all(z >= s.z_lo - CHECK_SLACK) and np.all(z <= s.z_hi + CHECK_SLACK)


@settings(max_examples=8, deadline=None)
@given(st.integers(20, 40), st.floats(0.05, 1.0), st.booleans())
def test_noise_outside_its_bounds_empties_the_set(osc, k_bad, size, negative):
    # a noise-free run whose output, once, carries noise its bounds exclude
    plant, cfg = osc.plant, osc.observer_cfg
    bump = -size if negative else size
    trace = simulate_plant(plant, np.array([1.0, 0.0]), 60,
                           w=lambda k: np.array([bump if k == k_bad else 0.0]))
    state = init_observer(cfg, plant.box_x0.lo, plant.box_x0.hi)
    zero = np.zeros(1)
    with pytest.raises(EmptyRecoveryError) as err:
        for k in range(60):
            state = recover_x_bounds(step(state, cfg, trace.ys[k], zero, zero), cfg)
    assert err.value.k == k_bad + 1 and f"k={k_bad + 1}" in str(err.value)


@settings(max_examples=8, deadline=None)
@given(st.integers(20, 40), st.tuples(st.floats(-0.2, 0.2), st.floats(-0.2, 0.2))
       .filter(lambda kick: max(map(abs, kick)) >= 0.001))
def test_disturbance_outside_its_bounds_empties_the_set(osc, k_bad, kick):
    # a run declared free of disturbance whose state, once, is kicked: the
    # prior still holds the undisturbed image, so the set empties one step
    # later, once the output of the kicked state arrives
    plant, cfg = osc.plant, osc.observer_cfg
    trace = simulate_plant(plant, np.array([1.0, 0.0]), 60,
                           d=lambda k: np.array(kick) if k == k_bad else np.zeros(2))
    state = init_observer(cfg, plant.box_x0.lo, plant.box_x0.hi)
    zero = np.zeros(1)
    with pytest.raises(EmptyRecoveryError) as err:
        for k in range(60):
            state = step(state, cfg, trace.ys[k], zero, zero, d_lo=np.zeros(2), d_hi=np.zeros(2))
            state = recover_x_bounds(state, cfg)
    assert err.value.k == k_bad + 2


def test_cli_maps_an_empty_set_to_exit_2(monkeypatch, tmp_path, capsys):
    real = harness._noise_profile

    def bad_noise(cfg, plant):
        w, w_lo, w_hi, d, d_lo, d_hi = real(cfg, plant)
        return (lambda k: np.array([0.3 if k == 30 else 0.0])), w_lo, w_hi, d, d_lo, d_hi

    monkeypatch.setattr(harness, "_noise_profile", bad_noise)
    out = tmp_path / "t.csv"
    assert main(["run", "--noise", "off", "--steps", "50", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "state set empty at k=31" in err and "first at k=31" in err
    # the trace stops at the last recovered step
    assert len(out.read_text().strip().split("\n")) == 1 + 31
    assert main(["compare", "--gammas", "1.0", "--noise", "off", "--steps", "50"]) == 2


# The noise-free orbit that passes near the near-singular point of J broke
# enclosure with the paper's recovery (4 violated rows at gamma 1, 3 at 0.7),
# and so did starts on the ray through (-0.3163, 0.1747) at radii 0.361-0.40.
RAY = np.array([-0.3163, 0.1747]) / np.hypot(-0.3163, 0.1747)
ORBIT_STARTS = [[-0.3414, 0.1886]] + [list(r * RAY) for r in (0.361, 0.37, 0.38, 0.39, 0.40)]


@pytest.mark.parametrize("gamma", [1.0, 0.7])
@pytest.mark.parametrize("x0", ORBIT_STARTS, ids=lambda x0: f"r{np.hypot(*x0):.3f}")
def test_near_singular_orbit_exits_0(tmp_path, capsys, gamma, x0):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"x0": x0, "noise": "off", "steps": 300}))
    out = tmp_path / "t.csv"
    assert main(["run", "--config", str(cfg_path), "--gamma", str(gamma), "--out", str(out)]) == 0
    assert "enclosure violations: 0" in capsys.readouterr().out
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows[-1, -2] < 1e-8  # the final width_x
