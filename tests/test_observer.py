import hashlib

import numpy as np
import pytest

from kklio import (eval_T, init_observer, interval_image, inf_norm,
                   mixed_monotone_bounds, recover_x_bounds,
                   recover_x_mixed_monotone, simulate_plant, split_neg, split_pos, step)
from kklio.presets import build_oscillator, siE_disturbance, siE_noise


@pytest.fixture(scope="module")
def osc():
    return build_oscillator(gamma=1.0)


def run_observer(bundle, steps, noise=True, disturbance=False, x0=(1.0, 0.0)):
    plant = bundle.plant
    w, w_lo, w_hi = siE_noise()
    if not noise:
        zero = np.zeros(1)
        w, w_lo, w_hi = (lambda k: zero), (lambda k: zero), (lambda k: zero)
    d = d_lo = d_hi = None
    if disturbance:
        d, d_lo, d_hi = siE_disturbance()
    trace = simulate_plant(plant, np.asarray(x0), steps, w=w, d=d)
    cfg = bundle.observer_cfg
    state = init_observer(cfg, plant.box_x0.lo, plant.box_x0.hi)
    states = [state]
    for k in range(steps):
        kw = dict(d_lo=d_lo(k), d_hi=d_hi(k)) if disturbance else {}
        state = step(state, cfg, trace.ys[k], w_lo(k), w_hi(k), **kw)
        state = recover_x_bounds(state, cfg)
        states.append(state)
    return trace, states


def test_init_point_box(osc):
    x0 = np.array([0.7, -0.1])
    state = init_observer(osc.observer_cfg, x0, x0)
    z0 = eval_T(osc.transform, x0)
    np.testing.assert_allclose(state.z_hi, z0, atol=1e-14)
    np.testing.assert_allclose(state.z_lo, z0, atol=1e-14)
    np.testing.assert_allclose(state.zhat_hi, osc.coord.R(0) @ z0, atol=1e-14)


def test_init_identity_frame_passthrough(osc):
    state = init_observer(osc.observer_cfg, osc.plant.box_x0.lo, osc.plant.box_x0.hi)
    np.testing.assert_array_equal(state.zhat_hi, state.z_hi)
    np.testing.assert_array_equal(state.zhat_lo, state.z_lo)


def test_init_width_identity(osc):
    lo, hi = osc.plant.box_x0.lo, osc.plant.box_x0.hi
    state = init_observer(osc.observer_cfg, lo, hi)
    t_hi = eval_T(osc.transform, hi)
    t_lo = eval_T(osc.transform, lo)
    spread = float(np.max(hi - lo))
    expected = 2.0 * osc.consts.c_L * spread - np.abs(t_hi - t_lo)
    np.testing.assert_allclose(state.z_hi - state.z_lo, expected, atol=1e-12)
    assert np.all(state.z_hi - state.z_lo >= 0.0)


def test_init_rejects_unordered(osc):
    # a NaN corner compares false, so only the finiteness check stops it
    for lo, hi in (([1.0, 0.0], [0.0, 1.0]), ([np.nan, 0.0], [1.0, 1.0]),
                   ([0.0, 0.0], [1.0, np.nan])):
        with pytest.raises(ValueError):
            init_observer(osc.observer_cfg, lo, hi)


def test_observer_config_derives_margin_and_checks_gamma(osc):
    from dataclasses import replace

    from kklio import ObserverConfig
    cfg = osc.observer_cfg
    kw = dict(transform=cfg.transform, coord=cfg.coord, consts=cfg.consts,
              gamma=cfg.gamma, inverse_cfg=cfg.inverse_cfg)
    assert ObserverConfig(**kw).margin_c_over_gamma == cfg.margin_c_over_gamma
    assert cfg.consts.c == 1.0 / cfg.consts.c_I
    with pytest.raises(TypeError):
        replace(cfg.consts, c=1.0)
    # a larger gain than the transform's would shrink the guaranteed margin
    with pytest.raises(ValueError, match="gamma"):
        ObserverConfig(**dict(kw, gamma=1.5 * cfg.gamma))
    with pytest.raises(ValueError, match="min_max"):
        ObserverConfig(**kw, recovery_variant="swapped")
    with pytest.raises(TypeError):
        ObserverConfig(**kw, margin_c_over_gamma=1.0)


def test_step_rejects_unordered_noise(osc):
    state = init_observer(osc.observer_cfg, osc.plant.box_x0.lo, osc.plant.box_x0.hi)
    with pytest.raises(ValueError):
        step(state, osc.observer_cfg, np.zeros(1), np.array([0.1]), np.array([-0.1]))


@pytest.mark.parametrize("arg", ["y_k", "w_lo", "w_hi", "d_lo", "d_hi"])
def test_step_rejects_non_finite(osc, arg):
    # a NaN compares false, so without the finiteness check it would pass
    # the ordering checks and poison every later bound
    state = init_observer(osc.observer_cfg, osc.plant.box_x0.lo, osc.plant.box_x0.hi)
    n_x = osc.plant.n_x
    good = dict(y_k=np.zeros(1), w_lo=np.array([-0.1]), w_hi=np.array([0.1]),
                d_lo=np.full(n_x, -0.01), d_hi=np.full(n_x, 0.01))
    step(state, osc.observer_cfg, **good)
    for bad in (np.nan, np.inf, -np.inf):
        kw = dict(good, **{arg: np.full_like(good[arg], bad)})
        with pytest.raises(ValueError, match=arg):
            step(state, osc.observer_cfg, **kw)


def test_noise_free_width_recursion(osc):
    _, states = run_observer(osc, steps=10, noise=False)
    lam = osc.coord.Lambda
    for s0, s1 in zip(states, states[1:]):
        w0 = s0.zhat_hi - s0.zhat_lo
        w1 = s1.zhat_hi - s1.zhat_lo
        np.testing.assert_allclose(w1, lam @ w0, rtol=0, atol=1e-12 * (1 + inf_norm(w0)))


def test_known_noise_collapses_to_shift(osc):
    cfg = osc.observer_cfg
    state = init_observer(cfg, osc.plant.box_x0.lo, osc.plant.box_x0.hi)
    y = np.array([0.4])
    w = np.array([0.17])
    with_w = step(state, cfg, y, w, w)
    without = step(state, cfg, y, np.zeros(1), np.zeros(1))
    rb = cfg.coord.R(1) @ cfg.transform.target.B
    shift = rb @ w
    np.testing.assert_allclose(with_w.zhat_hi, without.zhat_hi - shift, atol=1e-14)
    np.testing.assert_allclose(with_w.zhat_lo, without.zhat_lo - shift, atol=1e-14)
    w_with = with_w.zhat_hi - with_w.zhat_lo
    w_without = without.zhat_hi - without.zhat_lo
    np.testing.assert_allclose(w_with, w_without, atol=1e-14)


def test_noisy_enclosure_200_steps(osc):
    trace, states = run_observer(osc, steps=200, noise=True)
    for k, s in enumerate(states):
        z_true = eval_T(osc.transform, trace.xs[k])
        assert np.all(z_true >= s.z_lo - 1e-9)
        assert np.all(z_true <= s.z_hi + 1e-9)
        assert np.all(trace.xs[k] >= s.x_lo - 1e-9)
        assert np.all(trace.xs[k] <= s.x_hi + 1e-9)
        assert np.all(s.z_lo <= s.z_hi + 1e-12)
        assert np.all(s.x_lo <= s.x_hi + 1e-9)


def test_monotone_noise_dependence(osc):
    cfg = osc.observer_cfg
    state = init_observer(cfg, osc.plant.box_x0.lo, osc.plant.box_x0.hi)
    y = np.array([0.3])
    narrow = step(state, cfg, y, np.array([-0.1]), np.array([0.2]))
    wide = step(state, cfg, y, np.array([-0.3]), np.array([0.5]))
    assert np.all(wide.zhat_hi >= narrow.zhat_hi - 1e-14)
    assert np.all(wide.zhat_lo <= narrow.zhat_lo + 1e-14)


def test_disturbance_widens_bounds(osc):
    cfg = osc.observer_cfg
    state = init_observer(cfg, osc.plant.box_x0.lo, osc.plant.box_x0.hi)
    y = np.array([0.3])
    plain = step(state, cfg, y, np.array([-0.1]), np.array([0.1]))
    bumped = step(state, cfg, y, np.array([-0.1]), np.array([0.1]),
                  d_lo=-0.01 * np.ones(2), d_hi=0.01 * np.ones(2))
    delta = cfg.consts.c_L * 0.01
    np.testing.assert_allclose(bumped.zhat_hi, plain.zhat_hi + delta, atol=1e-12)
    np.testing.assert_allclose(bumped.zhat_lo, plain.zhat_lo - delta, atol=1e-12)


def test_recovery_at_k0_returns_initial_box(osc):
    cfg = osc.observer_cfg
    state = init_observer(cfg, osc.plant.box_x0.lo, osc.plant.box_x0.hi)
    same = recover_x_bounds(state, cfg)
    np.testing.assert_array_equal(same.x_lo, osc.plant.box_x0.lo)
    np.testing.assert_array_equal(same.x_hi, osc.plant.box_x0.hi)


def test_zero_width_recovery_hits_state(osc):
    from dataclasses import replace
    cfg = osc.observer_cfg
    x_bar = np.array([0.8, -0.3])
    z = eval_T(osc.transform, x_bar)
    state = init_observer(cfg, x_bar, x_bar)
    state = replace(state, k=1, z_hi=z.copy(), z_lo=z.copy())
    state = recover_x_bounds(state, cfg)
    assert np.max(np.abs(state.x_hi - x_bar)) <= 1e-4
    assert np.max(np.abs(state.x_lo - x_bar)) <= 1e-4


@pytest.fixture(scope="module")
def noisy_run(osc):
    return run_observer(osc, steps=120, noise=True)


_ABLATIONS = {
    "min_max": lambda u, v, m: (np.maximum(u, v) - m, np.minimum(u, v) + m),
    "plus_only": lambda u, v, m: (u - m, u + m),
    "minus_only": lambda u, v, m: (v - m, v + m),
    "swapped": lambda u, v, m: (np.minimum(u, v) - m, np.maximum(u, v) + m),
}


@pytest.mark.parametrize("variant", ["min_max", "plus_only", "minus_only", "swapped"])
def test_recovery_variants_enclose(osc, noisy_run, variant):
    # recovery returns the intersection box (min_max); the box around one
    # inverse alone (u or v) and the hull of both are each valid too, and
    # each contains the returned box, so only the intersection is computed
    trace, states = noisy_run
    coeff = osc.observer_cfg.margin_c_over_gamma
    for k, s in enumerate(states):
        lo, hi = s.x_lo, s.x_hi
        if k > 0:
            margin = coeff * float(np.max(s.z_hi - s.z_lo))
            lo, hi = _ABLATIONS[variant](s.inv_hi, s.inv_lo, margin)
            assert np.all(lo <= s.x_lo) and np.all(s.x_hi <= hi)
            if variant == "min_max":
                assert np.array_equal(lo, s.x_lo) and np.array_equal(hi, s.x_hi)
        assert np.all(trace.xs[k] >= lo - 1e-9) and np.all(trace.xs[k] <= hi + 1e-9)
        assert np.all(trace.xs[k] >= s.x_lo - 1e-9) and np.all(trace.xs[k] <= s.x_hi + 1e-9)


def test_width_bound_along_run(osc):
    _, states = run_observer(osc, steps=120, noise=True)
    margin = osc.observer_cfg.margin_c_over_gamma
    for s in states[1:]:
        width_x = inf_norm(s.x_hi - s.x_lo)
        width_z = inf_norm(s.z_hi - s.z_lo)
        assert width_x <= 3.0 * margin * width_z + 2e-4


def test_series_mode_observer_end_to_end(osc):
    # the full recursion with the generic truncated-series transform: slower
    # per evaluation but must deliver the same guarantees
    from kklio import InverseConfig, ObserverConfig, make_series_transform
    t_series = make_series_transform(osc.plant, osc.target, series_tol=1e-9)
    cfg = ObserverConfig(transform=t_series, coord=osc.coord, consts=osc.consts,
                         gamma=osc.target.gamma,
                         inverse_cfg=InverseConfig(box=osc.plant.box_x_enlarged))
    w, w_lo, w_hi = siE_noise()
    trace = simulate_plant(osc.plant, np.array([1.0, 0.0]), 12, w=w)
    state = init_observer(cfg, osc.plant.box_x0.lo, osc.plant.box_x0.hi)
    digest = hashlib.sha256()
    for k in range(12):
        state = step(state, cfg, trace.ys[k], w_lo(k), w_hi(k))
        state = recover_x_bounds(state, cfg)
        x = trace.xs[k + 1]
        assert np.all(x >= state.x_lo - 1e-9) and np.all(x <= state.x_hi + 1e-9)
        z = eval_T(t_series, x)
        assert np.all(z >= state.z_lo - 1e-9) and np.all(z <= state.z_hi + 1e-9)
        digest.update(np.concatenate([state.x_lo, state.x_hi,
                                      [state.resid_hi, state.resid_lo]]).tobytes())
    # byte pin of the recovered series-mode states (numpy 2.4.6; the same
    # with one and two BLAS threads)
    assert digest.hexdigest() == (
        "f94c44b4c9b9eb5bad954c5fbad9ea61a06b7210190aab5b3e861566ee553dd2")


def test_mixed_monotone_linear_decomposition():
    p_mat = np.array([[0.5, -0.25, 0.1, 0.0], [0.2, 0.3, -0.4, 0.05]])

    def decomp(u, v):
        return split_pos(p_mat) @ u - split_neg(p_mat) @ v

    z_lo = np.array([-1.0, 0.0, 0.5, -0.2])
    z_hi = np.array([0.5, 1.0, 0.75, 0.1])
    x_lo, x_hi = mixed_monotone_bounds(decomp, z_lo, z_hi)
    oracle_lo, oracle_hi = interval_image(p_mat, z_lo, z_hi)
    np.testing.assert_array_equal(x_lo, oracle_lo)
    np.testing.assert_array_equal(x_hi, oracle_hi)


def test_mixed_monotone_degenerate_interval():
    p_mat = np.array([[1.0, 0.5], [0.0, 2.0]])

    def decomp(u, v):
        return split_pos(p_mat) @ u - split_neg(p_mat) @ v

    z = np.array([0.3, -0.6])
    x_lo, x_hi = mixed_monotone_bounds(decomp, z, z)
    np.testing.assert_allclose(x_lo, p_mat @ z, atol=1e-15)
    np.testing.assert_array_equal(x_lo, x_hi)


def test_mixed_monotone_tighter_than_margin_form():
    # componentwise increasing inverse: decomposition bounds must sit inside
    # the margin-based bounds whenever the margin covers the map's gain
    rng = np.random.default_rng(5)
    p_mat = np.abs(rng.normal(size=(2, 4)))
    margin_coeff = float(np.abs(p_mat).sum(axis=1).max())

    def decomp(u, v):
        return p_mat @ u

    for _ in range(50):
        z_lo = rng.normal(size=4)
        z_hi = z_lo + rng.uniform(0, 1, size=4)
        mm_lo, mm_hi = mixed_monotone_bounds(decomp, z_lo, z_hi)
        u, v = p_mat @ z_hi, p_mat @ z_lo
        margin = margin_coeff * np.max(z_hi - z_lo)
        wide_hi = np.minimum(u, v) + margin
        wide_lo = np.maximum(u, v) - margin
        assert np.all(mm_hi <= wide_hi + 1e-12)
        assert np.all(mm_lo >= wide_lo - 1e-12)


def test_mixed_monotone_rejects_bad_decomposition(osc):
    from dataclasses import replace
    cfg = osc.observer_cfg
    x_bar = np.array([0.5, 0.5])
    z = eval_T(osc.transform, x_bar)
    state = init_observer(cfg, x_bar, x_bar)
    state = replace(state, k=1, z_hi=z + 0.01, z_lo=z - 0.01)

    def wrong(u, v):
        return np.array([10.0, 10.0])

    with pytest.raises(ValueError, match="diagonal"):
        recover_x_mixed_monotone(state, cfg, wrong)


def test_mixed_monotone_accepts_consistent_decomposition(osc):
    from dataclasses import replace
    from kklio import invert_T
    cfg = osc.observer_cfg
    x_bar = np.array([0.5, 0.5])
    z = eval_T(osc.transform, x_bar)
    state = init_observer(cfg, x_bar, x_bar)
    state = replace(state, k=1, z_hi=z.copy(), z_lo=z.copy())

    def decomp(u, v):
        x, _ = invert_T(cfg.transform, np.asarray(u, dtype=float), cfg.inverse_cfg)
        return x

    x_lo, x_hi = recover_x_mixed_monotone(state, cfg, decomp)
    np.testing.assert_allclose(x_lo, x_hi, atol=1e-12)
    assert np.max(np.abs(x_lo - x_bar)) <= 1e-4
