import hashlib

import numpy as np
import pytest

from kklio import Box, eval_T, inf_norm, init_observer, recover_x_bounds, simulate_plant, step
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


def test_init_rejects_box_outside_invariant_box(osc):
    # c_L is sampled on the plant's boxes; a wider initial box gets no valid pad
    with pytest.raises(ValueError, match=r"initial box lo=\[-5.0, -5.0\] hi=\[5.0, 5.0\] must lie "
                                         r"inside the invariant box lo=\[-2.0, -2.0\] hi=\[2.0, 2.0\]"):
        init_observer(osc.observer_cfg, [-5.0, -5.0], [5.0, 5.0])


@pytest.mark.parametrize("lo, hi", [([0, 0, 0], [1, 1, 1]), ([0], [1]), ([0, 0], [1, 1, 1])],
                         ids=["both-3", "both-1", "hi-3"])
def test_init_rejects_corners_of_other_length(osc, lo, hi):
    # not numpy's broadcast error from the box check: the message names the arguments
    with pytest.raises(ValueError, match=r"^x0_lo and x0_hi need length n_x=2, got \("):
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


def test_observer_config_checks_orders(osc):
    from dataclasses import replace

    from kklio import ObserverConfig
    cfg = osc.observer_cfg
    # m_bar is the margin's exponent, so other orders would give another margin
    with pytest.raises(ValueError, match="orders"):
        ObserverConfig(transform=cfg.transform, coord=cfg.coord,
                       consts=replace(cfg.consts, m=(1,)), gamma=cfg.gamma,
                       inverse_cfg=cfg.inverse_cfg)


def test_observer_config_rejects_frames_of_other_target(osc):
    from kklio import CanonicalBlock, ObserverConfig, build_coord_change
    from kklio.presets import DEFAULT_LAMBDAS
    cfg = osc.observer_cfg
    # frames for the same eigenvalues in reverse order propagate another matrix
    coord = build_coord_change([CanonicalBlock.positive_real(l)
                                for l in reversed(DEFAULT_LAMBDAS)], cfg.gamma)
    with pytest.raises(ValueError, match="coordinate frames do not match"):
        ObserverConfig(transform=cfg.transform, coord=coord, consts=cfg.consts,
                       gamma=cfg.gamma, inverse_cfg=cfg.inverse_cfg)


def test_observer_config_rejects_frames_at_other_gamma(osc):
    from kklio import ObserverConfig, build_coord_change
    cfg = osc.observer_cfg
    # the target's own blocks, framed for another gain, give another Lambda
    coord = build_coord_change(osc.target.blocks, 0.7)
    with pytest.raises(ValueError, match="coordinate frames do not match"):
        ObserverConfig(transform=cfg.transform, coord=coord, consts=cfg.consts,
                       gamma=cfg.gamma, inverse_cfg=cfg.inverse_cfg)


def test_observer_config_checks_inversion_box(osc):
    from kklio import InverseConfig, ObserverConfig
    cfg = osc.observer_cfg
    plant = osc.plant
    kw = dict(transform=cfg.transform, coord=cfg.coord, consts=cfg.consts, gamma=cfg.gamma)
    # c_L and c_I are sampled on the enlarged box: an inverse outside it is
    # not covered by the margin, and one that cannot reach the invariant box
    # misses states the observer must enclose
    for lo, hi in (([-4.0, -3.0], [3.0, 3.0]), ([-3.0, -3.0], [3.0, 3.5]),
                   ([-1.0, -2.0], [2.0, 2.0]), ([-2.0, -2.0], [2.0, 1.5])):
        with pytest.raises(ValueError, match="inversion box"):
            ObserverConfig(**kw, inverse_cfg=InverseConfig(box=Box(lo, hi)))
    for box in (plant.box_x, plant.box_x_enlarged):
        ObserverConfig(**kw, inverse_cfg=InverseConfig(box=box))


def test_step_rejects_unordered_noise(osc):
    state = init_observer(osc.observer_cfg, osc.plant.box_x0.lo, osc.plant.box_x0.hi)
    with pytest.raises(ValueError):
        step(state, osc.observer_cfg, np.zeros(1), np.array([0.1]), np.array([-0.1]))


def test_step_rejects_unordered_disturbance(osc):
    state = init_observer(osc.observer_cfg, osc.plant.box_x0.lo, osc.plant.box_x0.hi)
    with pytest.raises(ValueError, match="disturbance bounds are not ordered"):
        step(state, osc.observer_cfg, np.zeros(1), np.array([-0.1]), np.array([0.1]),
             d_lo=np.full(2, 0.01), d_hi=np.full(2, -0.01))


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


@pytest.mark.parametrize("arg", ["y_k", "w_lo", "w_hi", "d_lo", "d_hi"])
def test_step_rejects_inputs_of_other_shape(osc, arg):
    # only the max norm of the disturbance bounds is read, so without the
    # check any shape passed; a wrong y_k failed in numpy's matmul
    state = init_observer(osc.observer_cfg, osc.plant.box_x0.lo, osc.plant.box_x0.hi)
    n = 1 if arg in ("y_k", "w_lo", "w_hi") else osc.plant.n_x
    good = dict(y_k=np.zeros(1), w_lo=np.array([-0.1]), w_hi=np.array([0.1]),
                d_lo=np.full(osc.plant.n_x, -0.01), d_hi=np.full(osc.plant.n_x, 0.01))
    step(state, osc.observer_cfg, **good)
    sign = -1.0 if arg.endswith("lo") else 1.0
    for bad in (np.full(n + 1, sign * 0.01), np.float64(sign * 0.01), np.full((n, n), sign * 0.01)):
        with pytest.raises(ValueError, match=rf"^{arg} needs shape \({n},\), got"):
            step(state, osc.observer_cfg, **dict(good, **{arg: bad}))


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
    # a hand-built state carries no prior: set inversion starts from the enlarged box
    assert state.prior is None
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
    # the paper's box, kept as a diagnostic, is the intersection box
    # (min_max); the box around one inverse alone (u or v) and the hull of
    # both are each valid too, and each contains the paper's box, so only
    # the intersection is computed
    trace, states = noisy_run
    coeff = osc.observer_cfg.margin_c_over_gamma
    for k, s in enumerate(states):
        lo, hi = s.x_lo, s.x_hi
        if k > 0:
            margin = coeff * float(np.max(s.z_hi - s.z_lo))
            lo, hi = _ABLATIONS[variant](s.inv_hi, s.inv_lo, margin)
            assert np.all(lo <= s.paper_lo) and np.all(s.paper_hi <= hi)
            if variant == "min_max":
                assert np.array_equal(lo, s.paper_lo) and np.array_equal(hi, s.paper_hi)
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
        "2991f4eeae22597f6c568390918a6113ea24910f9bf538b0a46bae930d8ea706")
