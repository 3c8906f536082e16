import dataclasses

import numpy as np
import pytest

import kklio.presets
from kklio import ClosedFormConstants, gamma_star
from kklio.presets import (DEFAULT_X0, PINNED_PLANT_CONSTANTS, PINNED_TRANSFORM_CONSTANTS,
                           build_oscillator, build_preset, closed_form_constants,
                           make_oscillator_plant, siE_disturbance, siE_noise)


def test_pinned_plant_constants_reproduce():
    b = build_oscillator(gamma=1.0)
    consts, gs_raw = closed_form_constants(b)
    pins = PINNED_PLANT_CONSTANTS
    assert consts.c_f == pytest.approx(pins["c_f"], rel=1e-9)
    assert consts.c_h == pytest.approx(pins["c_h"], rel=1e-9)
    assert consts.c_o == pytest.approx(pins["c_o"], rel=1e-9)
    assert consts.c_c == pytest.approx(pins["c_c"], rel=1e-12)
    assert gs_raw == pytest.approx(pins["gamma_star_raw"], rel=1e-9)


def test_build_leaves_closed_form_constants_out(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the build must not estimate closed-form constants")

    monkeypatch.setattr(kklio.presets, "estimate_lipschitz", refuse)
    monkeypatch.setattr(kklio.presets, "estimate_c_o", refuse)
    monkeypatch.setattr(kklio.presets, "gamma_star", refuse)
    b = build_oscillator(gamma=1.0)
    assert [f.name for f in dataclasses.fields(b.consts)] == ["c_L", "c_I", "m"]


def test_closed_form_constants_looks_up_module_estimator(monkeypatch):
    # the benchmark tracer wraps kklio.presets.estimate_lipschitz and
    # estimate_c_o, so the on-demand function must call them through the
    # module attributes, with the old draws at the seed the bundle was built with
    b = build_oscillator(gamma=1.0, seed=5)
    calls = []

    def fake_lipschitz(plant, samples, seed):
        calls.append(("lipschitz", plant, samples, seed))
        return 2.0, 3.0

    def fake_c_o(plant, m, samples, seed):
        calls.append(("c_o", plant, m, samples, seed))
        return 0.25

    monkeypatch.setattr(kklio.presets, "estimate_lipschitz", fake_lipschitz)
    monkeypatch.setattr(kklio.presets, "estimate_c_o", fake_c_o)
    consts, gs_raw = closed_form_constants(b)
    assert calls == [("lipschitz", b.plant, kklio.presets.LIPSCHITZ_SAMPLES, 5),
                     ("c_o", b.plant, (4,), kklio.presets.C_O_SAMPLES, 7)]
    assert consts == ClosedFormConstants(c_f=2.0, c_h=3.0, c_o=0.25, c_c=b.target.c_c())
    assert gs_raw == gamma_star(consts, b.target)


@pytest.mark.parametrize("gamma", [1.0, 0.7])
def test_pinned_transform_constants_reproduce(gamma):
    b = build_oscillator(gamma=gamma)
    pins = PINNED_TRANSFORM_CONSTANTS[gamma]
    assert b.consts.c_I == pytest.approx(pins["c_I"], rel=1e-9)
    assert b.consts.c == pytest.approx(pins["c"], rel=1e-9)
    assert b.consts.c_L == pytest.approx(pins["c_L"], rel=1e-9)


def test_margin_formula_and_ordering():
    b1 = build_oscillator(gamma=1.0)
    b7 = build_oscillator(gamma=0.7)
    assert b1.observer_cfg.margin_c_over_gamma == pytest.approx(b1.consts.c, rel=1e-12)
    assert b7.observer_cfg.margin_c_over_gamma == pytest.approx(
        b7.consts.c / 0.7**3, rel=1e-12)
    # smaller gain -> larger recovery margin (the conservatism trade-off)
    assert b7.observer_cfg.margin_c_over_gamma > b1.observer_cfg.margin_c_over_gamma


def test_noise_preset_values():
    w, w_lo, w_hi = siE_noise()
    assert w(0)[0] == pytest.approx(0.2)
    assert w_hi(0)[0] == pytest.approx(0.5)  # k=0 guard: 0.5/max(k,1)^2
    assert w_lo(0)[0] == pytest.approx(0.2)
    k = 7
    expected = 0.2 * np.cos(20.0 * k)
    assert w(k)[0] == pytest.approx(expected)
    assert w_hi(k)[0] == pytest.approx(max(expected, 0.5 / k**2))
    assert w_lo(k)[0] == pytest.approx(min(expected, 0.5 / k**2))
    for k in range(50):
        assert w_lo(k)[0] <= w(k)[0] <= w_hi(k)[0]


def test_disturbance_preset_bounded():
    d, d_lo, d_hi = siE_disturbance()
    for k in range(100):
        assert np.all(d(k) >= d_lo(k)) and np.all(d(k) <= d_hi(k))
        assert np.max(np.abs(d(k))) <= 0.01


def test_default_x0_inside_boxes():
    plant = make_oscillator_plant()
    assert plant.box_x0.contains(np.array(DEFAULT_X0))
    assert plant.box_x.contains_box(plant.box_x0)
    assert plant.box_x_enlarged.contains_box(plant.box_x)


def test_backward_orbit_never_saturates():
    # the enlarged box must swallow every backward iterate of the invariant
    # box, otherwise saturation would distort the series on it
    plant = make_oscillator_plant()
    pts = plant.box_x.sample(np.random.default_rng(0), 2000)
    v = pts
    for _ in range(200):
        v = plant.f_inv(v)
        assert np.max(np.abs(v)) < 3.0


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="unknown preset"):
        build_preset("pendulum")
