import numpy as np
import pytest

from kklio import (Box, PlantModel, distinguishability_map, estimate_c_o,
                   estimate_lipschitz, simulate_plant)
from kklio.presets import make_oscillator_plant, siE_noise


def linear_plant(f_mat, h_mat, lo=-2.0, hi=2.0):
    f_mat = np.asarray(f_mat, dtype=float)
    h_mat = np.atleast_2d(np.asarray(h_mat, dtype=float))
    f_inv_mat = np.linalg.inv(f_mat)
    n = f_mat.shape[0]
    box = Box([lo] * n, [hi] * n)
    return PlantModel(
        n_x=n, n_y=h_mat.shape[0],
        f=lambda x: np.asarray(x) @ f_mat.T,
        f_inv=lambda x: np.asarray(x) @ f_inv_mat.T,
        h=lambda x: np.asarray(x) @ h_mat.T,
        box_x=box, box_x0=box, box_x_enlarged=box,
    )


def test_oscillator_one_step():
    plant = make_oscillator_plant(tau=0.1)
    trace = simulate_plant(plant, [1.0, 0.0], steps=3)
    # (x1 - tau*x2, (1-tau^2)*x2 + tau*x1) at (1, 0) gives (1, 0.1)
    np.testing.assert_allclose(trace.xs[1], [1.0, 0.1], rtol=0, atol=1e-15)
    assert len(trace) == 4


def test_simulate_zero_steps():
    plant = make_oscillator_plant()
    trace = simulate_plant(plant, [1.0, 0.0], steps=0)
    assert len(trace) == 1
    np.testing.assert_array_equal(trace.xs[0], [1.0, 0.0])


def test_simulate_noisy_output_at_zero():
    plant = make_oscillator_plant()
    w, _, _ = siE_noise()
    trace = simulate_plant(plant, [1.0, 0.0], steps=2, w=w)
    h0 = plant.h(np.array([1.0, 0.0]))[0]
    assert trace.ys[0, 0] == pytest.approx(h0 + 0.2, abs=1e-15)


def test_simulate_recursion_identity():
    plant = make_oscillator_plant()
    d = lambda k: 0.01 * np.array([np.sin(k), np.cos(k)])
    trace = simulate_plant(plant, [1.0, 0.0], steps=50, d=d)
    for k in range(50):
        expected = np.asarray(plant.f(trace.xs[k])) + trace.ds[k]
        assert np.array_equal(trace.xs[k + 1], expected)


def test_simulate_flags_box_exit():
    plant = make_oscillator_plant()
    big = lambda k: np.array([10.0, 0.0])
    trace = simulate_plant(plant, [1.0, 0.0], steps=3, d=big)
    assert trace.left_box_at == 1


def test_f_inv_roundtrip():
    plant = make_oscillator_plant()
    pts = plant.box_x.sample(np.random.default_rng(5), 1000)
    back = plant.f_inv(plant.f(pts))
    assert np.max(np.abs(back - pts)) <= 1e-9


def test_estimate_lipschitz_linear_oracle():
    f_mat = np.array([[1.2, -0.3], [0.4, 0.9]])
    plant = linear_plant(f_mat, [[1.0, 0.0]])
    c_f, c_h = estimate_lipschitz(plant, samples=4000, seed=1)
    f_inv_norm = np.max(np.abs(np.linalg.inv(f_mat)).sum(axis=1))
    assert f_inv_norm <= c_f <= 1.1 * f_inv_norm + 1e-12
    # identity-like output map: every ratio is the matrix norm of h
    assert 1.0 <= c_h <= 1.1 + 1e-12


def test_estimate_lipschitz_identity_output():
    plant = linear_plant(np.eye(2), np.eye(2))
    _, c_h = estimate_lipschitz(plant, samples=2000, seed=2)
    assert 1.0 <= c_h <= 1.1 + 1e-12


def test_estimate_lipschitz_oscillator_jacobian_oracle():
    # variant with the invariant box as saturation box, so the estimator and
    # the dense-grid Jacobian oracle see the same domain
    base = make_oscillator_plant()
    plant = PlantModel(n_x=2, n_y=1, f=base.f, f_inv=base.f_inv, h=base.h,
                       box_x=base.box_x, box_x0=base.box_x0,
                       box_x_enlarged=base.box_x)
    _, c_h = estimate_lipschitz(plant, samples=40000, seed=3)
    grid = base.box_x.grid(201)
    jac_norm = np.abs(2 * grid[:, 0] + 1) + np.abs(-2 * grid[:, 1] + 1)
    oracle = float(np.max(jac_norm))
    assert abs(c_h - oracle) <= 0.1 * oracle


def test_estimate_lipschitz_monotone_in_samples():
    plant = make_oscillator_plant()
    estimates = [estimate_lipschitz(plant, samples=n, seed=9) for n in (500, 2000, 8000)]
    for (f1, h1), (f2, h2) in zip(estimates, estimates[1:]):
        assert f2 >= f1 and h2 >= h1


def test_estimate_lipschitz_degenerate_box():
    plant = linear_plant(np.eye(2), np.eye(2))
    flat = PlantModel(n_x=2, n_y=2, f=plant.f, f_inv=plant.f_inv, h=plant.h,
                      box_x=Box([0.0, -1.0], [0.0, 1.0]),
                      box_x0=Box([0.0, -1.0], [0.0, 1.0]),
                      box_x_enlarged=Box([0.0, -1.0], [0.0, 1.0]))
    with pytest.raises(ValueError):
        estimate_lipschitz(flat, samples=100, seed=0)


def test_estimate_c_o_rotation_oracle():
    # quarter-turn plant, first coordinate observed: the stacked backward map
    # is a signed permutation, whose min singular value equals its modulus
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    plant = linear_plant(rot, [[1.0, 0.0]])
    est = estimate_c_o(plant, m=(2,), samples=4000, seed=4)
    o_mat = np.vstack([
        np.array([1.0, 0.0]) @ np.linalg.matrix_power(np.linalg.inv(rot), j)
        for j in (1, 2)
    ])
    oracle = float(np.linalg.svd(o_mat, compute_uv=False)[-1])
    assert est == pytest.approx(0.9 * oracle, rel=1e-9)


def test_estimate_c_o_indistinguishable_errors():
    plant = linear_plant(np.eye(2), [[0.0, 0.0]])
    with pytest.raises(ValueError, match="distinguishable"):
        estimate_c_o(plant, m=(2,), samples=500, seed=0)


def test_estimate_c_o_lower_bounds_fresh_ratios():
    # the refined-and-deflated estimate must stay below pair ratios sampled
    # with an independent seed, otherwise it is unusable as a modulus bound
    plant = make_oscillator_plant()
    est = estimate_c_o(plant, m=(4,), samples=4000, seed=8)
    omap = distinguishability_map(plant, (4,))
    rng = np.random.default_rng(99)
    a = plant.box_x.sample(rng, 5000)
    b = plant.box_x.sample(rng, 5000)
    dx = np.max(np.abs(a - b), axis=1)
    mask = dx > 1e-12
    ratios = np.max(np.abs(omap(a) - omap(b)), axis=1)[mask] / dx[mask]
    assert est <= float(np.min(ratios))


def test_distinguishability_map_dimension():
    plant = linear_plant(np.array([[0.9, -0.2], [0.2, 0.9]]), np.eye(2))
    omap = distinguishability_map(plant, m=(2, 3))
    out = omap(np.zeros(2))
    assert out.shape == (5,)


def test_distinguishability_map_equals_stepwise_composition():
    # channel i holds h_i after 1..m_i saturated backward steps; the slow
    # rotation expands backward, so the clamp is active near the corners.
    # h is elementwise: a matmul h may round a (3, n_x) stack of one point
    # differently from each lone step (BLAS picks its kernel by shape)
    base = linear_plant(np.array([[0.9, -0.2], [0.2, 0.9]]), np.eye(2))
    h = lambda x: np.stack([x[..., 0] * x[..., 1], x[..., 0] - x[..., 1] ** 2], axis=-1)
    plant = PlantModel(n_x=2, n_y=2, f=base.f, f_inv=base.f_inv, h=h, box_x=base.box_x,
                       box_x0=base.box_x0, box_x_enlarged=base.box_x_enlarged)
    omap = distinguishability_map(plant, m=(2, 3))
    box = plant.box_x_enlarged
    pts = np.concatenate([plant.box_x.sample(np.random.default_rng(4), 50), box.grid(3)])
    for x in (pts, pts[0], pts[-1]):
        cols = ([], [])
        v = x
        for j in range(3):
            v = np.clip(plant.f_inv(v), box.lo, box.hi)
            y = plant.h(v)
            for i, mi in enumerate((2, 3)):
                if j < mi:
                    cols[i].append(y[..., i])
        assert np.array_equal(omap(x), np.stack(cols[0] + cols[1], axis=-1))


def test_oscillator_c_o_positive():
    plant = make_oscillator_plant()
    est = estimate_c_o(plant, m=(4,), samples=20000, seed=7)
    assert est > 1e-4


def test_backward_orbit_saturates_into_enlarged_box():
    plant = make_oscillator_plant()
    box = plant.box_x_enlarged
    orbit = plant.backward_orbit(np.array([[10.0, -10.0], [0.5, -0.5]]), 4)
    assert orbit.shape == (4, 2, 2)
    # from outside, every iterate is one clamped backward step of the last
    v = np.array([10.0, -10.0])
    for row in orbit[:, 0]:
        v = np.clip(plant.f_inv(v), box.lo, box.hi)
        assert box.contains(row) and np.array_equal(row, v)
    assert np.array_equal(orbit[0, 0], [3.0, -3.0])
    # inside the enlarged box the clamp is inactive
    v = np.array([0.5, -0.5])
    for row in orbit[:, 1]:
        v = plant.f_inv(v)
        assert np.array_equal(row, v)
    assert np.array_equal(plant.backward_orbit(np.array([0.5, -0.5]), 4), orbit[:, 1])


def test_box_nesting_validation():
    with pytest.raises(ValueError):
        PlantModel(n_x=1, n_y=1, f=lambda x: x, f_inv=lambda x: x, h=lambda x: x,
                   box_x=Box([-1.0], [1.0]), box_x0=Box([-2.0], [2.0]),
                   box_x_enlarged=Box([-3.0], [3.0]))


@pytest.mark.parametrize("name, n_y, bad", [
    ("f", 1, True), ("f_inv", 1, True), ("h", 1, True),
    # the oscillator's one-output h under n_y=2: simulation wrote it twice
    ("h", 2, False),
])
def test_plant_checks_map_shapes(name, n_y, bad):
    base = make_oscillator_plant()
    maps = {"f": base.f, "f_inv": base.f_inv, "h": base.h}
    if bad:
        maps[name] = lambda x: np.asarray(x)[..., 0]  # one value per point
    with pytest.raises(ValueError, match=rf"^{name} maps an input of shape \(2, 2\)"):
        PlantModel(n_x=2, n_y=n_y, **maps, box_x=base.box_x, box_x0=base.box_x0,
                   box_x_enlarged=base.box_x_enlarged)


@pytest.mark.parametrize("name", ["f", "f_inv", "h"])
@pytest.mark.parametrize("kind", ["reshapes", "raises"])
def test_plant_checks_maps_on_stacked_input(name, kind):
    # the series transform calls f_inv and h on stacks of batches: a map that
    # handles only (p, n_x) input must fail when the plant is built
    base = make_oscillator_plant()
    maps = {"f": base.f, "f_inv": base.f_inv, "h": base.h}
    if kind == "reshapes":
        maps[name] = lambda x, g=maps[name]: g(np.asarray(x).reshape(-1, 2))
        match = rf"^{name} maps an input of shape \(2, 1, 2\) to shape \(2, \d\), expected"
    else:
        maps[name] = lambda x, g=maps[name]: g(np.einsum("pi->pi", x))
        match = rf"^{name} fails on an input of shape \(2, 1, 2\)"
    with pytest.raises(ValueError, match=match):
        PlantModel(n_x=2, n_y=1, **maps, box_x=base.box_x, box_x0=base.box_x0,
                   box_x_enlarged=base.box_x_enlarged)
