"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run ``pytest tests/test_acceptance.py -v`` (the lines bypass capture).
"""

import hashlib
import math
import time

import numpy as np
import pytest

from kklio import (CanonicalBlock, InverseConfig, assemble_target_matrix,
                   build_coord_change, eval_T, eval_T_poly, eval_T_series,
                   init_observer, interval_image, invert_T, make_series_transform,
                   step, transform_residual)
from kklio.harness import RunConfig, run_experiment, write_csv
from kklio.presets import build_oscillator

GRID_1000 = 32  # 32x32 lattice over the invariant box ~ 1e3 points


@pytest.fixture(scope="module")
def announce(request):
    manager = request.config.pluginmanager.getplugin("capturemanager")

    def _announce(num, name, ok, extra=""):
        line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
        if extra:
            line += f"  ({extra})"
        with manager.global_and_fixture_disabled():
            print(line, flush=True)
        assert ok, line

    return _announce


@pytest.fixture(scope="module")
def bundle_10():
    return build_oscillator(gamma=1.0)


@pytest.fixture(scope="module")
def bundle_07():
    return build_oscillator(gamma=0.7)


def _timed_run(cfg):
    t0 = time.perf_counter()
    res = run_experiment(cfg)
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def noisy_runs():
    runs = {}
    total = 0.0
    for gamma in (1.0, 0.7):
        res, dt = _timed_run(RunConfig(gamma=gamma, steps=500, noise=True,
                                       window=(100, 500)))
        runs[gamma] = res
        total += dt
    return runs, total


@pytest.fixture(scope="module")
def disturbance_run():
    return _timed_run(RunConfig(gamma=1.0, steps=500, noise=True, disturbance=True,
                                window=(100, 500)))


@pytest.fixture(scope="module")
def noise_free_300():
    return _timed_run(RunConfig(gamma=1.0, steps=300, noise=False, window=(100, 300)))


def test_criterion_01_sylvester_identity(bundle_10, announce):
    t0 = time.perf_counter()
    pts = bundle_10.plant.box_x.grid(GRID_1000)
    resid = transform_residual(bundle_10.transform, pts)
    dt = time.perf_counter() - t0
    announce(1, "sylvester identity (polynomial mode)",
             resid <= 1e-8 and dt < 1.0, f"resid={resid:.2e} in {dt:.2f}s")


def test_criterion_02_series_closed_form_agreement(bundle_10, announce):
    t0 = time.perf_counter()
    t_series = make_series_transform(bundle_10.plant, bundle_10.target, series_tol=1e-9)
    pts = bundle_10.plant.box_x.grid(GRID_1000)
    gap = float(np.max(np.abs(eval_T_series(t_series, pts) - eval_T_poly(bundle_10.transform, pts))))
    dt = time.perf_counter() - t0
    announce(2, "series vs closed form", gap <= 1e-6 and dt < 10.0,
             f"gap={gap:.2e} in {dt:.2f}s")


def test_criterion_03_round_trip_inversion(bundle_10, announce):
    t0 = time.perf_counter()
    cfg = InverseConfig(box=bundle_10.plant.box_x_enlarged)
    pts = bundle_10.plant.box_x.sample(np.random.default_rng(123), 100)
    worst = 0.0
    for x_true in pts:
        x, _ = invert_T(bundle_10.transform, eval_T(bundle_10.transform, x_true), cfg)
        worst = max(worst, float(np.max(np.abs(x - x_true))))
    dt = time.perf_counter() - t0
    announce(3, "round-trip inversion", worst <= 1e-4 and dt < 30.0,
             f"worst={worst:.2e} in {dt:.2f}s")


def test_criterion_04_lipschitz_sandwich(bundle_10, bundle_07, announce):
    t0 = time.perf_counter()
    ok = True
    detail = []
    for b in (bundle_10, bundle_07):
        rng = np.random.default_rng(321)
        a = b.plant.box_x.sample(rng, 10000)
        bb = b.plant.box_x.sample(rng, 10000)
        dx = np.max(np.abs(a - bb), axis=1)
        mask = dx > 1e-12
        dt_pairs = np.max(np.abs(eval_T(b.transform, a) - eval_T(b.transform, bb)), axis=1)
        lower = b.consts.c_I * b.target.gamma ** (b.consts.m_bar - 1) * dx[mask]
        upper = b.consts.c_L * dx[mask]
        viol = int(np.sum(dt_pairs[mask] < lower) + np.sum(dt_pairs[mask] > upper))
        ok = ok and viol == 0
        detail.append(f"gamma={b.target.gamma:g}: {viol} violations")
    dt = time.perf_counter() - t0
    announce(4, "lipschitz sandwich", ok and dt < 10.0, "; ".join(detail) + f" in {dt:.2f}s")


def test_criterion_05_noisy_enclosure(noisy_runs, announce):
    runs, total = noisy_runs
    ok = True
    detail = []
    for gamma, res in runs.items():
        viol = 0
        for r in res.rows:
            if (np.any(r.x < r.x_lo - 1e-9) or np.any(r.x > r.x_hi + 1e-9)
                    or np.any(r.z < r.z_lo - 1e-9) or np.any(r.z > r.z_hi + 1e-9)):
                viol += 1
        ok = ok and viol == 0 and res.summary["violations"] == 0
        detail.append(f"gamma={gamma:g}: {viol} violations/501 rows")
    announce(5, "noisy enclosure 500 steps", ok and total < 120.0,
             "; ".join(detail) + f" in {total:.1f}s")


def test_criterion_06_exact_width_recursion(bundle_10, announce):
    t0 = time.perf_counter()
    cfg = bundle_10.observer_cfg
    plant = bundle_10.plant
    state = init_observer(cfg, plant.box_x0.lo, plant.box_x0.hi)
    x = np.array([1.0, 0.0])
    widths = [float(np.max(state.zhat_hi - state.zhat_lo))]
    for _ in range(15):
        y = np.asarray(plant.h(x), dtype=float)
        state = step(state, cfg, y, np.zeros(1), np.zeros(1))
        widths.append(float(np.max(state.zhat_hi - state.zhat_lo)))
        x = np.asarray(plant.f(x), dtype=float)
    target_ratio = bundle_10.target.gamma * 0.4
    ratios = [widths[k + 1] / widths[k] for k in range(1, 15)]
    worst = max(abs(r - target_ratio) for r in ratios)
    dt = time.perf_counter() - t0
    announce(6, "exact width recursion", worst <= 1e-9 and dt < 5.0,
             f"max |ratio-{target_ratio}| = {worst:.2e} in {dt:.2f}s")


def test_criterion_07_convergence(noise_free_300, announce):
    res, dt = noise_free_300
    widths = [r.width_x for r in res.rows]
    final_ok = widths[300] <= 1e-3
    peak = int(np.argmax(widths))
    monotone_ok = all(widths[k + 1] <= widths[k] + 1e-9 for k in range(peak, 300))
    peaked = widths[peak] > widths[0]  # transient grows above the initial box
    announce(7, "noise-free convergence", final_ok and monotone_ok and peaked,
             f"width(300)={widths[300]:.2e}, peak {widths[peak]:.3g} at k={peak}, "
             f"monotone after peak={monotone_ok}, run {dt:.1f}s")


def test_criterion_08_gamma_conservatism(noisy_runs, announce):
    runs, _ = noisy_runs
    m07 = runs[0.7].summary["mean_width_x_window"]
    m10 = runs[1.0].summary["mean_width_x_window"]
    announce(8, "gamma conservatism ordering", m07 > m10,
             f"mean width gamma=0.7: {m07:.4g} > gamma=1.0: {m10:.4g}")


def test_criterion_09_interval_image_suite(announce):
    t0 = time.perf_counter()
    rng = np.random.default_rng(987)
    n = 10000
    m = rng.normal(size=(n, 4, 4)) * 2.5
    a_lo = rng.uniform(-4, 0, size=(n, 4))
    a_hi = a_lo + rng.uniform(0, 4, size=(n, 4))
    a = a_lo + rng.uniform(0, 1, size=(n, 4)) * (a_hi - a_lo)
    lo, hi = np.empty((n, 4)), np.empty((n, 4))
    for k in range(n):
        lo[k], hi[k] = interval_image(m[k], a_lo[k], a_hi[k])
    ma = np.einsum("kij,kj->ki", m, a)
    ok = bool(np.all(lo <= ma) and np.all(ma <= hi))
    dt = time.perf_counter() - t0
    announce(9, "interval image containment 1e4 cases", ok and dt < 1.0, f"in {dt:.2f}s")


def test_criterion_10_frame_construction(announce):
    t0 = time.perf_counter()
    blocks = [
        CanonicalBlock.negative_real(-0.6),
        CanonicalBlock.rotation(0.85, math.pi / 5),
        CanonicalBlock.positive_real(0.4),
    ]
    seq = build_coord_change(blocks, gamma=0.95)
    a = assemble_target_matrix(blocks, 0.95)
    const_ok = all(
        np.max(np.abs(seq.R(k + 1) @ a @ seq.S(k) - seq.Lambda)) <= 1e-12
        for k in range(51)
    )
    nonneg_ok = bool(np.all(seq.Lambda >= 0.0))
    schur_ok = float(np.max(np.abs(np.linalg.eigvals(seq.Lambda)))) < 1.0
    fwd, inv = seq.frame_norms(np.arange(10001))
    bound_ok = bool(np.all(fwd + inv <= seq.sigma + 1e-12))
    dt = time.perf_counter() - t0
    announce(10, "frame sequence construction",
             const_ok and nonneg_ok and schur_ok and bound_ok and dt < 1.0,
             f"sigma={seq.sigma:.4g} in {dt:.2f}s")


def test_criterion_11_disturbance_path(disturbance_run, announce):
    res, dt = disturbance_run
    widths = np.array([r.width_x for r in res.rows])
    bounded = float(widths[250:].max()) <= 1.5 * float(widths[50:250].max()) + 1e-6
    ok = res.summary["violations"] == 0 and bounded
    announce(11, "bounded-disturbance enclosure", ok,
             f"violations={res.summary['violations']}, "
             f"late/mid width ratio={widths[250:].max() / widths[50:250].max():.3f}, "
             f"run {dt:.1f}s")


def test_criterion_12_determinism(tmp_path, announce):
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    run_experiment(RunConfig(steps=40, noise=True, window=(10, 40), out=str(out1)))
    run_experiment(RunConfig(steps=40, noise=True, window=(10, 40), out=str(out2)))
    ok = out1.read_bytes() == out2.read_bytes()
    announce(12, "byte-identical traces", ok)


# sha256 of the CSV traces of the suite's own 500-step runs (numpy 2.4.6);
# a change meant to keep behaviour must keep them, one that changes numbers
# updates them on purpose
GOLDEN_SHA256 = {
    "noise-g1": "7cf71a939d6eb51c7881bb498ad4e6bbc87dcfc1a8804de484016a47263563d1",
    "noise-g07": "9e7badecb174d00f54eccd1d3480a0616d189e879daecc3f1412dcec1ef1c4bd",
    "noise-dist-g1": "b09cf8ac7251bb519e703fce5ed15d6fabf03faefeff98bd909c5679ffc40770",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_golden_trace_sha256(name, request, tmp_path):
    if name == "noise-dist-g1":
        res, _ = request.getfixturevalue("disturbance_run")
    else:
        runs, _ = request.getfixturevalue("noisy_runs")
        res = runs[1.0 if name == "noise-g1" else 0.7]
    path = tmp_path / f"{name}.csv"
    write_csv(str(path), res.rows)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256[name]
