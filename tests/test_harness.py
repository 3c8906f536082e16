import json

import numpy as np
import pytest

from kklio.cli import main
from kklio.harness import RunConfig, compare_gammas, csv_header, format_comparison, run_experiment


@pytest.fixture(scope="module")
def short_noisy(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "short.csv"
    cfg = RunConfig(steps=40, noise=True, window=(10, 40), out=str(out))
    return run_experiment(cfg), out


def test_csv_header_schema():
    assert csv_header(2, 4, 1) == (
        "k,x1,x2,x_lo1,x_lo2,x_hi1,x_hi2,z1,z2,z3,z4,"
        "z_lo1,z_lo2,z_lo3,z_lo4,z_hi1,z_hi2,z_hi3,z_hi4,"
        "y1,w1,resid_hi,resid_lo,width_x,width_z"
    )


def test_steps_one_csv_rows(tmp_path):
    out = tmp_path / "one.csv"
    run_experiment(RunConfig(steps=1, noise=False, window=(0, 1), out=str(out)))
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 3  # header + k=0 + k=1
    assert lines[1].split(",")[0] == "0"
    assert lines[2].split(",")[0] == "1"


def test_run_summary_contents(short_noisy):
    res, _ = short_noisy
    s = res.summary
    assert s["violations"] == 0
    assert s["first_violation_k"] is None
    assert np.isfinite(s["mean_width_x_window"])
    assert len(res.rows) == 41


def test_rows_against_recomputed_truth(short_noisy):
    res, _ = short_noisy
    # independent recomputation of the plant trajectory
    from kklio.presets import make_oscillator_plant, siE_noise
    plant = make_oscillator_plant()
    w, _, _ = siE_noise()
    x = np.array([1.0, 0.0])
    for r in res.rows:
        np.testing.assert_allclose(r.x, x, atol=1e-12)
        np.testing.assert_allclose(r.y, plant.h(x) + w(r.k), atol=1e-12)
        x = np.asarray(plant.f(x))


def test_determinism_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    cfg1 = RunConfig(steps=25, noise=True, window=(5, 25), out=str(out1))
    cfg2 = RunConfig(steps=25, noise=True, window=(5, 25), out=str(out2))
    run_experiment(cfg1)
    run_experiment(cfg2)
    assert out1.read_bytes() == out2.read_bytes()


def test_compare_single_gamma_matches_run():
    cfg = RunConfig(steps=30, noise=True, window=(10, 30))
    table = compare_gammas(cfg, [1.0])
    solo = run_experiment(RunConfig(steps=30, noise=True, window=(10, 30), gamma=1.0))
    assert len(table) == 1
    assert table[0]["mean_width_x_window"] == solo.summary["mean_width_x_window"]
    assert table[0]["violations"] == solo.summary["violations"]


def test_compare_sorted_regardless_of_input_order():
    cfg = RunConfig(steps=25, noise=True, window=(5, 25))
    t1 = compare_gammas(cfg, [1.0, 0.7])
    t2 = compare_gammas(cfg, [0.7, 1.0])
    assert [s["gamma"] for s in t1] == [0.7, 1.0]
    assert [s["gamma"] for s in t2] == [0.7, 1.0]
    assert t1[0]["mean_width_x_window"] == t2[0]["mean_width_x_window"]
    text = format_comparison(t1)
    assert "gamma" in text and "0.7" in text


def test_svg_output(tmp_path):
    svg = tmp_path / "chart.svg"
    run_experiment(RunConfig(steps=20, noise=True, window=(5, 20), svg=str(svg)))
    content = svg.read_text()
    assert content.startswith("<svg")
    assert content.count("<polyline") == 6  # 3 curves per state component
    assert "x1:" in content and "x2:" in content


def test_coeffs_reuse_roundtrip(tmp_path):
    from kklio.presets import build_oscillator
    from kklio.transform import save_coefficients
    path = tmp_path / "coeffs.txt"
    save_coefficients(build_oscillator(gamma=1.0).transform, path)
    res = run_experiment(RunConfig(steps=5, noise=False, window=(0, 5), coeffs=str(path)))
    assert res.summary["violations"] == 0


def test_window_falls_back_when_out_of_range():
    res = run_experiment(RunConfig(steps=20, noise=True))  # default window starts at 100
    s = res.summary
    assert s["window"] == (10, 20)
    assert np.isfinite(s["mean_width_x_window"])


def test_noise_free_decay_rate_matches_largest_eigenvalue():
    res = run_experiment(RunConfig(steps=25, noise=False, window=(5, 25), gamma=1.0))
    assert abs(res.summary["decay_rate_z"] - 0.4) <= 1e-9


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        RunConfig(steps=0)
    with pytest.raises(ValueError):
        RunConfig(gamma=1.5)
    with pytest.raises(ValueError):
        RunConfig(gamma=0.0)


# --- CLI ----------------------------------------------------------------------


def test_cli_run_ok(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = main(["run", "--steps", "15", "--noise", "off", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "enclosure violations: 0" in captured.out
    assert out.exists()


def test_cli_bad_gamma_exit_3(capsys):
    assert main(["run", "--gamma", "2.0", "--steps", "5"]) == 3
    assert "configuration error" in capsys.readouterr().err


def test_cli_unknown_preset_exit_3(capsys):
    assert main(["run", "--preset", "nope", "--steps", "5"]) == 3


def test_cli_compare(capsys):
    code = main(["compare", "--gammas", "1.0", "--steps", "10", "--noise", "on"])
    assert code == 0
    assert "gamma" in capsys.readouterr().out


def test_cli_compare_requires_gammas(capsys):
    assert main(["compare", "--steps", "5"]) == 3


def test_cli_constants(capsys):
    code = main(["constants", "--preset", "oscillator-siE"])
    out = capsys.readouterr().out
    assert code == 0
    assert "c_f=" in out and "gamma_star" in out and "c_I=" in out


def test_cli_config_file_merge(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    cfg_path.write_text(json.dumps({"steps": 12, "noise": "off", "gamma": 0.9}))
    # config supplies steps/noise/gamma; CLI overrides gamma
    assert main(["run", "--config", str(cfg_path), "--gamma", "1.0",
                 "--out", str(out_a)]) == 0
    assert main(["run", "--steps", "12", "--noise", "off", "--gamma", "1.0",
                 "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_cli_config_unknown_key_exit_3(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"stepz": 12}))
    assert main(["run", "--config", str(cfg_path)]) == 3


def test_cli_config_variant_key_exit_3(tmp_path, capsys):
    # recovery has one rule, so a config naming a variant is an unknown key
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"steps": 5, "variant": "minmax"}))
    assert main(["run", "--config", str(cfg_path)]) == 3
    assert "variant" in capsys.readouterr().err


def test_cli_violation_exit_2(monkeypatch, capsys):
    import kklio.cli as cli_mod

    class FakeResult:
        summary = {"preset": "oscillator-siE", "gamma": 1.0, "steps": 5, "noise": True,
                   "disturbance": False, "violations": 3, "first_violation_k": 2,
                   "mean_width_x_window": 1.0, "window": (0, 5), "decay_rate_z": 0.4,
                   "final_width_x": 1.0, "final_width_z": 1.0,
                   "margin_coefficient": 1.0, "gamma_star_raw": 1e-6, "max_resid": 0.0,
                   "left_box_at": None}

    monkeypatch.setattr(cli_mod, "run_experiment", lambda cfg: FakeResult())
    assert main(["run", "--steps", "5"]) == 2
    assert "first at k=2" in capsys.readouterr().err


def test_summarize_counts_nan_bound_as_violation(short_noisy):
    from dataclasses import replace

    from kklio.harness import _summarize
    from kklio.presets import build_oscillator
    res, _ = short_noisy
    bundle = build_oscillator(gamma=1.0)
    assert _summarize(res.config, res.rows, bundle, None)["violations"] == 0
    rows = list(res.rows)
    rows[7] = replace(rows[7], x_hi=np.array([np.nan, rows[7].x_hi[1]]))
    s = _summarize(res.config, rows, bundle, None)
    assert s["violations"] == 1 and s["first_violation_k"] == 7


def test_left_box_surfaced_with_exit_4(monkeypatch, tmp_path, capsys):
    from dataclasses import replace

    import kklio.harness as harness
    out_ok, out_left = tmp_path / "ok.csv", tmp_path / "left.csv"
    assert main(["run", "--steps", "8", "--out", str(out_ok)]) == 0
    real = harness.simulate_plant
    monkeypatch.setattr(harness, "simulate_plant",
                        lambda *a, **kw: replace(real(*a, **kw), left_box_at=3))
    res = run_experiment(RunConfig(steps=8, window=(0, 8)))
    assert res.summary["left_box_at"] == 3 and res.summary["violations"] == 0
    capsys.readouterr()
    assert main(["run", "--steps", "8", "--out", str(out_left)]) == 4
    assert "left the enlarged box at k=3" in capsys.readouterr().err
    assert out_left.read_bytes() == out_ok.read_bytes()
    assert main(["compare", "--gammas", "1.0", "--steps", "8"]) == 4
