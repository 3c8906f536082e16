import dataclasses
import hashlib
import json

import numpy as np
import pytest

from kklio.cli import main
from kklio import harness
from kklio.harness import (RunConfig, TraceRow, compare_gammas, csv_header, format_comparison,
                           run_experiment, write_csv)


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


def test_run_reports_set_inversion_boxes(short_noisy, capsys):
    # each recovered row carries the box count of its bisection, the summary
    # its median and maximum, and the CSV stays as it was
    res, out = short_noisy
    counts = [r.boxes for r in res.rows[1:]]
    assert res.rows[0].boxes is None
    assert all(isinstance(n, int) and 1 <= n <= 4096 for n in counts)
    assert res.summary["boxes_median"] == float(np.median(counts))
    assert res.summary["boxes_max"] == max(counts)
    assert out.read_text().split("\n", 1)[0] == csv_header(2, 4, 1)
    # the same run through the CLI (the window changes only the mean width)
    assert main(["run", "--steps", "40"]) == 0
    line = [ln for ln in capsys.readouterr().out.splitlines() if "boxes" in ln]
    assert line == ["set-inversion boxes per step: median "
                    f"{res.summary['boxes_median']:g}, max {res.summary['boxes_max']}"]


def test_run_reports_the_paper_box(short_noisy, capsys):
    # the paper's box is a diagnostic: the summary and `kklio run` give its
    # median width and the rows where it is tighter than the returned box
    res, _ = short_noisy
    widths = [r.paper_width_x for r in res.rows[1:]]
    assert res.rows[0].paper_width_x is None
    assert res.summary["paper_width_x_median"] == float(np.median(widths))
    tighter = sum(w < r.width_x for w, r in zip(widths, res.rows[1:]))
    assert res.summary["paper_box_tighter"] == tighter
    assert main(["run", "--steps", "40"]) == 0
    out = capsys.readouterr().out.splitlines()
    at = [i for i, ln in enumerate(out) if ln.startswith("set-inversion boxes")][0]
    assert out[at + 1] == ("paper's box (diagnostic): median width_x "
                           f"{res.summary['paper_width_x_median']:.6g}, "
                           f"tighter on {tighter} of 40 rows")


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


def test_window_falls_back_when_out_of_range():
    res = run_experiment(RunConfig(steps=20, noise=True))  # default window starts at 100
    s = res.summary
    assert s["window"] == (10, 20)
    assert np.isfinite(s["mean_width_x_window"])


def test_window_falls_back_to_the_rows_of_a_run_stopped_early(monkeypatch):
    # noise outside its (zero) bounds at k=5 empties the state set at k=6:
    # the fallback window is the second half of the rows 0-5, not of 50 steps
    real = harness._noise_profile

    def bad_noise(cfg, plant):
        w, w_lo, w_hi, d, d_lo, d_hi = real(cfg, plant)
        return (lambda k: np.array([0.3 if k == 5 else 0.0])), w_lo, w_hi, d, d_lo, d_hi

    monkeypatch.setattr(harness, "_noise_profile", bad_noise)
    res = run_experiment(RunConfig(steps=50, noise=False))
    s = res.summary
    assert s["empty_set_at"] == 6 and [r.k for r in res.rows] == list(range(6))
    assert s["window"] == (2, 5)
    assert s["mean_width_x_window"] == np.mean([r.width_x for r in res.rows[2:6]])


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


@pytest.mark.parametrize("field,value", [
    ("noise", "off"), ("disturbance", 1), ("steps", "3"), ("steps", True), ("seed", 1.5),
    ("out", 7), ("window", 5), ("x0", [1.0, True]), ("preset", 5),
])
def test_config_rejects_wrong_types(field, value):
    # a truthy "off" used to switch noise on, and out=7 wrote to descriptor 7
    with pytest.raises(ValueError, match=repr(field)):
        RunConfig(**{field: value})


@pytest.mark.parametrize("field,value", [
    ("window", (5, 1)), ("x0_halfwidth", -1.0), ("x0_halfwidth", float("nan")),
    ("x0_halfwidth", float("inf")),
])
def test_config_rejects_out_of_range(field, value):
    # a reversed window used to fall back to the run's second half, and a
    # negative half-width failed deep in Box without naming the option
    with pytest.raises(ValueError, match=repr(field)):
        RunConfig(**{field: value})


@pytest.mark.parametrize("x0", [(1.0,), (1.0, 0.0, 0.0), ()])
def test_config_rejects_x0_of_other_dimension(x0):
    # used to fail in the build with "box dimension does not match n_x"
    with pytest.raises(ValueError, match=r"'x0' needs 2 entries, the state dimension"):
        RunConfig(x0=x0)


def test_cli_x0_of_other_dimension_exit_3(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"x0": [1.0]}))
    assert main(["run", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert "configuration error" in err and "'x0'" in err


@pytest.mark.parametrize("config,initial", [
    ({"x0": [5.0, 5.0]}, "lo=[4.5, 4.5] hi=[5.5, 5.5]"),
    ({"x0_halfwidth": 3.0}, "lo=[-2.0, -3.0] hi=[4.0, 3.0]"),
], ids=["x0", "x0_halfwidth"])
def test_cli_initial_box_outside_invariant_box_exit_3(tmp_path, capsys, config, initial):
    # the error names the corners of both boxes, not only their nesting
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert f"initial box {initial} must lie inside the invariant box" in err
    assert "invariant box lo=[-2.0, -2.0] hi=[2.0, 2.0]" in err


def test_config_accepts_point_box_and_one_step_window():
    cfg = RunConfig(x0_halfwidth=0.0, window=(3, 3))
    assert cfg.x0_halfwidth == 0.0 and cfg.window == (3, 3)


def test_config_accepts_numpy_ints_lists_and_paths(tmp_path):
    cfg = RunConfig(seed=np.int64(2313), x0=[1.0, 0.0], out=tmp_path / "t.csv")
    assert cfg.x0 == (1.0, 0.0) and isinstance(cfg.x0, tuple)
    assert cfg == RunConfig(x0=(1.0, 0.0), out=tmp_path / "t.csv")


@pytest.mark.parametrize("gammas", [[True], ["1.0"], 1.0])
def test_compare_rejects_wrong_types(gammas):
    with pytest.raises(ValueError, match="gammas"):
        compare_gammas(RunConfig(steps=3), gammas)


def test_compare_writes_path_outputs(tmp_path):
    compare_gammas(RunConfig(steps=3, window=(0, 3), out=tmp_path / "t.csv"), [1.0])
    assert (tmp_path / "t_gamma1.csv").exists()


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


@pytest.mark.parametrize("gamma,digest", [
    ("1.0", "bff9b858fa9ecb90c6872c5da1c7e3e18eff1df0754c08229af40e361ed193ce"),
    ("0.7", "e2961195d35520c6f1971c91db9d7fd9c383193bc3c6280cb1f177ca70f5772e"),
], ids=["1.0", "0.7"])
def test_cli_constants_bytes(capsys, gamma, digest):
    # sha256 of the stdout of `kklio constants --gamma <gamma>` (numpy 2.4.6)
    assert main(["constants", "--gamma", gamma]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("tau", ["0", "-0.1", "nan", "inf"])
@pytest.mark.parametrize("command", [["run", "--steps", "3"],
                                     ["compare", "--gammas", "1.0", "--steps", "3"],
                                     ["constants"]], ids=["run", "compare", "constants"])
def test_cli_tau_out_of_range_exit_3(capsys, command, tau):
    # at tau = 0 the plant is the identity map: the run used to exit 0 with
    # width_x about 1e12, and nan failed with an unrelated message
    assert main(command + ["--tau", tau]) == 3
    err = capsys.readouterr().err
    assert "configuration error" in err and "tau must be finite and positive" in err


@pytest.mark.parametrize("command", [["run", "--steps", "3"], ["constants"]],
                         ids=["run", "constants"])
def test_cli_negative_seed_exit_3(capsys, command):
    # numpy's seed error names no option, and a run draws only at seed + 3
    # and seed + 4, so without the build's own check a run would pass where
    # the constants command fails
    assert main(command + ["--seed", "-1"]) == 3
    err = capsys.readouterr().err
    assert "configuration error" in err and "seed must be nonnegative" in err


def test_cli_config_tau_zero_exit_3(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"tau": 0, "steps": 3}))
    assert main(["run", "--config", str(cfg_path)]) == 3
    assert "tau must be finite and positive" in capsys.readouterr().err


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


def test_run_config_has_no_coeffs():
    # the build always solves T: no option loads a coefficient table
    assert "coeffs" not in {f.name for f in dataclasses.fields(RunConfig)}


def test_cli_config_coeffs_key_exit_3(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"steps": 5, "coeffs": "t.txt"}))
    assert main(["run", "--config", str(cfg_path)]) == 3
    assert "unknown config keys: ['coeffs']" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--steps", "abc"], ["run", "--noise", "maybe"], ["run", "--bogus"],
    ["frobnicate"], ["run", "--coeffs", "t.txt"],
], ids=["steps-abc", "noise-maybe", "unknown-flag", "unknown-command", "coeffs"])
def test_cli_usage_error_exit_3(capsys, argv):
    # a usage error is a configuration error; exit 2 means an enclosure violation
    assert main(argv) == 3
    assert "usage: kklio" in capsys.readouterr().err


def test_cli_help_exit_0(capsys):
    assert main(["run", "--help"]) == 0
    assert "usage: kklio run" in capsys.readouterr().out


def test_cli_config_variant_key_exit_3(tmp_path, capsys):
    # recovery has one rule, so a config naming a variant is an unknown key
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"steps": 5, "variant": "minmax"}))
    assert main(["run", "--config", str(cfg_path)]) == 3
    assert "variant" in capsys.readouterr().err


@pytest.mark.parametrize("command,config", [
    ("run", {"noise": "yes"}), ("run", {"disturbance": 1}), ("run", {"steps": "3"}),
    ("run", {"window": 5}), ("run", {"x0": [1.0, True]}), ("run", 12),
    ("compare", {"gammas": 1.0}), ("run", {"window": [5, 1]}),
], ids=["noise-yes", "disturbance-1", "steps-str", "window-int", "x0-bool", "not-object",
        "gammas-number", "window-reversed"])
def test_cli_config_wrong_type_exit_3(tmp_path, capsys, command, config):
    # a value of the wrong type, or a reversed window, is a configuration
    # error, not a traceback and not a quietly switched-off toggle or window
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg_path)]) == 3
    assert "configuration error" in capsys.readouterr().err


def test_cli_violation_exit_2(monkeypatch, capsys, short_noisy):
    import kklio.cli as cli_mod
    # a real run's summary, so it holds every key _summarize returns
    res, _ = short_noisy
    fake = dataclasses.replace(res, summary={**res.summary, "violations": 3,
                                             "first_violation_k": 2})
    monkeypatch.setattr(cli_mod, "run_experiment", lambda cfg: fake)
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


def test_write_csv_non_finite_bounds(tmp_path):
    out = tmp_path / "t.csv"
    one = np.array([1.0])
    row = TraceRow(k=3, x=np.array([0.5, 2.0]), x_lo=np.array([np.nan, -np.inf]),
                   x_hi=np.array([np.inf, 1e20]), z=one, z_lo=one, z_hi=one, y=one, w=one,
                   resid_hi=0.25, resid_lo=np.nan, width_x=np.inf, width_z=0.0)
    write_csv(str(out), [row])
    assert out.read_text().split("\n")[1] == "3,0.5,2,nan,-inf,inf,1e+20,1,1,1,1,1,0.25,nan,inf,0"


def test_cli_run_with_non_finite_bounds_reports_violation(tmp_path, monkeypatch):
    recover = harness.recover_x_bounds

    def broken(state, cfg):
        state = recover(state, cfg)
        if state.k == 2:
            return dataclasses.replace(state, x_lo=np.full_like(state.x_lo, np.nan))
        if state.k == 3:
            return dataclasses.replace(state, x_hi=np.full_like(state.x_hi, np.inf))
        return state

    monkeypatch.setattr(harness, "recover_x_bounds", broken)
    out = tmp_path / "t.csv"
    assert main(["run", "--steps", "3", "--noise", "off", "--out", str(out)]) == 2
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    assert rows[2][3:5] == ["nan", "nan"]
    assert rows[3][5:7] == ["inf", "inf"]
