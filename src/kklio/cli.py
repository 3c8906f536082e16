"""Command-line front end.

Subcommands:

* ``run``       -- one experiment; writes a CSV trace and optionally an SVG chart
* ``compare``   -- the same experiment across several gains, as a table
* ``constants`` -- print the estimated regularity constants of a preset

The options are the fields of ``RunConfig``, which checks their values, plus
``gammas``. A flat JSON config file can supply any ``run``/``compare``
option; explicit command-line flags win on conflict. Exit codes: 0 success,
2 enclosure violation, 3 configuration error (a command-line usage error
too), 4 the true state left the enlarged box (the guarantees no longer hold
from that step on). An empty state set found by recovery is a violation:
it exits 2 and names the step.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from . import presets
from .harness import RunConfig, compare_gammas, format_comparison, run_experiment

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_CONFIG = 3
EXIT_LEFT_BOX = 4


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", default=None, help=f"plant preset (default {presets.OSCILLATOR})")
    p.add_argument("--tau", type=float, default=None, help="discretization rate")
    p.add_argument("--steps", type=int, default=None, help="number of steps (default 500)")
    p.add_argument("--seed", type=int, default=None, help="seed for constant estimation")
    p.add_argument("--noise", choices=("on", "off"), default=None)
    p.add_argument("--disturbance", choices=("on", "off"), default=None)
    p.add_argument("--out", default=None, help="CSV output path")
    p.add_argument("--config", default=None, help="JSON file with defaults (CLI flags win)")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="kklio",
                                 description="Interval state estimation in KKL coordinates")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment")
    _add_common(run)
    run.add_argument("--gamma", type=float, default=None, help="target gain in (0, 1]")
    run.add_argument("--svg", default=None, help="SVG chart output path")

    cmp_ = sub.add_parser("compare", help="run several gains on the identical experiment")
    _add_common(cmp_)
    cmp_.add_argument("--gammas", default=None, help="comma-separated gains, e.g. 1.0,0.7")

    con = sub.add_parser("constants", help="print estimated constants for a preset")
    con.add_argument("--preset", default=None)
    con.add_argument("--gamma", type=float, default=None)
    con.add_argument("--tau", type=float, default=None)
    con.add_argument("--seed", type=int, default=None)
    return ap


def _run_options(args: argparse.Namespace) -> dict:
    """The options of the config file and of the flags, the flags winning."""
    names = {f.name for f in fields(RunConfig)} | {"gammas"}
    merged: dict = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            merged = json.load(fh)
        if not isinstance(merged, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(merged) - names
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
    merged.update((key, getattr(args, key)) for key in names
                  if getattr(args, key, None) is not None)
    # RunConfig checks the types; only the on/off spelling of a toggle is mapped here
    for f in fields(RunConfig):
        if isinstance(f.default, bool) and merged.get(f.name) in ("on", "off"):
            merged[f.name] = merged[f.name] == "on"
    return {key: v for key, v in merged.items() if v is not None}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage; it exits 2, our code for a violation
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        options = _run_options(args)
        gammas = options.pop("gammas", None)
        cfg = RunConfig(**options)
        if args.command == "constants":
            return _cmd_constants(cfg)
        if args.command == "run":
            return _cmd_run(cfg)
        if gammas is None:
            raise ValueError("compare needs --gammas")
        if isinstance(gammas, str):
            gammas = [float(g) for g in gammas.split(",") if g]
        return _cmd_compare(cfg, gammas)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _cmd_run(cfg: RunConfig) -> int:
    result = run_experiment(cfg)
    s = result.summary
    print(f"preset={s['preset']} gamma={s['gamma']:g} steps={s['steps']} "
          f"noise={'on' if s['noise'] else 'off'} "
          f"disturbance={'on' if s['disturbance'] else 'off'}")
    print(f"mean width_x over k in {s['window']}: {s['mean_width_x_window']:.6g}")
    print(f"z-width decay rate per step: {s['decay_rate_z']:.6g}")
    print(f"final width_x: {s['final_width_x']:.6g}  max inversion residual: "
          f"{s['max_resid']:.3g}")
    if cfg.out:
        print(f"trace written to {cfg.out}")
    if cfg.svg:
        print(f"chart written to {cfg.svg}")
    if s["left_box_at"] is not None:
        _report_left_box(s)
        return EXIT_LEFT_BOX
    if s["violations"]:
        _report_empty_set(s)
        print(f"enclosure violated at {s['violations']} step(s), first at "
              f"k={s['first_violation_k']}", file=sys.stderr)
        return EXIT_VIOLATION
    print("enclosure violations: 0")
    return EXIT_OK


def _cmd_compare(cfg: RunConfig, gammas) -> int:
    summaries = compare_gammas(cfg, gammas)
    print(format_comparison(summaries))
    left = [s for s in summaries if s["left_box_at"] is not None]
    if left:
        _report_left_box(left[0])
        return EXIT_LEFT_BOX
    bad = [s for s in summaries if s["violations"]]
    if bad:
        _report_empty_set(bad[0])
        print(f"enclosure violated for gamma={bad[0]['gamma']:g} at "
              f"k={bad[0]['first_violation_k']}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def _report_empty_set(s: dict) -> None:
    if s.get("empty_set_at") is not None:
        print(f"state set empty at k={s['empty_set_at']} (gamma={s['gamma']:g}): no state "
              "maps into the transform bounds, so the noise or the disturbance left its "
              "declared bounds; the run stopped there", file=sys.stderr)


def _report_left_box(s: dict) -> None:
    print(f"state left the enlarged box at k={s['left_box_at']} (gamma={s['gamma']:g}); "
          "bounds are not guaranteed from there on", file=sys.stderr)


def _cmd_constants(cfg: RunConfig) -> int:
    bundle = presets.build_preset(cfg.preset, gamma=cfg.gamma, tau=cfg.tau, seed=cfg.seed)
    cf, gs_raw = presets.closed_form_constants(bundle)
    c = bundle.consts
    print(f"preset={bundle.name} gamma={cfg.gamma:g} tau={cfg.tau:g} seed={cfg.seed}")
    print(f"orders m={c.m} (m_bar={c.m_bar})  n_z={bundle.target.n_z}")
    print(f"c_f={cf.c_f:.12g}\nc_h={cf.c_h:.12g}\nc_o={cf.c_o:.12g}\nc_c={cf.c_c:.12g}")
    print("c_N=1")  # the norm-equivalence factor of the max norm
    print(f"gamma_star (closed form, uncapped) = {gs_raw:.12g}")
    print(f"c_L={c.c_L:.12g}  (sampled transform Lipschitz bound)")
    print(f"c_I={c.c_I:.12g}  (sampled injectivity margin)")
    print(f"c={c.c:.12g}  recovery margin c/gamma^(m_bar-1)="
          f"{bundle.observer_cfg.margin_c_over_gamma:.12g}")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
