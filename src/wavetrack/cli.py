"""Command line front end.

Three subcommands:

``wavetrack run config.json``
    Execute one scenario and print a pass/fail line per check.

``wavetrack suite --count 20 --seed 7``
    Run a batch of random Burgers scenarios.

``wavetrack sweep config.json``
    Refinement study over the config's ``h_list``.

Exit status: 0 when every asserted check passed, 1 on check failures,
2 on config errors or on a run that raises (an inconsistent wave
pattern, say).
"""
from __future__ import annotations

import argparse
import json
import sys

from .coupling import InconsistentFieldError
from .profiles import plain_number
from .scenarios import (
    ScenarioConfigError,
    run_random_suite,
    run_scenario,
    run_sweep,
)


def _load_config(path):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as exc:
        raise ScenarioConfigError([f"config: cannot read {path}: {exc}"])
    except json.JSONDecodeError as exc:
        raise ScenarioConfigError([f"config: invalid JSON: {exc}"])


def _apply_overrides(config, args):
    for key in ("out", "mode"):
        if getattr(args, key, None) is not None:
            config[key] = getattr(args, key)
    return config


def _cmd_run(args):
    config = _apply_overrides(_load_config(args.config), args)
    result = run_scenario(config)
    if result.error is not None:
        print(f"error: {result.error}", file=sys.stderr)
        return 2
    for name in result.spec.checks:
        rep = result.reports[name]
        status = "PASS" if rep.passed else "FAIL"
        print(f"check {name}: {status}")
        for line in rep.violations[:10]:
            print(f"  {line}")
    if result.out_dir is not None:
        print(f"reports written to {result.out_dir}")
    return 0 if result.passed else 1


def _cmd_suite(args):
    suite = run_random_suite(
        args.count,
        seed=args.seed,
        out_dir=args.out,
        shock_only=args.shock_only,
        h=args.h,
        horizon=args.horizon,
        m=args.m,
        mode=args.mode,
    )
    print(f"suite: {suite.count} scenarios, {len(suite.failures)} failures")
    for seed, summary in suite.failures:
        detail = summary.get("error") or summary.get("violations")
        print(f"  seed {seed}: {detail}")
    return 0 if suite.passed else 1


def _cmd_sweep(args):
    config = _apply_overrides(_load_config(args.config), args)
    rows = run_sweep(config)
    print(f"{'h':>12} {'norm_end':>14} {'gain_rs':>14} {'rs_chain':>14} pass")
    all_ok = True
    for row in rows:
        all_ok = all_ok and row["passed"]
        print(
            f"{plain_number(row['h'])!s:>12} "
            f"{float(row['norm_end']):>14.8g} "
            f"{float(row['gain_rs']):>14.8g} "
            f"{float(row['rs_chain']):>14.8g} "
            f"{'PASS' if row['passed'] else 'FAIL'}"
        )
    return 0 if all_ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wavetrack",
        description="Front tracking runs, transported differences, and "
        "decay/compression checks for convex scalar conservation laws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario config")
    run_p.add_argument("config", help="path to a scenario JSON file")
    run_p.add_argument("--out", help="output directory (overrides config)")
    run_p.add_argument("--mode", choices=["float", "rational"],
                       help="arithmetic mode override")

    suite_p = sub.add_parser("suite", help="run a batch of random scenarios")
    suite_p.add_argument("--count", type=int, default=10)
    suite_p.add_argument("--seed", type=int, default=0)
    suite_p.add_argument("--out", help="directory for per-scenario reports")
    suite_p.add_argument("--mode", choices=["float", "rational"],
                         default="float")
    suite_p.add_argument("--shock-only", action="store_true",
                         help="monotone decreasing data, no fans")
    suite_p.add_argument("--h", type=float, default=0.1,
                         help="fan increment (an exact decimal in rational "
                         "mode)")
    suite_p.add_argument("--horizon", type=float, default=2.0)
    suite_p.add_argument("--m", type=float, default=1.0,
                         help="weight offset for the weighted check")

    sweep_p = sub.add_parser("sweep", help="refinement study over h_list")
    sweep_p.add_argument("config", help="scenario JSON with an h_list")
    sweep_p.add_argument("--out", help="output directory (overrides config)")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "suite":
            return _cmd_suite(args)
        return _cmd_sweep(args)
    except ScenarioConfigError as exc:
        for line in exc.errors:
            print(f"config error: {line}", file=sys.stderr)
        return 2
    except InconsistentFieldError as exc:
        print(f"inconsistent wave pattern: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
