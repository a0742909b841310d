"""Command-line interface.

Subcommands: sweep, summarize, slope, calibrate, verify-ae, bounds.
Exit codes: 0 success, 1 configuration error, 2 validation failure,
3 estimator error during a sweep, which leaves no file at ``--out``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .bounds import bound_report
from .estimators import calibrate_constants, default_profile
from .generators import hard_pair
from .harness import (
    NUMERIC_FIELDS,
    ConfigError,
    EstimatorError,
    SweepConfig,
    fit_loglog_slope,
    group_rows,
    read_csv,
    run_sweep,
    summarize,
    verify_ae,
    write_csv,
)

_DEFAULT_CAL_GRID = (1e-4, 1e-3, 1e-2, 1e-1, 0.5)


def _cmd_sweep(args) -> int:
    with open(args.config) as fh:
        config = SweepConfig.from_dict(json.load(fh))
    tmp = f"{args.out}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as out:
            write_csv(run_sweep(config), out)
        os.replace(tmp, args.out)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return 0


def _cmd_summarize(args) -> int:
    with open(args.infile) as fh:
        rows = read_csv(fh)
    profile = default_profile(args.profile) if args.profile else None
    records = summarize(rows, bound=args.bound, profile=profile)
    print("\t".join(records[0]))
    for rec in records:
        print("\t".join("" if value is None else str(value) for value in rec.values()))
    return 0


def _cmd_slope(args) -> int:
    with open(args.infile) as fh:
        rows = read_csv(fh)
    for name in (args.x, args.y):
        cells = [getattr(row, name) for row in rows]
        if any(cell is None for cell in cells):
            raise ConfigError(f"column {name!r} has empty cells")
        if not all(map(math.isfinite, cells)):
            raise ConfigError(f"column {name!r} has non-finite cells")
    points = [(np.mean([getattr(m, args.x) for m in members]),
               float(np.percentile([getattr(m, args.y) for m in members], args.percentile)))
              for members in group_rows(rows).values()]
    print(f"{fit_loglog_slope(points):.6f}")
    return 0


def _cmd_calibrate(args) -> int:
    grid = [float(g) for g in args.grid.split(",")] if args.grid else list(_DEFAULT_CAL_GRID)
    profile = calibrate_constants(grid)
    with open(args.out, "w") as fh:
        fh.write(profile.to_json())
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


def _cmd_verify_ae(args) -> int:
    report = verify_ae()
    print(f"cases: {len(report['cases'])}")
    print(f"max total-variation distance: {report['max_tv']:.3e}")
    return 0 if report["max_tv"] <= 1e-9 else 2


def _cmd_bounds(args) -> int:
    pair = hard_pair(args.instance)
    if pair is None:
        raise ConfigError(f"unknown instance {args.instance!r}")
    rep = bound_report(*pair, args.delta, args.t)
    print(f"kl\t{rep.kl:.6f}")
    print(f"fidelity\t{rep.fidelity:.6f}")
    print(f"helstrom_success\t{rep.helstrom_success:.6f}")
    print(f"t_lower\t{rep.t_lower}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmeansim",
        description="Benchmark harness for simulated quantum mean estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run a sweep config and write CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("summarize", help="aggregate a sweep CSV to TSV on stdout")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--bound", choices=("auto", "none"), default="auto")
    p.add_argument("--profile", default=None)
    p.set_defaults(func=_cmd_summarize)

    p = sub.add_parser("slope", help="log-log slope of error against cost")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--x", default="oracle_experiments", choices=NUMERIC_FIELDS)
    p.add_argument("--y", default="abs_error", choices=NUMERIC_FIELDS)
    p.add_argument("--percentile", type=float, default=90.0)
    p.set_defaults(func=_cmd_slope)

    p = sub.add_parser("calibrate", help="read constants off the exact law, write a profile")
    p.add_argument("--out", required=True)
    p.add_argument("--grid", default=None, help="comma-separated tail probabilities")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("verify-ae", help="validate the estimation kernel")
    p.set_defaults(func=_cmd_verify_ae)

    p = sub.add_parser("bounds", help="distinguishability bounds for an instance pair")
    p.add_argument("--instance", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--t", type=int, default=1)
    p.set_defaults(func=_cmd_bounds)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, EstimatorError) else 1


def entry() -> None:  # console-script shim
    raise SystemExit(main())
