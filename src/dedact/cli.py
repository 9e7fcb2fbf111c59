"""Command-line entry point.

Exit codes: 0 success, 2 config error, 3 data error, 4 numerical error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import yaml

from .errors import (
    ConfigError,
    CyclicGraph,
    DimensionMismatch,
    DisjointnessViolation,
    InsufficientRows,
    InvalidTarget,
    MissingTarget,
    ParseError,
    SingularConditioning,
    SingularDesign,
    TooManyPlayers,
)
from .runner import (
    RunConfig,
    load_scm,
    run,
    run_biomarker_demo,
    run_census_demo,
)
from .scm import sample_scm

_CONFIG_ERRORS = (ConfigError, DisjointnessViolation)
_DATA_ERRORS = (ParseError, MissingTarget, InvalidTarget, DimensionMismatch)
_NUMERICAL_ERRORS = (SingularDesign, SingularConditioning, InsufficientRows, TooManyPlayers, CyclicGraph)


def _cmd_simulate(args) -> int:
    if args.n < 2:
        raise ConfigError(f"--n must be at least 2, got {args.n}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    scm = load_scm(args.scm)
    data, target = sample_scm(scm, args.n, args.seed, args.include_observed)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(data.column_names) + [scm.supervision_node])
        for row, y in zip(data.values, target.values):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(y))])
    print(f"wrote {data.n_rows} rows to {args.out}")
    return 0


def _cmd_run(args, which: str) -> int:
    config = RunConfig.from_file(args.config)
    raw = dict(config.raw)
    if which == "importance":
        raw.pop("decompositions", None)
    elif which == "decompose":
        raw.pop("measures", None)
    config = RunConfig(raw)
    bundle = run(config, outdir=args.out)
    if not args.out and not config.output[0]:
        json.dump(bundle.as_dict(), sys.stdout, indent=2, sort_keys=True)
        print()
    return 0


def _cmd_demo(args) -> int:
    if args.which == "biomarker":
        run_biomarker_demo(seed=args.seed, n=args.n, outdir=args.out)
    else:
        run_census_demo(
            seed=args.seed, n=args.n, n_sage_orders=args.sage_orders,
            n_decomp_orders=args.decomp_orders, outdir=args.out,
        )
    print(f"demo {args.which} written to {args.out}")
    return 0


def _cmd_report(args) -> int:
    bundle_path = Path(args.bundle) / "bundle.json"
    with open(bundle_path) as fh:
        bundle = json.load(fh)
    if bundle["estimates"]:
        print(f"{'estimate':<28}{'value':>14}{'std error':>14}")
        for e in bundle["estimates"]:
            print(f"{e['name']:<28}{e['value']:>14.6f}{e['std_error']:>14.6f}")
    for t in bundle["tables"]:
        print(f"\n[{t['name']}] {t['method']} decomposition of {t['target']}"
              f" (total {t['total']:.6f} +/- {t['total_se']:.6f})")
        for source, comp in t["components"].items():
            print(f"  {source:<24}{comp['value']:>14.6f}{comp['se']:>14.6f}")
        print(f"  {'(remainder)':<24}{t['remainder']:>14.6f}")
    metadata = bundle.get("metadata", {})
    engine = metadata.get("engine")
    if engine:
        print(f"\nengine: {engine['evaluations']} evaluations, {engine['terms_computed']} plan terms"
              f" computed, {engine['terms_reused']} reused")
    versions = metadata.get("versions")
    if versions:
        print(f"versions: dedact {versions['dedact']}, numpy {versions['numpy']}, Python {versions['python']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dedact", description="Direct/associative importance decomposition")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="sample a structural model to CSV")
    p.add_argument("--scm", required=True, help="builtin name (biomarker, census) or config file")
    p.add_argument("--n", type=int, default=20000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--include-observed", action="store_true",
                   help="also emit observed-role columns the model never reads")
    p.add_argument("--out", required=True)

    for name in ("importance", "decompose"):
        p = sub.add_parser(name, help=f"run the {name} blocks of a config")
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)

    p = sub.add_parser("demo", help="run a bundled experiment")
    p.add_argument("which", choices=("biomarker", "census"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=20000)
    p.add_argument("--sage-orders", type=int, default=60)
    p.add_argument("--decomp-orders", type=int, default=25)
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="pretty-print a result bundle")
    p.add_argument("--bundle", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command in ("importance", "decompose"):
            return _cmd_run(args, args.command)
        if args.command == "demo":
            return _cmd_demo(args)
        if args.command == "report":
            return _cmd_report(args)
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except _DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (OSError, yaml.YAMLError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
