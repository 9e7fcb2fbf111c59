"""Command-line entry point.

Exit codes: 0 success, 2 config error, 3 data error, 4 numerical error.
A package error's code follows its kind (see `errors`).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import yaml

from .errors import ConfigError, DedactError, ParseError
from .runner import (
    RunConfig,
    run,
    run_biomarker_demo,
    run_census_demo,
    simulate,
)


def _at_least(flag: str, value, least: int) -> None:
    """A flag given a value below `least` is a config error naming the flag."""
    if value is not None and value < least:
        raise ConfigError(f"{flag} must be at least {least}, got {value}")


def _cmd_simulate(args) -> int:
    _at_least("--n", args.n, 2)
    _at_least("--seed", args.seed, 0)
    scm, data, target = simulate(args.scm, args.n, args.seed, args.include_observed)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
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
    # the flags are checked here, so an error names the flag, not the config key it fills
    if args.sage_orders is not None and args.which == "biomarker":  # the biomarker demo solves no Shapley game
        raise ConfigError("--sage-orders applies to the census demo only")
    _at_least("--sage-orders", args.sage_orders, 1)
    _at_least("--n", args.n, 4)  # at least 2 rows on each side of the fit / evaluation split
    _at_least("--seed", args.seed, 0)
    if args.which == "biomarker":
        run_biomarker_demo(seed=args.seed, n=args.n, outdir=args.out)
    else:  # a flag left out keeps run_census_demo's default
        orders = {} if args.sage_orders is None else {"n_sage_orders": args.sage_orders}
        run_census_demo(seed=args.seed, n=args.n, outdir=args.out, **orders)
    print(f"demo {args.which} written to {args.out}")
    return 0


_NUMBER = (int, float)


def _cmd_report(args) -> int:
    path = Path(args.bundle) / "bundle.json"
    try:
        bundle = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ParseError(f"{path}: not a JSON bundle ({exc})") from exc

    def fields(node, where, **kinds):
        """node's values of the given keys; a missing or mistyped key is a ParseError."""
        if not isinstance(node, dict):
            raise ParseError(f"{path}: {where} is not a mapping")
        for key, kind in kinds.items():
            if key not in node:
                raise ParseError(f"{path}: {where} has no key {key!r}")
            if not isinstance(node[key], kind) or isinstance(node[key], bool):
                raise ParseError(f"{path}: {where} key {key!r} has the wrong type, {type(node[key]).__name__}")
        return [node[key] for key in kinds]

    lines = []  # printed once every key they read has been checked
    estimates, tables = fields(bundle, "the bundle", estimates=list, tables=list)
    if estimates:
        lines.append(f"{'estimate':<28}{'value':>14}{'std error':>14}")
    for i, e in enumerate(estimates):
        name, value, se = fields(e, f"estimates[{i}]", name=str, value=_NUMBER, std_error=_NUMBER)
        lines.append(f"{name:<28}{value:>14.6f}{se:>14.6f}")
    for i, t in enumerate(tables):
        name, method, target, total, total_se, components, remainder = fields(
            t, f"tables[{i}]", name=str, method=str, target=str, total=_NUMBER, total_se=_NUMBER,
            components=dict, remainder=_NUMBER)
        lines.append(f"\n[{name}] {method} decomposition of {target} (total {total:.6f} +/- {total_se:.6f})")
        for source, comp in components.items():
            value, se = fields(comp, f"tables[{i}] component {source!r}", value=_NUMBER, se=_NUMBER)
            lines.append(f"  {source:<24}{value:>14.6f}{se:>14.6f}")
        lines.append(f"  {'(remainder)':<24}{remainder:>14.6f}")
    # bundles written before the engine counters or the versions existed still read
    metadata = fields(bundle, "the bundle", metadata=dict)[0] if "metadata" in bundle else {}
    if metadata.get("engine"):
        counts = fields(fields(metadata, "metadata", engine=dict)[0], "metadata engine",
                        evaluations=int, terms_computed=int, terms_reused=int)
        lines.append("\nengine: {} evaluations, {} plan terms computed, {} reused".format(*counts))
    if metadata.get("versions"):
        names = fields(fields(metadata, "metadata", versions=dict)[0], "metadata versions",
                       dedact=str, numpy=str, python=str)
        lines.append("versions: dedact {}, numpy {}, Python {}".format(*names))
    for line in lines:
        print(line)
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
    p.add_argument("--sage-orders", type=int, help="census only: SAGE contexts per table (default 60)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="pretty-print a result bundle")
    p.add_argument("--bundle", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # column and block names are UTF-8 text: a stdout whose locale cannot
    # encode one prints it escaped rather than failing
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(errors="backslashreplace")
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command in ("importance", "decompose"):
            return _cmd_run(args, args.command)
        if args.command == "demo":
            return _cmd_demo(args)
        if args.command == "report":
            return _cmd_report(args)
    except DedactError as exc:
        print(f"{exc.label} error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, yaml.YAMLError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
