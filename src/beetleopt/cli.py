"""Command line front end.

``beetleopt run <config> [--out DIR] [--seed N] [--jobs K]`` executes a plan
file; ``beetleopt list`` prints the known algorithm and function ids;
``beetleopt show-defaults`` prints the default plan as a config file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import benchmarks
from .core import ConfigurationError
from .harness import ALGORITHMS, ExperimentPlan, format_plan, parse_config, run_and_emit


def _int_at_least(minimum: int):
    def parse(value: str) -> int:
        number = int(value)
        if number < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {number}")
        return number

    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beetleopt",
        description="Run optimizer benchmark experiments and emit convergence/summary tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser("run", help="execute a plan file")
    run_cmd.add_argument("config", type=Path, help="plan file (key = value lines)")
    run_cmd.add_argument("--out", type=Path, default=Path("results"), help="output directory")
    run_cmd.add_argument("--seed", type=_int_at_least(0), default=1, help="base seed; run r uses seed base+r")
    run_cmd.add_argument(
        "--jobs", type=_int_at_least(1), default=1, help="worker processes for groups of independent runs"
    )

    sub.add_parser("list", help="print known algorithm and function ids")
    sub.add_parser("show-defaults", help="print the default plan as a config file")
    return parser


def _cmd_run(args) -> int:
    try:
        plan = parse_config(args.config.read_text(encoding="utf-8-sig"))
    except FileNotFoundError:
        print(f"config file not found: {args.config}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read config file {args.config}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"config file is not UTF-8 text: {args.config} (byte {exc.start})", file=sys.stderr)
        return 2
    except ConfigurationError as exc:
        print(f"invalid config:\n{exc}", file=sys.stderr)
        return 2
    plan.base_seed = args.seed
    plan.out_dir = str(args.out)
    try:
        result = run_and_emit(plan, jobs=args.jobs)
    except ConfigurationError as exc:  # the output directory cannot be created
        print(exc, file=sys.stderr)
        return 2
    for algorithm, functions, message in result.fallbacks:
        print(f"{algorithm} group {' '.join(functions)} raised and ran run by run: {message}", file=sys.stderr)
    print(f"{len(result.records)} runs completed, {len(result.failures)} failed")
    print(f"artifacts written under {args.out}")
    return 1 if result.failures else 0


def _cmd_list() -> int:
    print("algorithms:", " ".join(ALGORITHMS))
    print("functions:", " ".join(benchmarks.ids()))
    return 0


def _cmd_show_defaults() -> int:
    print(format_plan(ExperimentPlan()))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "list":
        return _cmd_list()
    return _cmd_show_defaults()


if __name__ == "__main__":
    raise SystemExit(main())
