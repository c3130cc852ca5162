"""Command-line front end.

Three subcommands:

* ``decohere single --config cfg.yaml`` — evaluate one configuration, CSV to
  stdout (one row per cut).
* ``decohere sweep --config cfg.yaml [--out results.csv]`` — evaluate every
  sweep point, CSV to stdout or a file.
* ``decohere verify [--max-n N] [--seed S]`` — run the self-verification
  suite and report one pass/fail line per property.

Exit codes: 0 success, 1 verification failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, DecohereError
from .experiment import load_config, run_single, run_sweep, write_csv
from .tolerances import MAX_QUBITS
from .verify import format_report, run_suite


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decohere",
        description="Collisional-dephasing negativity experiments on GHZ, W, "
        "and linear cluster states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    single = sub.add_parser("single", help="evaluate one configuration")
    single.add_argument("--config", required=True, help="YAML experiment config")

    sweep = sub.add_parser("sweep", help="evaluate a parameter sweep")
    sweep.add_argument("--config", required=True, help="YAML experiment config")
    sweep.add_argument("--out", help="CSV output path (default: stdout)")

    verify = sub.add_parser("verify", help="run the self-verification suite")
    verify.add_argument("--max-n", type=int, default=5, help="largest qubit count")
    verify.add_argument("--seed", type=int, default=7, help="RNG seed")

    return parser


def _cmd_single(args) -> int:
    rows = run_single(load_config(args.config))
    write_csv(rows, sys.stdout)
    return 0


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    if not args.out:
        write_csv(run_sweep(config), sys.stdout)
        return 0
    if config.sweep is None:  # refused before --out is created
        raise ConfigError("run_sweep: config has no sweep block; use run_single")
    try:  # opened before any point is evaluated, so a bad path fails fast
        fh = open(args.out, "w", encoding="utf-8", newline="")
    except OSError as exc:
        print(f"decohere: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    with fh:
        write_csv(run_sweep(config), fh)
    return 0


def _cmd_verify(args) -> int:
    if not 2 <= args.max_n <= MAX_QUBITS:
        print(
            f"decohere: --max-n must be in [2, {MAX_QUBITS}], got {args.max_n}",
            file=sys.stderr,
        )
        return 2
    if args.seed < 0:
        print(f"decohere: --seed must be non-negative, got {args.seed}", file=sys.stderr)
        return 2
    results = run_suite(max_n=args.max_n, seed=args.seed)
    print(format_report(results))
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "single":
            return _cmd_single(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_verify(args)
    except DecohereError as exc:
        print(f"decohere: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
