"""Command line interface.

Subcommands:

    phasebal balance   --input feeder.csv [--threshold 10] [--max-iter 10]
                       [--controller ctrl.txt] [--report out.json]
                       [--emit-moves moves.csv]
    phasebal infer     --load 120 [--controller ctrl.txt]
    phasebal unbalance --input feeder.csv
    phasebal surface   [--step 1] [--out surface.csv] [--controller ctrl.txt]

Exit codes: 0 on success (feeder balanced or query answered), 1 on bad
input or usage, 2 when balancing stops without reaching the threshold
(infeasible suggestion, iteration cap, or a phase total outside the
controller's range).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Sequence

from .balancing import ALREADY_BALANCED, BALANCED, BalancerConfig, balance
from .fuzzy import (
    UniverseError,
    default_controller,
    infer_change,
    parse_controller,
    response_samples,
)
from .io import parse_feeder_csv, write_moves_csv, write_report
from .model import avg_unbalance, phase_totals

__all__ = ["main"]


class _CliError(Exception):
    """Input or usage problem; message goes to stderr, exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; keep 2 reserved for "did not balance".
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        raise _CliError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="phasebal", description="Three-phase feeder load balancing")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_bal = sub.add_parser("balance", help="balance a feeder described by a CSV file")
    p_bal.add_argument("--input", required=True, help="feeder CSV (phase1,phase2,phase3)")
    p_bal.add_argument("--threshold", type=float, default=10.0, help="stop below this average unbalance in kW (default 10)")
    p_bal.add_argument("--max-iter", type=int, default=10, help="iteration cap (default 10)")
    p_bal.add_argument("--controller", help="controller definition file (default: built-in)")
    p_bal.add_argument("--report", help="write a JSON run report to this path")
    p_bal.add_argument("--emit-moves", help="write executed moves as CSV to this path")

    p_inf = sub.add_parser("infer", help="evaluate the controller for one load value")
    p_inf.add_argument("--load", type=float, required=True, help="phase load in kW")
    p_inf.add_argument("--controller", help="controller definition file (default: built-in)")

    p_unb = sub.add_parser("unbalance", help="print a feeder's average unbalance")
    p_unb.add_argument("--input", required=True, help="feeder CSV (phase1,phase2,phase3)")

    p_sur = sub.add_parser("surface", help="tabulate the control surface as CSV")
    p_sur.add_argument("--step", type=float, default=1.0, help="load sweep step in kW (default 1)")
    p_sur.add_argument("--out", help="output path (default: stdout)")
    p_sur.add_argument("--controller", help="controller definition file (default: built-in)")

    return parser


def _load(kind: str, path: str, parse):
    """Read a UTF-8 text file and parse it. A file that cannot be read,
    does not decode or does not parse is a _CliError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as exc:
        raise _CliError(f"cannot read {kind} file: {exc}") from None
    except ValueError as exc:
        raise _CliError(f"{kind} file {path}: {exc}") from None


def _load_controller(path: str | None):
    if path is None:
        return default_controller()
    return _load("controller", path, parse_controller)


def _write(kind: str, outputs) -> None:
    """Write each (path, write(fh)) in order. On an OSError, remove the regular
    files opened so far (never a device such as /dev/full) and raise a _CliError."""
    opened: list[str] = []
    try:
        for path, write in outputs:
            with open(path, "w", encoding="utf-8") as fh:
                opened.append(path)
                write(fh)
    except OSError as exc:
        for path in opened:
            if os.path.isfile(path):
                with contextlib.suppress(OSError):
                    os.remove(path)
        raise _CliError(f"cannot write {kind}: {exc}") from None


def _fmt_totals(totals: Sequence[float]) -> str:
    return " / ".join(f"{t:g}" for t in totals)


def _cmd_balance(args: argparse.Namespace) -> int:
    snapshot = _load("feeder", args.input, parse_feeder_csv)
    controller = _load_controller(args.controller)
    try:
        config = BalancerConfig(
            unbalance_threshold=args.threshold,
            max_iterations=args.max_iter,
            controller=controller,
        )
    except ValueError as exc:
        raise _CliError(str(exc)) from None

    report = balance(snapshot, config)

    # Write the files before printing, so that a failed write prints no result.
    outputs = []
    if args.report:
        outputs.append((args.report, lambda fh: fh.write(write_report(report) + "\n")))
    if args.emit_moves:
        outputs.append((args.emit_moves, lambda fh: write_moves_csv(report, fh)))
    _write("report", outputs)

    print(f"status: {report.status}")
    print(f"iterations: {len(report.iterations)}")
    print(
        f"unbalance: {report.initial_unbalance:.2f} -> {report.final_unbalance:.2f} kW"
    )
    print(f"final totals: {_fmt_totals(report.final_totals)} kW")

    return 0 if report.status in (BALANCED, ALREADY_BALANCED) else 2


def _cmd_infer(args: argparse.Namespace) -> int:
    controller = _load_controller(args.controller)
    try:
        change = infer_change(controller, args.load)
    except UniverseError as exc:
        raise _CliError(str(exc)) from None
    print(f"{change:.2f}")
    return 0


def _cmd_unbalance(args: argparse.Namespace) -> int:
    snapshot = _load("feeder", args.input, parse_feeder_csv)
    print(f"{avg_unbalance(phase_totals(snapshot)):.2f}")
    return 0


def _cmd_surface(args: argparse.Namespace) -> int:
    controller = _load_controller(args.controller)
    try:
        samples = response_samples(controller, args.step)
    except ValueError as exc:
        raise _CliError(str(exc)) from None
    lines = ["load,change"]
    for load, change in samples:
        lines.append(f"{load:g},{change:.6f}")
    text = "\n".join(lines) + "\n"
    if args.out:
        _write("surface", [(args.out, lambda fh: fh.write(text))])
    else:
        sys.stdout.write(text)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    handlers = {
        "balance": _cmd_balance,
        "infer": _cmd_infer,
        "unbalance": _cmd_unbalance,
        "surface": _cmd_surface,
    }
    try:
        args = _build_parser().parse_args(argv)
        return handlers[args.command](args)
    except _CliError as exc:
        print(f"phasebal: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
