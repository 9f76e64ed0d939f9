"""File formats: feeder CSV and JSON run reports.

The feeder CSV is column-per-phase with a fixed three-column header; rows
are positional load points and blank cells mean the phase has no point in
that row (phases rarely have equal point counts). Reports serialize a
BalanceReport to JSON with 1-based phase numbers and 1-based point
positions within each phase. The controller grammar lives with the
controller types, in fuzzy.py.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
from typing import TextIO

from .balancing import INFEASIBLE, BalanceReport
from .model import FeederSnapshot, bundled_text, format_number

__all__ = [
    "FeederFormatError",
    "parse_feeder_csv",
    "write_feeder_csv",
    "write_report",
    "write_moves_csv",
    "load_reference_feeder",
    "reference_feeder_text",
]

_HEADER = ("phase1", "phase2", "phase3")


class FeederFormatError(ValueError):
    """Malformed feeder CSV."""


def parse_feeder_csv(text: str) -> FeederSnapshot:
    """Parse feeder CSV text into a snapshot.

    Header must be exactly phase1,phase2,phase3. Every row needs three
    fields; a blank field is simply the absence of a point in that phase.
    Each value must be finite and non-negative, checked here so that the
    error names its line (1-based, counting the header); FeederSnapshot
    owns the rule on the total, and its refusal becomes a
    FeederFormatError too.
    """
    rows = list(csv.reader(_io.StringIO(text)))
    rows = [row for row in rows if row]  # csv yields [] for blank lines
    if not rows:
        raise FeederFormatError("empty feeder file")
    header = tuple(cell.strip().lower() for cell in rows[0])
    if header != _HEADER:
        raise FeederFormatError(
            f"line 1: expected header {','.join(_HEADER)!r}, got {','.join(rows[0])!r}"
        )
    if len(rows) == 1:
        raise FeederFormatError("feeder file has a header but no load points")

    phases: list[list[float]] = [[], [], []]
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise FeederFormatError(
                f"line {lineno}: expected 3 columns, got {len(row)}"
            )
        for col, cell in enumerate(row):
            cell = cell.strip()
            if not cell:
                continue
            try:
                value = float(cell)
            except ValueError:
                raise FeederFormatError(
                    f"line {lineno}: phase{col + 1} value {cell!r} is not a number"
                ) from None
            if not math.isfinite(value):
                raise FeederFormatError(
                    f"line {lineno}: phase{col + 1} value {cell!r} is not finite"
                )
            if value < 0:
                raise FeederFormatError(
                    f"line {lineno}: phase{col + 1} value {value:g} is negative"
                )
            phases[col].append(value)
    if all(not p for p in phases):
        raise FeederFormatError("feeder file has no load points")
    try:
        return FeederSnapshot(phases)
    except ValueError as exc:
        raise FeederFormatError(str(exc)) from None


def write_feeder_csv(snapshot: FeederSnapshot, out: TextIO) -> None:
    """Write a snapshot as feeder CSV, padding shorter phases with blanks."""
    out.write(",".join(_HEADER) + "\n")
    depth = max(len(p) for p in snapshot.phases)
    for row in range(depth):
        cells = [
            format_number(points[row]) if row < len(points) else ""
            for points in snapshot.phases
        ]
        out.write(",".join(cells) + "\n")


def _jsonify(value: float) -> float | int:
    return int(value) if float(value).is_integer() else float(value)


def _jsonify_unbalance(value: float) -> float | int:
    return _jsonify(round(value, 2))


def write_report(report: BalanceReport) -> str:
    """Serialize a balance run to JSON.

    Moves carry 1-based phase numbers ("from"/"to") and the point's
    1-based position among its phase's points in the snapshot that
    iteration started from, blank cells skipped.
    """
    doc: dict = {"status": report.status}
    if report.status == INFEASIBLE:
        # balance() ends infeasible right after the pass that gave the reason.
        doc["reason"] = report.iterations[-1].infeasibility
    doc["initial_totals"] = [_jsonify(t) for t in report.initial_totals]
    doc["initial_unbalance"] = _jsonify_unbalance(report.initial_unbalance)
    doc["iterations"] = []
    for rec in report.iterations:
        entry: dict = {
            "totals_before": [_jsonify(t) for t in rec.totals_before],
            "fuzzy_raw": list(rec.suggestion_raw),
            "avg_error": rec.average_error,
            "error_vector": list(rec.error_vector),
            "fuzzy_corrected": list(rec.suggestion_corrected),
        }
        if rec.infeasibility is not None:
            entry["infeasibility"] = rec.infeasibility
        entry["moves"] = [
            {
                "from": mv.source_phase + 1,
                "index": mv.point_index + 1,
                "to": mv.dest_phase + 1,
                "kw": _jsonify(mv.power),
            }
            for mv in rec.plan.moves
        ]
        entry["totals_after"] = [_jsonify(t) for t in rec.totals_after]
        entry["unbalance_after"] = _jsonify_unbalance(rec.unbalance_after)
        doc["iterations"].append(entry)
    doc["final_totals"] = [_jsonify(t) for t in report.final_totals]
    doc["final_unbalance"] = _jsonify_unbalance(report.final_unbalance)
    return json.dumps(doc, indent=2)


def write_moves_csv(report: BalanceReport, out: TextIO) -> None:
    """Flat CSV of every executed move: iteration,from,index,to,kw (1-based)."""
    out.write("iteration,from,index,to,kw\n")
    for it, rec in enumerate(report.iterations, start=1):
        for mv in rec.plan.moves:
            out.write(
                f"{it},{mv.source_phase + 1},{mv.point_index + 1},"
                f"{mv.dest_phase + 1},{format_number(mv.power)}\n"
            )


def reference_feeder_text() -> str:
    """Raw CSV text of the bundled 50-row reference feeder."""
    return bundled_text("reference_feeder.csv")


def load_reference_feeder() -> FeederSnapshot:
    """The bundled three-phase reference feeder (totals 245/120/82 kW)."""
    return parse_feeder_csv(reference_feeder_text())

