"""Span recording around phasebal's layer boundaries, installed from outside.

Nothing under src/ knows about tracing. ``install`` swaps each traced
function for a wrapper in the module namespace the caller looks it up
in, and ``uninstall`` puts the originals back. Spans are kept in memory
as tuples and written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, Sequence

# (module the caller looks the function up in, attribute, span name).
# balancing imports its collaborators by name, and the CLI imports
# parse_feeder_csv, balance and write_report by name, so those are
# replaced where they are called from, not where they are defined.
TRACED: tuple[tuple[str, str, str], ...] = (
    ("phasebal.io", "parse_feeder_csv", "io.parse_feeder_csv"),
    ("phasebal.io", "write_report", "io.write_report"),
    ("phasebal.balancing", "balance", "balancing.balance"),
    ("phasebal.balancing", "error_correct", "balancing.error_correct"),
    ("phasebal.balancing", "apply_plan", "balancing.apply_plan"),
    ("phasebal.balancing", "phase_totals", "model.phase_totals"),
    ("phasebal.balancing", "suggest_changes", "fuzzy.suggest_changes"),
    ("phasebal.balancing", "feasibility_check", "planner.feasibility_check"),
    ("phasebal.balancing", "determine", "planner.determine"),
    ("phasebal.balancing", "distribute", "planner.distribute"),
    ("phasebal.fuzzy", "infer_change", "fuzzy.infer_change"),
    ("phasebal.planner", "select_subset", "planner.select_subset"),
    ("phasebal.cli", "main", "cli.main"),
    ("phasebal.cli", "parse_feeder_csv", "io.parse_feeder_csv"),
    ("phasebal.cli", "balance", "balancing.balance"),
    ("phasebal.cli", "write_report", "io.write_report"),
)

# Spans whose arguments and result are kept for counting after the op.
KEEP_CALLS = frozenset({"fuzzy.infer_change", "planner.select_subset"})

# Work counted from the kept calls; dp_cells_max is a maximum, the rest are sums.
COUNT_KEYS = ("infer_calls", "multi_rule", "select_calls", "dp_cells", "dp_cells_max", "exact", "deviation_kw")

# Span tuple layout: (name, start, end, parent span id or -1, op id).
Span = tuple[str, float, float, int, int]


class Tracer:
    """Records nested spans; each span's id is its index in ``spans``."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span | None] = []
        self.calls: list[tuple[str, tuple, Any]] = []
        self.counts = dict.fromkeys(COUNT_KEYS, 0)
        self.op = -1
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append((name, self.clock(), 0.0, self._stack[-1] if self._stack else -1, self.op))
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        end = self.clock()
        self._stack.pop()
        name, start, _, parent, op = self.spans[sid]
        self.spans[sid] = (name, start, end, parent, op)

    def wrap(self, name: str, fn: Callable) -> Callable:
        keep = name in KEEP_CALLS

        def traced(*args, **kwargs):
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if keep:
                self.calls.append((name, args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def count_kept_calls(self) -> None:
        """Fold the kept calls into ``counts``; call between ops, outside any span."""
        merge_counts(self.counts, count_calls(self.calls))
        self.calls.clear()


def install(tracer: Tracer) -> list[tuple[Any, str, Callable]]:
    """Replace every traced function; returns what ``uninstall`` restores."""
    saved = []
    for module_name, attr, name in TRACED:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(name, original))
    return saved


def uninstall(saved: Iterable[tuple[Any, str, Callable]]) -> None:
    for module, attr, original in saved:
        setattr(module, attr, original)


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> dict[str, float]:
    """Total self time per span name: duration minus what child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals: dict[str, float] = defaultdict(float)
    for sid, (name, start, end, _, _) in enumerate(spans):
        totals[name] += (end - start) - covered(children.get(sid, ()), start, end)
    return dict(totals)


def count_calls(calls: Iterable[tuple[str, tuple, Any]]) -> dict[str, float]:
    """Work counts of the kept calls, computed after the op from their arguments.

    A select_subset instance costs (m+1)(n+1)(S+1) DP cells, where S is
    the sum of the points on the solver's integer lattice; n = 0 returns
    before the DP and costs none. The multi-rule share uses the library's
    own membership_at on every rule antecedent.
    """
    from phasebal.fuzzy import membership_at

    counts = dict.fromkeys(COUNT_KEYS, 0)
    for name, args, result in calls:
        if name == "fuzzy.infer_change":
            ctrl, load = args[:2]
            fired = sum(membership_at(ctrl.input.term(ant), load) > 0.0 for ant, _ in ctrl.rules)
            counts["infer_calls"] += 1
            counts["multi_rule"] += fired >= 2
        else:
            points, n = args[:2]
            scale = args[3] if len(args) > 3 else 1
            cells = 0
            if n > 0:
                lattice_sum = sum(int(math.floor(p * scale + 0.5)) for p in points)
                cells = (len(points) + 1) * (n + 1) * (lattice_sum + 1)
            counts["select_calls"] += 1
            counts["dp_cells"] += cells
            counts["dp_cells_max"] = max(counts["dp_cells_max"], cells)
            counts["exact"] += result.deviation == 0
            counts["deviation_kw"] += result.deviation
    return counts


def merge_counts(total: dict[str, float], part: dict[str, float]) -> None:
    for key in COUNT_KEYS:
        if key == "dp_cells_max":
            total[key] = max(total[key], part[key])
        else:
            total[key] += part[key]


def write_spans(spans: Sequence[Span], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,name,start_s,end_s,parent,op\n")
        for sid, (name, start, end, parent, op) in enumerate(spans):
            fh.write(f"{sid},{name},{start!r},{end!r},{parent},{op}\n")
