"""Iterative feeder balancing: suggest, correct, plan, apply, repeat.

Each pass reads the phase totals, asks the fuzzy controller for a signed
change per phase, repairs the suggestion so it sums to zero (moving load
cannot create or destroy power), turns it into concrete point moves, and
applies them. The loop stops when the average unbalance drops below the
threshold, an iteration cap is hit, the suggestion cannot be implemented,
or a phase total leaves the controller's input range.
"""

from __future__ import annotations

from typing import NamedTuple

from .fuzzy import FuzzyController, UniverseError, default_controller, suggest_changes
from .model import NUM_PHASES, FeederSnapshot, Frozen, avg_unbalance, phase_totals, round_half_away
from .planner import (
    BalancePlan,
    ChangeSuggestion,
    determine,
    distribute,
    feasibility_check,
)

__all__ = [
    "BALANCED",
    "ALREADY_BALANCED",
    "INFEASIBLE",
    "ITERATION_CAP",
    "OVER_CAPACITY",
    "BalancerConfig",
    "IterationRecord",
    "BalanceReport",
    "error_correct",
    "apply_plan",
    "balance",
]

BALANCED = "balanced"
ALREADY_BALANCED = "already-balanced"
INFEASIBLE = "infeasible"
ITERATION_CAP = "iteration-cap"
OVER_CAPACITY = "over-capacity"

# The plan of a pass that moves nothing; every infeasible pass shares it.
_NO_MOVES = BalancePlan(())


class BalancerConfig(Frozen):
    """Knobs for the balancing loop.

    unbalance_threshold is in kW and compared strictly (< threshold
    stops). controller=None means default_controller(). integer_scale
    sharpens the subset solver's kW lattice for fractional load data; 1
    keeps whole-kW resolution.
    """

    __slots__ = ("unbalance_threshold", "max_iterations", "controller", "integer_scale")
    unbalance_threshold: float
    max_iterations: int
    controller: FuzzyController
    integer_scale: int

    def __init__(
        self,
        unbalance_threshold: float = 10.0,
        max_iterations: int = 10,
        controller: FuzzyController | None = None,
        integer_scale: int = 1,
    ) -> None:
        if not unbalance_threshold > 0:
            raise ValueError(f"threshold must be > 0, got {unbalance_threshold!r}")
        if max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {max_iterations!r}")
        if not (isinstance(integer_scale, int) and integer_scale >= 1):
            raise ValueError(f"integer_scale must be a positive integer, got {integer_scale!r}")
        if controller is None:
            controller = default_controller()
        self._assign(unbalance_threshold, max_iterations, controller, integer_scale)


class IterationRecord(NamedTuple):
    """Everything one pass of the loop did; an infeasible pass has a reason and no moves."""

    totals_before: tuple[float, float, float]
    suggestion_raw: tuple[int, int, int]
    average_error: int
    error_vector: tuple[int, int, int]
    suggestion_corrected: tuple[int, int, int]
    plan: BalancePlan
    infeasibility: str | None
    totals_after: tuple[float, float, float]
    unbalance_after: float


class BalanceReport(NamedTuple):
    """Outcome of a balance run: status plus the full iteration trail."""

    initial_totals: tuple[float, float, float]
    initial_unbalance: float
    iterations: tuple[IterationRecord, ...]
    status: str
    final_totals: tuple[float, float, float]
    final_unbalance: float
    final_snapshot: FeederSnapshot


def error_correct(raw: tuple[int, int, int]) -> tuple[int, tuple[int, int, int], tuple[int, int, int]]:
    """Repair a raw suggestion so the three changes sum to exactly zero.

    The average error (sum/3, rounded) is removed from the first two
    phases; the third absorbs the remainder so integer truncation cannot
    leave a residue. Returns (average_error, error_vector, corrected).
    """
    total = sum(raw)
    ae = round_half_away(total / 3)
    error = (ae, ae, total - 2 * ae)
    corrected = tuple(r - e for r, e in zip(raw, error))
    return ae, error, corrected


def apply_plan(snapshot: FeederSnapshot, plan: BalancePlan) -> FeederSnapshot:
    """Execute a plan: detach each moved point, append it to its new phase.

    Surviving points keep their relative order; arrivals land at the end
    of the destination phase in move order. The system total is preserved
    exactly because the very same float values are reattached.

    This is the one check of a plan: before anything moves, it raises
    ValueError for a phase outside 0..2, a move that stays on its phase,
    a point index out of range, a power of 0 kW or less, a power that
    differs from the snapshot's value, or a point moved twice.
    """
    taken: tuple[set[int], ...] = tuple(set() for _ in range(NUM_PHASES))
    for src, j, dst, power in plan.moves:
        if not (0 <= src < NUM_PHASES and 0 <= dst < NUM_PHASES):
            raise ValueError(f"move of point {j} from phase {src + 1} to {dst + 1} leaves phases 1..{NUM_PHASES}")
        if src == dst:
            raise ValueError(f"move of phase {src + 1} point {j} stays on its phase")
        points = snapshot.phases[src]
        if not 0 <= j < len(points):
            raise ValueError(f"move references phase {src + 1} point {j}, but the phase has {len(points)} points")
        if not power > 0:
            raise ValueError(f"move of phase {src + 1} point {j} carries {power!r} kW; it must carry more than 0")
        if points[j] != power:
            raise ValueError(f"move expects {power!r} kW at phase {src + 1} point {j}, snapshot has {points[j]!r}")
        if j in taken[src]:
            raise ValueError(f"phase {src + 1} point {j} moved twice")
        taken[src].add(j)

    new_phases: list[list[float]] = [
        [p for j, p in enumerate(points) if j not in gone]
        for points, gone in zip(snapshot.phases, taken)
    ]
    for mv in plan.moves:
        new_phases[mv.dest_phase].append(mv.power)
    return FeederSnapshot(new_phases)


def balance(snapshot: FeederSnapshot, config: BalancerConfig | None = None) -> BalanceReport:
    """Run the balancing loop until the feeder settles or a stop fires.

    Stop conditions, checked in order at the top of each pass: unbalance
    already under threshold (status balanced, or already-balanced when no
    pass ran); iteration cap reached; a phase total that the controller
    refuses as outside its input range (over-capacity). Inside a pass the
    plan step can declare the suggestion infeasible, which also ends the
    run. The totals and the unbalance are computed once per snapshot.
    """
    cfg = config if config is not None else BalancerConfig()
    current = snapshot
    totals = initial_totals = phase_totals(snapshot)
    unbalance = initial_unbalance = avg_unbalance(totals)
    records: list[IterationRecord] = []

    while True:
        if unbalance < cfg.unbalance_threshold:
            status = BALANCED if records else ALREADY_BALANCED
            break
        if len(records) >= cfg.max_iterations:
            status = ITERATION_CAP
            break
        try:
            raw = suggest_changes(cfg.controller, totals)
        except UniverseError:
            status = OVER_CAPACITY
            break
        ae, error, corrected = error_correct(raw)
        suggestion = ChangeSuggestion(corrected)

        # An infeasible pass moves nothing: its totals stay as they were.
        reason = feasibility_check(current, suggestion)
        plan, totals_before = _NO_MOVES, totals
        if reason is None:
            vector = determine(current, suggestion, cfg.integer_scale)
            plan = distribute(vector, suggestion, cfg.integer_scale)
            current = apply_plan(current, plan)
            totals = phase_totals(current)
            unbalance = avg_unbalance(totals)
        records.append(
            IterationRecord(totals_before, raw, ae, error, corrected, plan, reason, totals, unbalance)
        )
        if reason is not None:
            status = INFEASIBLE
            break

    return BalanceReport(
        initial_totals=initial_totals,
        initial_unbalance=initial_unbalance,
        iterations=tuple(records),
        status=status,
        final_totals=totals,
        final_unbalance=unbalance,
        final_snapshot=current,
    )
