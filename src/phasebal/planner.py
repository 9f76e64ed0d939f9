"""Translate corrected per-phase change values into concrete load-point moves.

Two steps. The determine step picks, for every releasing phase (negative
change), how many points leave and which ones: an exact fixed-cardinality
subset selection that minimizes the gap between the selected sum and the
requested release, solved exactly at any instance size (no cap). The
distribute step pools the selected points into a single change vector
and allocates them to the receiving phases; with two receivers the first
gets a subset selected the same way and the second gets everything left
over, so released and received always tally even when no exact-sum
subset exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .model import NUM_PHASES, FeederSnapshot, round_half_away

__all__ = [
    "ChangeSuggestion",
    "ChangeEntry",
    "ChangeVector",
    "Move",
    "BalancePlan",
    "SubsetSelection",
    "feasibility_check",
    "points_to_move",
    "select_subset",
    "determine",
    "distribute",
]

@dataclass(frozen=True)
class ChangeSuggestion:
    """Signed per-phase change vector (integer kW).

    corrected=True marks a vector that went through zero-sum error
    correction; such a vector must sum to exactly 0, which also means it
    can never have three components of the same strict sign.
    """

    delta: tuple[int, int, int]
    corrected: bool = False

    def __post_init__(self) -> None:
        if len(self.delta) != NUM_PHASES:
            raise ValueError(f"expected {NUM_PHASES} components, got {len(self.delta)}")
        object.__setattr__(self, "delta", tuple(int(d) for d in self.delta))
        if self.corrected:
            if sum(self.delta) != 0:
                raise ValueError(f"corrected suggestion must sum to 0, got {self.delta}")
            negs = sum(1 for d in self.delta if d < 0)
            poss = sum(1 for d in self.delta if d > 0)
            if negs > 2 or poss > 2:
                raise ValueError(f"corrected suggestion has 3 components of one sign: {self.delta}")

    @property
    def releasing(self) -> tuple[int, ...]:
        """Indices of phases giving up load, in phase order."""
        return tuple(i for i, d in enumerate(self.delta) if d < 0)

    @property
    def receiving(self) -> tuple[int, ...]:
        """Indices of phases taking on load, in phase order."""
        return tuple(i for i, d in enumerate(self.delta) if d > 0)


@dataclass(frozen=True)
class ChangeEntry:
    """One load point slated to leave its phase.

    source_phase and point_index are 0-based positions into the snapshot
    the entry was selected from.
    """

    source_phase: int
    point_index: int
    power: float


@dataclass(frozen=True)
class ChangeVector:
    """Pooled points released by the determine step, in selection order.

    deviation is the combined absolute gap (kW) between each releasing
    phase's selected sum and its requested release; 0 whenever exact
    subsets exist.
    """

    entries: tuple[ChangeEntry, ...]
    deviation: float = 0.0

    def __post_init__(self) -> None:
        seen = set()
        for e in self.entries:
            key = (e.source_phase, e.point_index)
            if key in seen:
                raise ValueError(f"duplicate change entry for phase {e.source_phase + 1} point {e.point_index}")
            seen.add(key)
            if e.power <= 0:
                raise ValueError(f"change entry power must be > 0, got {e.power!r}")

    def total(self) -> float:
        return math.fsum(e.power for e in self.entries)


@dataclass(frozen=True)
class Move:
    """Reassignment of one load point (0-based indices, phases included)."""

    source_phase: int
    point_index: int
    dest_phase: int
    power: float


@dataclass(frozen=True)
class BalancePlan:
    """Concrete set of moves plus per-phase released/received tallies."""

    moves: tuple[Move, ...]
    released_per_phase: tuple[float, float, float]
    received_per_phase: tuple[float, float, float]

    def __post_init__(self) -> None:
        for m in self.moves:
            if m.source_phase == m.dest_phase:
                raise ValueError(f"move of point {m.point_index} stays on phase {m.source_phase + 1}")
            if not (0 <= m.source_phase < NUM_PHASES and 0 <= m.dest_phase < NUM_PHASES):
                raise ValueError(f"move references phase outside 1..{NUM_PHASES}")
        # fsum keeps the tally check exact regardless of accumulation order
        if self.released_per_phase != _phase_tally(self.moves, "source_phase"):
            raise ValueError("released tally does not match the moves")
        if self.received_per_phase != _phase_tally(self.moves, "dest_phase"):
            raise ValueError("received tally does not match the moves")


def _phase_tally(moves: Sequence[Move], attr: str) -> tuple[float, float, float]:
    return tuple(
        math.fsum(m.power for m in moves if getattr(m, attr) == i)
        for i in range(NUM_PHASES)
    )


class SubsetSelection(NamedTuple):
    """Chosen 0-based indices plus the achieved |sum - target| in kW."""

    indices: tuple[int, ...]
    deviation: float


def feasibility_check(snapshot: FeederSnapshot, suggestion: ChangeSuggestion) -> str | None:
    """Decide whether a suggested change can be implemented at all.

    Returns None when feasible, otherwise a reason string naming the
    problem. A phase with a nonzero change must have its smallest load
    point strictly below the change magnitude, or no point combination
    can realize the change without altering the system total; phases with
    zero change are exempt. A releasing phase with no point above 0 kW has
    nothing to give up. An all-zero or single-signed suggestion has
    nothing to move and is likewise rejected (the latter cannot survive
    error correction, but is checked defensively).
    """
    if all(d == 0 for d in suggestion.delta):
        return "no-op suggestion: all phase changes are zero"
    if not suggestion.releasing:
        return "suggestion only receives load; no phase releases"
    if not suggestion.receiving:
        return "suggestion only releases load; no phase receives"
    for i, d in enumerate(suggestion.delta):
        if d == 0:
            continue
        points = snapshot.phases[i]
        if d < 0 and not any(points):
            return f"phase {i + 1}: no load to release (no point above 0 kW)"
        if points:
            smallest = min(points)
            if not abs(d) > smallest:
                return (
                    f"phase {i + 1}: change magnitude {abs(d)} kW does not exceed "
                    f"the minimum load point {smallest:g} kW"
                )
    return None


def points_to_move(change_kw: float, points: Sequence[float]) -> int:
    """Number of load points to shift for a change of the given size.

    The change divided by the phase's mean point power, rounded, then
    clamped to [1, point count]: a nonzero change always moves at least
    one point and never more than exist.
    """
    if not points:
        raise ValueError("cannot size a move for a phase with no load points")
    if change_kw <= 0:
        raise ValueError(f"change must be positive, got {change_kw!r}")
    mean = sum(points) / len(points)
    if mean <= 0:
        raise ValueError("cannot size a move for a phase with zero total load")
    return max(1, min(len(points), round_half_away(change_kw / mean)))


def select_subset(
    points: Sequence[float], n: int, target: float, scale: int = 1
) -> SubsetSelection:
    """Pick exactly n points whose sum is as close as possible to target.

    Exact dynamic program over (cardinality, achievable sum) on an integer
    kW lattice: powers are scaled by the integer factor `scale` and
    rounded before the DP, so fractional data can be resolved to 1/scale
    kW. Each suffix of the points keeps one Python-int bitset of
    reachable sums per cardinality, so the solver is exact at any
    instance size, with no size cap; time and memory grow with points x
    cardinality x lattice sum, at one bit per sum. Among all
    minimum-deviation subsets the lexicographically smallest index set
    is returned; the reported deviation is measured in the original
    units.
    """
    pts = [float(p) for p in points]
    m = len(pts)
    if not 0 <= n <= m:
        raise ValueError(f"cannot choose {n} points from {m}")
    if target < 0:
        raise ValueError(f"target must be >= 0, got {target!r}")
    if not (isinstance(scale, int) and scale >= 1):
        raise ValueError(f"scale must be a positive integer, got {scale!r}")
    if n == 0:
        return SubsetSelection((), float(abs(target)))

    weights = [round_half_away(p * scale) for p in pts]
    goal = round_half_away(target * scale)

    # rows[i][k]: bit s is set when some k-subset of points[i:] sums to s.
    rows = [[1] + [0] * n]
    for w in reversed(weights):
        nxt = rows[-1]
        rows.append([nxt[0]] + [nxt[k] | (nxt[k - 1] << w) for k in range(1, n + 1)])
    rows.reverse()

    # The nearest reachable sums at or below the goal and at or above it;
    # some n-subset always exists, so at least one of the two is found.
    reach = rows[0][n]
    below = reach & ((1 << (goal + 1)) - 1)
    above = reach >> goal
    nearest = []
    if below:
        nearest.append(below.bit_length() - 1)
    if above:
        nearest.append(goal + (above & -above).bit_length() - 1)
    best = min(abs(s - goal) for s in nearest)
    candidates = {s for s in nearest if abs(s - goal) == best}

    # Greedy reconstruction: taking the earliest completable index at each
    # step yields the lexicographically smallest optimal index set.
    chosen: list[int] = []
    need = n
    for i in range(m):
        if need == 0:
            break
        w = weights[i]
        take, skip = rows[i + 1][need - 1], rows[i + 1][need]
        with_i = {s - w for s in candidates if s >= w and take >> (s - w) & 1}
        if with_i:
            chosen.append(i)
            candidates = with_i
            need -= 1
        else:
            candidates = {s for s in candidates if skip >> s & 1}

    achieved = sum(pts[i] for i in chosen)
    return SubsetSelection(tuple(chosen), float(abs(achieved - target)))


def determine(
    snapshot: FeederSnapshot, suggestion: ChangeSuggestion, scale: int = 1
) -> ChangeVector:
    """Select the load points each releasing phase gives up.

    Assumes feasibility_check passed. Zero-power points are never pooled;
    selecting one would be a no-op move.
    """
    entries: list[ChangeEntry] = []
    deviation = 0.0
    for i in suggestion.releasing:
        points = snapshot.phases[i]
        release = float(-suggestion.delta[i])
        n = points_to_move(release, points)
        picked = select_subset(points, n, release, scale)
        entries.extend(
            ChangeEntry(i, j, points[j]) for j in picked.indices if points[j] > 0
        )
        deviation += picked.deviation
    return ChangeVector(tuple(entries), deviation)


def distribute(
    vector: ChangeVector, suggestion: ChangeSuggestion, scale: int = 1
) -> BalancePlan:
    """Allocate the pooled change vector to the receiving phases.

    A single receiver takes every entry. With two receivers, the first in
    phase order gets a subset sized and selected against its own change
    value; the second gets all remaining entries, which keeps released
    and received equal regardless of how close the subset landed.
    """
    receivers = suggestion.receiving
    if not receivers:
        raise ValueError("suggestion has no receiving phase")
    if len(receivers) > 2:
        raise ValueError("at most two phases can receive")

    entries = vector.entries
    if len(receivers) == 1 or not entries:
        dest = {k: receivers[0] for k in range(len(entries))}
    else:
        first, second = receivers
        powers = [e.power for e in entries]
        n_first = points_to_move(float(suggestion.delta[first]), powers)
        picked = select_subset(powers, n_first, float(suggestion.delta[first]), scale)
        to_first = set(picked.indices)
        dest = {k: (first if k in to_first else second) for k in range(len(entries))}

    moves = tuple(
        Move(e.source_phase, e.point_index, dest[k], e.power)
        for k, e in enumerate(entries)
    )
    return BalancePlan(
        moves, _phase_tally(moves, "source_phase"), _phase_tally(moves, "dest_phase")
    )
