"""Translate corrected per-phase change values into concrete load-point moves.

Two steps, both built on one size-and-select step: a change of c kW
moves points_to_move(c) points, chosen by an exact fixed-cardinality
subset selection that minimizes the gap between the selected sum and c,
solved exactly at any instance size (no cap). The determine step runs it
for every releasing phase (negative change) and pools the selected
points into a single change vector. The distribute step allocates them
to the receiving phases; with two receivers the first gets the points
the same step selects from the pool and the second gets everything left
over, so released and received always tally even when no exact-sum
subset exists.

The change vector and the plan are plain records; balancing.apply_plan
is the one place that checks a plan's moves against a snapshot.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .model import NUM_PHASES, FeederSnapshot, Frozen, round_half_away

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

class ChangeSuggestion(Frozen):
    """Error-corrected per-phase change vector (integer kW).

    Moving points neither creates nor destroys load, so the vector must
    sum to exactly 0: unless every component is 0, some phase releases
    and some phase receives.
    """

    __slots__ = ("delta",)
    delta: tuple[int, int, int]

    def __init__(self, delta: Sequence[int]) -> None:
        if len(delta) != NUM_PHASES:
            raise ValueError(f"expected {NUM_PHASES} components, got {len(delta)}")
        delta = tuple(int(d) for d in delta)
        if sum(delta) != 0:
            raise ValueError(f"suggestion must sum to 0, got {delta}")
        self._assign(delta)

    @property
    def releasing(self) -> tuple[int, ...]:
        """Indices of phases giving up load, in phase order."""
        return tuple(i for i, d in enumerate(self.delta) if d < 0)

    @property
    def receiving(self) -> tuple[int, ...]:
        """Indices of phases taking on load, in phase order."""
        return tuple(i for i, d in enumerate(self.delta) if d > 0)


class ChangeEntry(NamedTuple):
    """One load point slated to leave its phase.

    source_phase and point_index are 0-based positions into the snapshot
    the entry was selected from.
    """

    source_phase: int
    point_index: int
    power: float


class ChangeVector(NamedTuple):
    """Pooled points released by the determine step, in selection order.

    deviation is the combined absolute gap (kW) between each releasing
    phase's selected sum and its requested release; 0 whenever exact
    subsets exist.
    """

    entries: tuple[ChangeEntry, ...]
    deviation: float = 0.0

    def total(self) -> float:
        return math.fsum(e.power for e in self.entries)


class Move(NamedTuple):
    """Reassignment of one load point (0-based indices, phases included)."""

    source_phase: int
    point_index: int
    dest_phase: int
    power: float


class BalancePlan(NamedTuple):
    """Concrete set of moves; per-phase released/received tallies derive from it.

    Building a plan checks nothing: apply_plan refuses moves that do not
    fit the snapshot they are applied to.
    """

    moves: tuple[Move, ...]

    @property
    def released_per_phase(self) -> tuple[float, float, float]:
        """kW leaving each phase (exact fsum)."""
        return self._tally("source_phase")

    @property
    def received_per_phase(self) -> tuple[float, float, float]:
        """kW arriving on each phase (exact fsum)."""
        return self._tally("dest_phase")

    def _tally(self, attr: str) -> tuple[float, float, float]:
        return tuple(
            math.fsum(m.power for m in self.moves if getattr(m, attr) == i)
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
    nothing to give up. An all-zero suggestion has nothing to move and is
    likewise rejected.
    """
    if all(d == 0 for d in suggestion.delta):
        return "no-op suggestion: all phase changes are zero"
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
    kW. The lattice weights are divided by their greatest common
    divisor, which changes no subset's deviation. Each suffix of the
    points keeps one Python-int bitset of reachable sums per
    cardinality, so the solver is exact at any instance size, with no
    size cap; time and memory grow with points x cardinality x reduced
    lattice sum, at one bit per sum. Among all minimum-deviation subsets
    the lexicographically smallest index set is returned; the reported
    deviation is measured in the original units.
    """
    pts = [float(p) for p in points]
    m = len(pts)
    if not 0 <= n <= m:
        raise ValueError(f"cannot choose {n} points from {m}")
    if target < 0:
        raise ValueError(f"target must be >= 0, got {target!r}")
    if not (isinstance(scale, int) and scale >= 1):
        raise ValueError(f"scale must be a positive integer, got {scale!r}")

    weights = [round_half_away(p * scale) for p in pts]
    goal = round_half_away(target * scale)
    # Every subset sum is a multiple of g, so sums are kept in units of g.
    g = math.gcd(*weights) or 1
    weights = [w // g for w in weights]

    # rows[i][k]: bit s is set when some k-subset of points[i:] sums to s.
    # Only k in [n - i, m - i] is ever read: the first i points supply at
    # most i of the n picks, and points[i:] holds m - i points. Entries
    # outside that range, apart from the empty subset at k = 0, stay 0.
    rows = [[1] + [0] * n for _ in range(m + 1)]
    for i in range(m - 1, -1, -1):
        w, row, nxt = weights[i], rows[i], rows[i + 1]
        for k in range(max(1, n - i), min(n, m - i) + 1):
            row[k] = nxt[k] | (nxt[k - 1] << w)

    # The nearest reachable sums at or below the goal and at or above it;
    # some n-subset always exists, so at least one of the two is found.
    # The mask is no wider than reach, however far above it the goal is.
    reach = rows[0][n]
    floor_goal, ceil_goal = goal // g, -(-goal // g)
    below = reach & ((1 << min(floor_goal + 1, reach.bit_length())) - 1)
    above = reach >> ceil_goal
    nearest = []
    if below:
        nearest.append(below.bit_length() - 1)
    if above:
        nearest.append(ceil_goal + (above & -above).bit_length() - 1)
    best = min(abs(s * g - goal) for s in nearest)
    candidates = {s for s in nearest if abs(s * g - goal) == best}

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


def _size_and_select(points: Sequence[float], change: float, scale: int) -> SubsetSelection:
    """The points a change of `change` kW moves: how many, then which."""
    return select_subset(points, points_to_move(change, points), change, scale)


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
        picked = _size_and_select(points, float(-suggestion.delta[i]), scale)
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
    phase order gets the entries selected against its own change value;
    the second gets all remaining entries, which keeps released and
    received equal regardless of how close the selection landed.
    """
    receivers = suggestion.receiving
    if not 1 <= len(receivers) <= 2:
        raise ValueError(f"expected one or two receiving phases, got {len(receivers)}")
    first, last = receivers[0], receivers[-1]
    entries = vector.entries
    to_first: set[int] = set()
    if first != last and entries:
        powers = [e.power for e in entries]
        to_first = set(_size_and_select(powers, float(suggestion.delta[first]), scale).indices)
    return BalancePlan(
        tuple(
            Move(e.source_phase, e.point_index, first if k in to_first else last, e.power)
            for k, e in enumerate(entries)
        )
    )
