"""Domain model for a three-phase feeder and its unbalance metric.

A feeder is modeled as three phase conductors, each carrying a list of
single-phase load points (kW). Load points are movable between phases;
the balancing pipeline never creates or destroys load, it only reassigns
points.
"""

from __future__ import annotations

import math
import os
import sys
from itertools import chain
from typing import Sequence

__all__ = [
    "NUM_PHASES",
    "FeederSnapshot",
    "PhaseTotals",
    "phase_totals",
    "system_total",
    "avg_unbalance",
    "round_half_away",
]

NUM_PHASES = 3

# Per-phase kW totals, one entry per phase.
PhaseTotals = tuple[float, float, float]


def round_half_away(x: float) -> int:
    """Round to the nearest integer, ties away from zero.

    This is the rounding convention used throughout the pipeline (fuzzy
    output, average error, point counts). Note it differs from Python's
    built-in banker's rounding: round_half_away(2.5) == 3, not 2.
    """
    if x >= 0:
        return int(math.floor(x + 0.5))
    return int(math.ceil(x - 0.5))


def format_number(value: float) -> str:
    """Shortest text that reads back as the same float: whole values
    without a decimal point, others as repr. The feeder, moves and
    controller writers all use it."""
    value = float(value)
    return str(int(value)) if value.is_integer() else repr(value)


def bundled_text(name: str) -> str:
    """A file of data/ as text, read by the package's loader (as pkgutil.get_data does)."""
    return __spec__.loader.get_data(os.path.join(os.path.dirname(__file__), "data", name)).decode("utf-8")


class Frozen:
    """Immutable value type over the names in a subclass's __slots__.

    The public slots, those not starting with an underscore, are the
    fields: they define equality, hashing, repr and pickling, and the
    subclass's __init__ takes them positionally in slot order. Private
    slots hold values derived from the fields. __init__ fills every slot
    once through _assign; any later assignment or deletion raises
    AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(n for n in cls.__slots__ if not n.startswith("_"))

    def _assign(self, *values: object) -> None:
        """Set every slot, in __slots__ order."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, n) for n in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{self.__class__.__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{self.__class__.__name__} is immutable: cannot delete {name!r}")

    # copy and pickle would otherwise restore the slots by setattr.
    def __reduce__(self) -> tuple:
        return self.__class__, self._values()


class FeederSnapshot(Frozen):
    """Immutable state of the feeder: three tuples of load-point powers (kW).

    Every load point is a finite, non-negative kW value, and twice the
    system total is finite, so that no phase total and no unbalance of
    any assignment of the points overflows. Point counts per phase may
    differ (and will, after moves are applied).
    """

    __slots__ = ("phases",)
    phases: tuple[tuple[float, ...], ...]

    def __init__(self, phases: Sequence[Sequence[float]]) -> None:
        if len(phases) != NUM_PHASES:
            raise ValueError(
                f"feeder must have exactly {NUM_PHASES} phases, got {len(phases)}"
            )
        phases = tuple(tuple(float(p) for p in ph) for ph in phases)
        self._assign(phases)
        for i, ph in enumerate(phases):
            for j, p in enumerate(ph):
                if not math.isfinite(p):
                    raise ValueError(f"phase {i + 1} point {j} is not finite: {p!r}")
                if p < 0:
                    raise ValueError(f"phase {i + 1} point {j} is negative: {p!r}")
        try:
            doubled = 2 * system_total(self)
        except OverflowError:
            doubled = math.inf
        if math.isinf(doubled):
            raise ValueError(f"total load exceeds {sys.float_info.max / 2:g} kW")


def phase_totals(snapshot: FeederSnapshot) -> PhaseTotals:
    """Total load per phase. Exact (fsum) per phase, no rounding."""
    t = tuple(math.fsum(ph) for ph in snapshot.phases)
    return t  # type: ignore[return-value]


def system_total(snapshot: FeederSnapshot) -> float:
    """Total system load over all phases, summed in one exact pass.

    fsum over the flattened point list is invariant under any reassignment
    of points between phases, which is what conservation checks rely on.
    """
    return math.fsum(chain.from_iterable(snapshot.phases))


def avg_unbalance(totals: Sequence[float]) -> float:
    """Average unbalance per phase: mean pairwise absolute difference of
    the three phase totals.

    Zero when all three totals are equal; invariant under permutation of
    the phases and under adding a common constant to all three.
    """
    if len(totals) != NUM_PHASES:
        raise ValueError(f"expected {NUM_PHASES} totals, got {len(totals)}")
    t1, t2, t3 = totals
    # fsum keeps the metric independent of phase ordering
    return math.fsum((abs(t1 - t2), abs(t2 - t3), abs(t3 - t1))) / 3.0
