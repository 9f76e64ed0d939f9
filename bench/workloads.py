"""Seeded feeder generators for the benchmark's in-process workloads.

Every generator returns CSV text only: the program under test sees the
same bytes a user would hand to ``phasebal balance --input``. The same
(workload, seed) pair always yields byte-identical texts.

Point counts and phase totals are drawn by Latin hypercube sampling over
the pool: each of the pool's N feeders gets one of N equal-width strata
of the range, in a seeded random order, with a seeded position inside
the stratum. The pool then covers the whole range on every seed, so the
latency distribution (which follows instance size) does not drift with
the seed, while every individual feeder is still random.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

HEADER = "phase1,phase2,phase3"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    integer_scale: int
    pool_size: int
    reference: str  # the gauge.py reference its times are scaled by
    make_pool: Callable[[random.Random, int], list[str]] | None


def feeder_csv(phases: list[list[str]]) -> str:
    """Feeder CSV text from three columns of already formatted cells."""
    depth = max(len(p) for p in phases)
    rows = [HEADER]
    for r in range(depth):
        rows.append(",".join(p[r] if r < len(p) else "" for p in phases))
    return "\n".join(rows) + "\n"


def _strata(rng: random.Random, n: int) -> list[float]:
    """n samples in [0, 1), one per equal-width stratum, in random order."""
    order = list(range(n))
    rng.shuffle(order)
    return [(k + rng.random()) / n for k in order]


def _spread(u: float, lo: float, hi: float) -> float:
    return lo + u * (hi - lo)


def small_pool(rng: random.Random, n: int) -> list[str]:
    """The generator of acceptance test [6/8]: 3-20 whole-kW points of 1-9 kW."""
    counts = [_strata(rng, n) for _ in range(3)]
    pool = []
    for k in range(n):
        phases = []
        for ph in range(3):
            m = int(_spread(counts[ph][k], 3, 21))
            phases.append([str(rng.randint(1, 9)) for _ in range(m)])
        pool.append(feeder_csv(phases))
    return pool


def _cents(rng: random.Random, m: int, total_kw: float) -> list[str]:
    """m household-sized points at 0.01 kW precision summing to about total_kw."""
    weights = [rng.uniform(0.2, 1.8) for _ in range(m)]
    scale = total_kw * 100 / sum(weights)
    cells = []
    for w in weights:
        c = max(1, round(w * scale))
        cells.append(f"{c // 100}.{c % 100:02d}")
    return cells


def fractional_pool(min_points: int, max_points: int) -> Callable[[random.Random, int], list[str]]:
    """Phases of min..max fractional points whose total is drawn from 60-280 kW.

    The first feeder is the shape with the largest subset-sum instance:
    one phase at max_points and 280 kW against two phases at 60 kW, so it
    releases the most points on the widest lattice. Peak memory follows
    the largest instance, so pinning it keeps peak metrics seed-independent.
    """

    def make(rng: random.Random, n: int) -> list[str]:
        counts = [_strata(rng, n) for _ in range(3)]
        totals = [_strata(rng, n) for _ in range(3)]
        pool = [feeder_csv([
            _cents(rng, max_points, 280.0),
            _cents(rng, min_points, 60.0),
            _cents(rng, min_points, 60.0),
        ])]
        for k in range(n - 1):
            phases = []
            for ph in range(3):
                m = int(_spread(counts[ph][k], min_points, max_points + 1))
                total = _spread(totals[ph][k], 60.0, 280.0)
                phases.append(_cents(rng, m, total))
            pool.append(feeder_csv(phases))
        return pool

    return make


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "small-feeders",
            "3-20 whole-kW points per phase: the subset DP is tiny, so the fuzzy stage, loop and io dominate",
            integer_scale=1,
            pool_size=2000,
            reference="python",
            make_pool=small_pool,
        ),
        Workload(
            "large-feeders",
            "150-300 fractional points per phase at scale 10: select_subset over many points dominates",
            integer_scale=10,
            pool_size=200,
            reference="table",
            make_pool=fractional_pool(150, 300),
        ),
        Workload(
            "fine-scale",
            "20-60 fractional points per phase at scale 100: few points on a sum axis about 30000 wide",
            integer_scale=100,
            pool_size=600,
            reference="table",
            make_pool=fractional_pool(20, 60),
        ),
        Workload(
            "cli-cold",
            "the bundled reference feeder through a fresh CLI process: interpreter start and import dominate",
            integer_scale=1,
            pool_size=1,
            reference="start",
            make_pool=None,
        ),
    )
}


def make_pool(workload: Workload, seed: int) -> list[str]:
    """The workload's feeders for this seed, as CSV texts."""
    rng = random.Random(f"{workload.name}:{seed}")
    return workload.make_pool(rng, workload.pool_size)
