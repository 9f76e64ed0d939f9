"""One digest over the output of a thousand seeded feeders.

The digest is the sha256 of write_report and write_moves_csv for every
feeder below, in order. The feeders come in three shapes: whole kW solved
at scale 1, and 0.01 kW points solved at scale 10 and at scale 100; their
runs end in each of the five statuses. A change meant to leave every
result as it was must leave the digest as it was; a change that alters
results on purpose records the new digest here, with the reason, in the
same commit.
"""

import hashlib
import io
import random

from phasebal.balancing import BalancerConfig, balance
from phasebal.io import parse_feeder_csv, write_moves_csv, write_report

DIGEST = "2314017739fa8748f5db27051fe8ed1b3f47a6da46f11b9a667b2fb862f43685"

# (how many feeders, points per phase, solver scale, cell drawer)
SHAPES = [
    (600, (3, 20), 1, lambda rng: str(rng.randint(1, 25))),
    (250, (8, 30), 10, lambda rng: _cents(rng.randint(20, 900))),
    (150, (4, 16), 100, lambda rng: _cents(rng.randint(20, 1500))),
]


def _cents(c: int) -> str:
    return f"{c // 100}.{c % 100:02d}"


def feeders():
    """(CSV text, scale) for every feeder, the same on every run."""
    rng = random.Random(20261019)
    for count, (fewest, most), scale, cell in SHAPES:
        for _ in range(count):
            phases = [[cell(rng) for _ in range(rng.randint(fewest, most))] for _ in range(3)]
            depth = max(len(p) for p in phases)
            rows = ["phase1,phase2,phase3"]
            rows += [",".join(p[r] if r < len(p) else "" for p in phases) for r in range(depth)]
            yield "\n".join(rows) + "\n", scale


def test_reports_are_byte_identical():
    digest = hashlib.sha256()
    for text, scale in feeders():
        report = balance(parse_feeder_csv(text), BalancerConfig(integer_scale=scale))
        moves = io.StringIO()
        write_moves_csv(report, moves)
        digest.update(write_report(report).encode())
        digest.update(moves.getvalue().encode())
    assert digest.hexdigest() == DIGEST
