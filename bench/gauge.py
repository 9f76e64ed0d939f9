"""Reference work that tells how fast the machine runs at the moment.

On a shared virtual machine the speed of every program swings with what
the neighbours do, by up to 2x for seconds or minutes at a time, so ten
runs timed by the wall clock alone spread by up to 35 % of their
median. The benchmark therefore samples a fixed piece of reference work
between blocks of ops and reports each op's time scaled to a machine on
which that work takes its nominal time. A slower program still reads
slower, by the same factor; a slower machine does not. No reference
uses phasebal or the workload's inputs, so no change to the program
moves them.

Contention slows different kinds of work by different amounts, so each
workload uses the reference most like the work that dominates its op
(bench/README.md gives the measurements behind each choice):

- ``python``: per-phase sums over 25 000 small dicts visited in
  shuffled order, interpreter work on a working set of a few MB;
- ``table``: a subset-sum style dynamic program, numpy row shifts and
  ORs into a 24 MB boolean table, the memory-bound work of the planner;
- ``start``: one bare interpreter start, ``python -c pass``, for
  process start and imports.

The reference runs in a helper process, one sample at a time while the
benchmark waits, so that its memory neither counts in the benchmark's
peak memory nor changes how the C allocator serves the program's own
arrays.

    python3 gauge.py <reference>    the helper: one sample per line read, "wall cpu" written back
"""

from __future__ import annotations

import math
import random
import resource
import statistics
import subprocess
import sys
import time

# Per reference: its time on the machine the metrics are scaled to, and
# the seconds of ops between two samples (a start costs more to sample).
REFERENCES = {"python": (0.010, 0.2), "table": (0.010, 0.2), "start": (0.050, 0.5)}
WINDOW = 2  # samples on each side of a block that set its scale

_RECORDS = 25_000
_ROWS, _CARD, _SUM, _STEP = 200, 40, 3001, 7

_records: list[dict] = []


def python() -> float:
    """Fixed interpreter work: per-phase sums over small dicts in shuffled order."""
    if not _records:
        rng = random.Random(0)
        _records.extend({"kw": 9 * rng.random(), "phase": i % 3} for i in range(_RECORDS))
        rng.shuffle(_records)
    totals = [0.0, 0.0, 0.0]
    for record in _records:
        totals[record["phase"]] += 1.5 * record["kw"]
    return sum(totals)


def table() -> int:
    """One fixed dynamic program; returns its count of reachable cells."""
    import numpy as np

    row = np.zeros((_CARD, _SUM), dtype=bool)
    row[0, 0] = True
    dp = np.zeros((_ROWS, _CARD, _SUM), dtype=bool)
    for i in range(_ROWS - 1, -1, -1):
        taken = np.zeros_like(row)
        taken[1:, _STEP:] = row[:-1, : _SUM - _STEP]
        row = row | taken
        dp[i] = row
    return int(dp[0].sum())


def start() -> None:
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)


class Gauge:
    """Reference samples taken during a run, and the scale they give each op.

    Samples are taken inside ``with gauge:``, which starts and stops the
    helper. An op recorded when ``len(gauge)`` was g ran between samples
    g-1 and g. Its scale is the nominal time over the median sample of
    the WINDOW samples on each side, so that one disturbed sample moves
    no op.
    """

    def __init__(self, reference: str) -> None:
        self.reference = reference
        self.nominal, self.block = REFERENCES[reference]
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.last = -math.inf
        self.proc: subprocess.Popen | None = None

    def __enter__(self) -> Gauge:
        self.proc = subprocess.Popen(
            [sys.executable, __file__, self.reference], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()

    def __len__(self) -> int:
        return len(self.wall)

    def sample(self) -> None:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"gauge helper exited with code {self.proc.wait()}")
        wall, cpu = map(float, line.split())
        self.wall.append(wall)
        self.cpu.append(cpu)
        self.last = time.perf_counter()

    def tick(self) -> None:
        """Take a sample if a block's worth of time has passed since the last."""
        if time.perf_counter() - self.last >= self.block:
            self.sample()

    def scale(self, gap: int, cpu: bool = False) -> float:
        samples = (self.cpu if cpu else self.wall)[max(0, gap - WINDOW): gap + WINDOW]
        return self.nominal / statistics.median(samples)


def cpu_seconds() -> float:
    """CPU time of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def serve(reference: str) -> None:
    work = {"python": python, "table": table, "start": start}[reference]
    for _ in range(2):  # the first call builds the dicts, maps the table or loads the files
        work()
    for _ in sys.stdin:
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        work()
        t1 = time.perf_counter()
        c1 = cpu_seconds()
        print(f"{t1 - t0!r} {c1 - c0!r}", flush=True)


if __name__ == "__main__":
    serve(sys.argv[1])
