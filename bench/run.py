"""phasebal benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload large-feeders --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

One op is one feeder request. In-process workloads call
parse_feeder_csv(text) -> balance(snapshot, BalancerConfig(integer_scale=...))
-> write_report(report); cli-cold starts one fresh
``python -m phasebal balance --input <csv> --report <json>`` process.
Each workload is a closed loop with one client: the next op starts when
the previous one has returned. Every op's output is checked outside the
timed interval.

--trace 0 prints the end-to-end metrics, with every time scaled to a
reference machine speed (gauge.py); --trace 1 runs the same ops with
wrappers around each layer and prints per-layer metrics per op.
``--workload all`` runs every workload in both modes, one process each,
and writes bench/out/results.json.

The program is imported from src/ of the checkout this file lives in;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import compileall
import csv
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from itertools import chain
from pathlib import Path

# One client and no worker threads, in this process and in every child:
# numpy's BLAS pool otherwise spins a second thread after each call,
# which doubles CPU time per op and makes wall time swing with whatever
# else runs on the other core. This must precede the first numpy import.
os.environ.update({name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

import tracing  # noqa: E402
from gauge import Gauge  # noqa: E402
from workloads import WORKLOADS, make_pool  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC)}

STATUSES = ("balanced", "already-balanced", "infeasible", "iteration-cap", "over-capacity")
SETTLED = ("balanced", "already-balanced")
REFERENCE_TOTALS = [146.0, 150.0, 151.0]
# The solver's refusal threshold (planner._MAX_DP_CELLS) when this benchmark was defined.
DP_CELL_CAP = 200_000_000
MIN_OPS = 100  # p90 needs ten samples beyond it
SETUP_RUNS = 6  # before and again after the timed loop
PROBE_RUNS = 5
WARMUP_SECONDS = 0.5
PEAK_PASS_SECONDS = 2.0


def die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_phasebal() -> None:
    """Import phasebal from this checkout's src/, never an installed copy.

    The package is byte-compiled first, as an install would do, so that
    fresh interpreters load cached bytecode even where the environment
    forbids writing it (PYTHONDONTWRITEBYTECODE).
    """
    if not (SRC / "phasebal" / "__init__.py").is_file():
        die(f"no phasebal source at {SRC / 'phasebal'}")
    if not compileall.compile_dir(str(SRC / "phasebal"), quiet=1):
        die(f"cannot byte-compile {SRC / 'phasebal'}")
    sys.path.insert(0, str(SRC))
    import phasebal

    if Path(phasebal.__file__).resolve().parent != SRC / "phasebal":
        die(f"imported phasebal from {phasebal.__file__}, not from {SRC}")


def child(*args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), *args],
        env=CHILD_ENV, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        die(f"child {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return proc.stdout


def median_child_seconds(runs: int, *args: str) -> float:
    return statistics.median(float(child(*args)) for _ in range(runs))


def interpreter_seconds(runs: int) -> float:
    samples = []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=CHILD_ENV, check=True, timeout=60)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


# --- output checks ---------------------------------------------------------


def csv_phases(text: str) -> list[list[float]]:
    """Phase columns of a feeder CSV, read without phasebal."""
    phases: list[list[float]] = [[], [], []]
    for row in list(csv.reader(io.StringIO(text)))[1:]:
        for col, cell in enumerate(row):
            if cell.strip():
                phases[col].append(float(cell))
    return phases


def check_report(phases: list[list[float]], doc: dict, final_phases=None) -> str | None:
    """Why a report is wrong, or None.

    The status is documented, every corrected suggestion sums to 0,
    replaying the moves on the input reproduces final_totals exactly, and
    the system total is conserved exactly.
    """
    if doc["status"] not in STATUSES:
        return f"undocumented status {doc['status']!r}"
    current = [list(p) for p in phases]
    for it in doc["iterations"]:
        if sum(it["fuzzy_corrected"]) != 0:
            return f"corrected suggestion {it['fuzzy_corrected']} does not sum to 0"
        removals = []
        for mv in it["moves"]:
            src, idx, dst = mv["from"] - 1, mv["index"] - 1, mv["to"] - 1
            if not (0 <= idx < len(current[src]) and current[src][idx] == mv["kw"]):
                return f"move {mv} does not match the snapshot"
            current[dst].append(mv["kw"])
            removals.append((src, idx))
        for src, idx in sorted(removals, reverse=True):
            del current[src][idx]
    if [math.fsum(p) for p in current] != [float(t) for t in doc["final_totals"]]:
        return "replaying the moves does not reproduce final_totals"
    final = current if final_phases is None else final_phases
    if math.fsum(chain.from_iterable(final)) != math.fsum(chain.from_iterable(phases)):
        return "system total not conserved"
    return None


def regressing_passes(doc: dict) -> int:
    """Passes whose unbalance_after exceeds the unbalance before them (0.01 kW, as reported)."""
    before = doc["initial_unbalance"]
    count = 0
    for it in doc["iterations"]:
        count += it["unbalance_after"] > before
        before = it["unbalance_after"]
    return count


class Tally:
    """Outcomes of ops on numbered slots.

    With a gauge, each completed op keeps its wall and CPU time and the
    number of gauge samples taken before it, so that its time can be
    scaled to the machine's speed around it (see gauge.py).
    """

    def __init__(self, gauge: Gauge | None = None) -> None:
        self.gauge = gauge
        self.times: dict[int, list[tuple[float, float, int]]] = defaultdict(list)
        self.outcome: dict[int, tuple[str, float, int, int]] = {}
        self.failed_slots: set[int] = set()
        self.op_seconds = 0.0
        self.attempted = 0
        self.completed = 0
        self.failed = 0
        self.wrong = 0
        self.first_error: str | None = None

    def record(self, slot: int, wall: float, cpu: float, doc: dict | None, problem: str | None) -> None:
        self.attempted += 1
        self.op_seconds += wall
        if problem is not None:
            self.failed += 1
            self.wrong += doc is not None
            self.failed_slots.add(slot)
            self.first_error = self.first_error or problem
            return
        self.completed += 1
        if self.gauge is not None:
            self.times[slot].append((wall, cpu, len(self.gauge)))
        self.outcome[slot] = (doc["status"], doc["final_unbalance"], len(doc["iterations"]), regressing_passes(doc))

    def ops_per_s(self) -> float:
        """Completed ops per second of op wall time, every round counted."""
        return self.completed / self.op_seconds

    def scaled(self, cpu: bool = False) -> list[float]:
        """Each slot's median scaled time over its rounds; slots with a failed op are left out."""
        return [
            statistics.median((c if cpu else w) * self.gauge.scale(gap, cpu) for w, c, gap in samples)
            for slot, samples in self.times.items()
            if slot not in self.failed_slots
        ]

    def raw_p50(self) -> float:
        return statistics.median(w for slot, samples in self.times.items() for w, _, _ in samples)

    def statuses(self) -> dict[str, int]:
        counts = dict.fromkeys(STATUSES, 0)
        for status, *_ in self.outcome.values():
            counts[status] += 1
        return counts


# --- workload runners ------------------------------------------------------


class InProcess:
    """parse -> balance -> write_report on pooled CSV texts, in this process."""

    def __init__(self, workload, seed: int) -> None:
        import phasebal.balancing
        import phasebal.io

        self.bal = phasebal.balancing
        self.pio = phasebal.io
        self.scale = workload.integer_scale
        self.pool = make_pool(workload, seed)
        self.phases = [csv_phases(text) for text in self.pool]

    def __len__(self) -> int:
        return len(self.pool)

    @property
    def trace_slots(self) -> int:
        return len(self.pool)

    def call(self, k: int):
        snapshot = self.pio.parse_feeder_csv(self.pool[k])
        report = self.bal.balance(snapshot, self.bal.BalancerConfig(integer_scale=self.scale))
        return report, self.pio.write_report(report)

    def op(self, k: int, tally: Tally, tracer: tracing.Tracer | None = None) -> None:
        result = error = None
        if tracer is not None:
            sid = tracer.begin("op")
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = self.call(k)
        except Exception as exc:  # a refused or crashed op counts as failed
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        c1 = time.process_time()
        if tracer is not None:
            tracer.end(sid)
        if error is not None:
            tally.record(k, t1 - t0, c1 - c0, None, error)
            return
        report, text = result
        doc = json.loads(text)
        problem = check_report(self.phases[k], doc, report.final_snapshot.phases)
        if problem is None and list(report.final_totals) != [float(t) for t in doc["final_totals"]]:
            problem = "report object and JSON disagree on final_totals"
        tally.record(k, t1 - t0, c1 - c0, doc, problem)

    def peak_alloc_mb(self) -> tuple[float, int, float]:
        """Largest tracemalloc peak of one op over a pool prefix: (MiB, ops, seconds)."""
        peak = 0
        tracemalloc.start()
        start = time.perf_counter()
        ops = 0
        try:
            for k in range(len(self.pool)):
                if ops and time.perf_counter() - start > PEAK_PASS_SECONDS:
                    break
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                try:
                    self.call(k)
                except Exception:  # already counted as failed in the timed loop
                    pass
                peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
                ops += 1
        finally:
            tracemalloc.stop()
        return peak / 2**20, ops, time.perf_counter() - start

    def max_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class ColdCli:
    """One fresh ``python -m phasebal balance`` process per op, on the bundled feeder.

    All slots run the same input; there are MIN_OPS of them so that p90
    has ten samples beyond it, and a few in a traced pass.
    """

    trace_slots = 5

    def __init__(self, workload, seed: int) -> None:
        self.csv_path = SRC / "phasebal" / "data" / "reference_feeder.csv"
        self.report_path = OUT / "cli-report.json"
        self.spans_path = OUT / "cli-spans.json"
        self.phases = csv_phases(self.csv_path.read_text(encoding="utf-8"))

    def __len__(self) -> int:
        return MIN_OPS

    def op(self, k: int, tally: Tally, tracer: tracing.Tracer | None = None) -> None:
        self.report_path.unlink(missing_ok=True)
        if tracer is None:
            argv = [sys.executable, "-m", "phasebal", "balance",
                    "--input", str(self.csv_path), "--report", str(self.report_path)]
        else:
            argv = [sys.executable, str(BENCH / "child.py"), "trace",
                    str(self.csv_path), str(self.report_path), str(self.spans_path)]
            sid = tracer.begin("op")
        r0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=CHILD_ENV, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        t1 = time.perf_counter()
        r1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
        if tracer is not None:
            tracer.end(sid)
        if proc.returncode != 0:
            tally.record(k, t1 - t0, cpu, None, f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return
        doc = json.loads(self.report_path.read_text(encoding="utf-8"))
        problem = check_report(self.phases, doc)
        if problem is None and [float(t) for t in doc["final_totals"]] != REFERENCE_TOTALS:
            problem = f"final totals {doc['final_totals']}, expected {REFERENCE_TOTALS}"
        tally.record(k, t1 - t0, cpu, doc, problem)
        if tracer is not None:
            self.merge_child_trace(tracer, sid)

    def merge_child_trace(self, tracer: tracing.Tracer, op_sid: int) -> None:
        data = json.loads(self.spans_path.read_text(encoding="utf-8"))
        base = len(tracer.spans)
        for name, start, end, parent, _ in data["spans"]:
            tracer.spans.append((name, start, end, op_sid if parent < 0 else parent + base, tracer.op))
        tracing.merge_counts(tracer.counts, data["counts"])

    def peak_alloc_mb(self) -> tuple[float, int, float]:
        start = time.perf_counter()
        peak = float(child("peak", str(self.csv_path), str(self.report_path)))
        return peak, 1, time.perf_counter() - start

    def max_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def rounds(runner, tally: Tally, seconds: float) -> int:
    """Whole rounds over every slot while another fits in seconds, at least one.

    The gauge is sampled before the first op, between blocks of ops and
    after the last. On cli-cold one round of 100 processes takes about
    as long as --seconds, so that run makes one round.
    """
    start = time.perf_counter()
    tally.gauge.sample()
    done = 0
    while done == 0 or (time.perf_counter() - start) * (done + 1) / done <= seconds:
        for k in range(len(runner)):
            runner.op(k, tally)
            tally.gauge.tick()
        done += 1
    tally.gauge.sample()
    return done


# --- metrics ----------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def warm_up(runner) -> Tally:
    """Untimed ops until lazy set-up is done; they are checked like any other."""
    tally = Tally()
    start = time.perf_counter()
    k = 0
    while k < 2 or (time.perf_counter() - start < WARMUP_SECONDS and k < len(runner)):
        runner.op(k, tally)
        k += 1
    return tally


def setup_seconds(starts: Gauge, runs: int) -> list[tuple[float, float]]:
    """Set-up probes, each between two samples of the start reference: (unscaled, scaled) seconds."""
    samples = []
    for _ in range(runs):
        starts.sample()
        seconds = float(child("setup"))
        starts.sample()
        samples.append((seconds, seconds * starts.scale(len(starts) - 1)))
    return samples


def end_to_end(runner, seconds: float, reference: str) -> tuple[list[Tally], dict, list[str]]:
    # Set-up is process start and imports, so it is scaled by the start
    # reference whatever the workload's. Half its samples are taken before
    # the timed loop and half after it, so that one slow stretch of the
    # machine does not set the median alone.
    with Gauge("start") as starts, Gauge(reference) as gauge:
        setup = setup_seconds(starts, SETUP_RUNS)
        warm = warm_up(runner)
        tally = Tally(gauge)
        done = rounds(runner, tally, seconds)
        rss = runner.max_rss_mb()
        setup += setup_seconds(starts, SETUP_RUNS)
    peak, peak_ops, peak_seconds = runner.peak_alloc_mb()
    wall = tally.scaled()
    if len(wall) < 2:
        die(f"fewer than two slots completed every round; first failure: {tally.first_error}")
    cpu = tally.scaled(cpu=True)
    outcomes = list(tally.outcome.values())
    settled = sum(status in SETTLED for status, *_ in outcomes)
    metrics = {
        "ops_per_s": metric(len(wall) / math.fsum(wall), "1/s"),
        "latency_p50_ms": metric(statistics.median(wall) * 1e3, "ms"),
        "latency_p90_ms": metric(statistics.quantiles(wall, n=10)[8] * 1e3, "ms"),
        "cpu_ms_per_op": metric(statistics.fmean(cpu) * 1e3, "ms"),
        "peak_alloc_mb": metric(peak, "MiB"),
        "max_rss_mb": metric(rss, "MiB"),
        "setup_s": metric(statistics.median(s for _, s in setup), "s"),
        "balanced_frac": metric(settled / len(outcomes), "frac"),
        "final_unbalance_kw": metric(statistics.fmean(u for _, u, _, _ in outcomes), "kW"),
    }
    ref_ms = [1e3 * t for t in gauge.wall]
    notes = [
        f"latency samples: {len(wall)} slots x {done} rounds, each slot timed by its median scaled round; "
        f"{tally.completed} of {tally.attempted} ops completed",
        f"unscaled, all rounds: {tally.ops_per_s():.4g} ops/s, p50 {1e3 * tally.raw_p50():.4g} ms; "
        f"set-up {statistics.median(u for u, _ in setup):.4g} s",
        f"gauge reference {reference!r}: {len(ref_ms)} samples, median {statistics.median(ref_ms):.3f} ms "
        f"(min {min(ref_ms):.3f}, max {max(ref_ms):.3f}); times are scaled to {1e3 * gauge.nominal:g} ms",
        f"statuses over slots: {tally.statuses()}",
        f"tracemalloc pass (untimed): {peak_ops} ops in {peak_seconds:.2f} s, "
        f"{1e3 * peak_seconds / peak_ops:.2f} ms/op against {1e3 / tally.ops_per_s():.2f} ms/op timed",
    ]
    return [warm, tally], metrics, notes


LAYER_SPANS = tuple(dict.fromkeys(name for _, _, name in tracing.TRACED))


def per_layer(runner, seconds: float, workload_name: str) -> tuple[list[Tally], dict, list[str]]:
    interpreter_ms = interpreter_seconds(PROBE_RUNS) * 1e3
    import_ms = median_child_seconds(PROBE_RUNS, "import", "phasebal") * 1e3
    numpy_ms = median_child_seconds(PROBE_RUNS, "import", "numpy") * 1e3

    # A whole untraced pass first: the first pass over the slots pays for
    # growing the process's memory, which would be charged to tracing.
    warm = Tally()
    for k in range(runner.trace_slots):
        runner.op(k, warm)
    # Untraced and traced whole passes over the slots, in ABBA order, while
    # another pair fits in the run time: drift on the machine and the
    # position in a pair hit both sides alike, and per-op counts repeat
    # exactly for a seed.
    tracer = tracing.Tracer()
    untraced, traced = Tally(), Tally()
    start = time.perf_counter()
    passes = 0
    while passes == 0 or (time.perf_counter() - start) * (passes + 1) / passes <= seconds:
        for with_trace in (False, True) if passes % 2 == 0 else (True, False):
            if not with_trace:
                for k in range(runner.trace_slots):
                    runner.op(k, untraced)
                continue
            saved = tracing.install(tracer)
            try:
                for k in range(runner.trace_slots):
                    tracer.op = passes * runner.trace_slots + k
                    runner.op(k, traced, tracer)
                    tracer.count_kept_calls()
            finally:
                tracing.uninstall(saved)
        passes += 1
    counts = tracer.counts

    tracing.write_spans(tracer.spans, OUT / f"spans-{workload_name}.csv")
    selfs = tracing.self_times(tracer.spans)
    n = traced.attempted
    outcomes = list(traced.outcome.values())
    if not outcomes:
        die(f"no traced op completed; first failure: {traced.first_error}")
    statuses = traced.statuses()
    op_total = math.fsum(end - start for name, start, end, _, _ in tracer.spans if name == "op")

    def per_op_ms(name: str) -> float:
        return selfs.get(name, 0.0) / n * 1e3

    metrics = {
        "op.ms": metric(op_total / n * 1e3, "ms"),
        "op.other.ms": metric(per_op_ms("op"), "ms"),
    }
    for name in LAYER_SPANS:
        metrics[f"{name}.ms"] = metric(per_op_ms(name), "ms")
    infer, select = counts["infer_calls"], counts["select_calls"]
    metrics.update({
        "fuzzy.infer_change.calls": metric(infer / n, "calls/op"),
        "fuzzy.infer_change.multi_rule_frac": metric(counts["multi_rule"] / infer if infer else 0.0, "frac"),
        "planner.select_subset.calls": metric(select / n, "calls/op"),
        "planner.select_subset.computed_dp_cells": metric(counts["dp_cells"] / n, "cells/op"),
        "planner.select_subset.computed_dp_cells_max": metric(counts["dp_cells_max"], "cells"),
        "planner.select_subset.computed_cap_headroom": metric(1 - counts["dp_cells_max"] / DP_CELL_CAP, "frac"),
        "planner.select_subset.exact_frac": metric(counts["exact"] / select if select else 0.0, "frac"),
        "planner.deviation_kw": metric(counts["deviation_kw"] / n, "kW/op"),
        "balancing.iterations": metric(sum(o[2] for o in outcomes) / len(outcomes), "count/op"),
        "balancing.regressing_iterations": metric(sum(o[3] for o in outcomes) / len(outcomes), "count/op"),
        "cli.interpreter_ms": metric(interpreter_ms, "ms"),
        "cli.import_ms": metric(import_ms, "ms"),
        "cli.import_numpy_ms": metric(numpy_ms, "ms"),
        "trace.ops_per_s": metric(traced.ops_per_s(), "1/s"),
        "trace.untraced_ops_per_s": metric(untraced.ops_per_s(), "1/s"),
        "trace.overhead_frac": metric(untraced.ops_per_s() / traced.ops_per_s() - 1, "frac"),
        "trace.ops": metric(n, "count"),
    })
    for status, count in statuses.items():
        metrics[f"status.{status}"] = metric(count, "count/pass")

    other = "process start and imports" if isinstance(runner, ColdCli) else "benchmark loop"
    shares = {name: selfs.get(name, 0.0) / op_total for name in LAYER_SPANS}
    shares[f"op.other ({other})"] = selfs.get("op", 0.0) / op_total
    layers: dict[str, float] = {}
    for name, share in shares.items():
        layer = name.split(".")[0] if not name.startswith("op.") else name
        layers[layer] = layers.get(layer, 0.0) + share
    top = max(shares, key=shares.get)
    notes = [
        f"traced ops: {n} ({passes} passes over {runner.trace_slots} slots); statuses per pass: "
        + ", ".join(f"{s} {c}" for s, c in statuses.items()),
        f"dominant span: {top}, {shares[top]:.1%} of traced op time",
        "op time by layer: " + ", ".join(f"{k} {v:.1%}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1])),
    ]
    return [warm, untraced, traced], metrics, notes


def pin_to_one_cpu() -> None:
    """Keep the benchmark, its gauge helpers and its children on one CPU.

    On a virtual machine each CPU is a thread of the host that neighbours
    slow down separately; the gauge measures the speed the ops see only
    if both run on the same one. The last CPU is chosen because the first
    usually takes the interrupts.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_one(args) -> int:
    import_phasebal()
    pin_to_one_cpu()
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    runner = (ColdCli if workload.make_pool is None else InProcess)(workload, args.seed)
    if args.trace:
        tallies, metrics, notes = per_layer(runner, args.seconds, workload.name)
    else:
        tallies, metrics, notes = end_to_end(runner, args.seconds, workload.reference)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: {workload.why}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}")
    for note in notes:
        print(f"  {note}")
    errors = [t.first_error for t in tallies if t.first_error]
    if errors:
        print(f"  first failure: {errors[0]}")
    print(json.dumps({
        "correct": all(t.wrong == 0 for t in tallies),
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in both modes, one fresh process each; results to bench/out/results.json."""
    import_phasebal()
    OUT.mkdir(exist_ok=True)
    results = {}
    code = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900,
            )
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                code = proc.returncode
                continue
            results[f"{name}/trace{trace}"] = json.loads(proc.stdout.strip().splitlines()[-1])
    (OUT / "results.json").write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {OUT / 'results.json'}")
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
