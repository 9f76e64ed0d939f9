"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import phasebal.balancing  # noqa: E402
import phasebal.io  # noqa: E402
import run  # noqa: E402
import gauge  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

IN_PROCESS = [w for w in workloads.WORKLOADS.values() if w.make_pool is not None]


@pytest.mark.parametrize("workload", IN_PROCESS, ids=lambda w: w.name)
def test_same_seed_gives_byte_identical_pool(workload):
    first = workloads.make_pool(workload, 7)
    assert first == workloads.make_pool(workload, 7)
    assert first != workloads.make_pool(workload, 8)
    assert len(first) == workload.pool_size


@pytest.mark.parametrize("workload", IN_PROCESS, ids=lambda w: w.name)
def test_pool_feeders_have_the_documented_shape(workload):
    bounds = {"small-feeders": (3, 20), "large-feeders": (150, 300), "fine-scale": (20, 60)}
    lo, hi = bounds[workload.name]
    for text in workload.make_pool(random.Random(3), 50):
        phases = run.csv_phases(text)
        for cells in phases:
            assert lo <= len(cells) <= hi
        values = [v for p in phases for v in p]
        if workload.name == "small-feeders":
            assert all(v in range(1, 10) for v in values)
        else:
            assert all(v >= 0.01 and abs(v * 100 - round(v * 100)) < 1e-6 for v in values)
            assert all(59 <= sum(p) <= 281 for p in phases)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ("op", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 3.0, 6.0, 0, 0),  # overlaps a: the union 1..6 is covered once
        ("c", 2.0, 3.0, 1, 0),
        ("d", 9.5, 12.0, 0, 0),  # sticks out of op: only 9.5..10 counts
    ]
    selfs = tracing.self_times(spans)
    assert selfs["op"] == pytest.approx(10 - 5 - 0.5)
    assert selfs["a"] == pytest.approx(3 - 1)
    assert selfs["b"] == pytest.approx(3)
    assert selfs["c"] == pytest.approx(1)


def test_self_times_add_up_to_the_root_span():
    spans = [("op", 0.0, 8.0, -1, 0), ("a", 1.0, 5.0, 0, 0), ("b", 2.0, 3.0, 1, 0), ("b", 6.0, 7.0, 0, 0)]
    assert sum(tracing.self_times(spans).values()) == pytest.approx(8.0)


def test_wrapper_returns_result_and_records_a_closed_span():
    tracer = tracing.Tracer()
    sentinel = object()
    wrapped = tracer.wrap("x", lambda a, b=None: (a, b, sentinel))
    assert wrapped(1, b=2) == (1, 2, sentinel)
    assert wrapped(1, b=2)[2] is sentinel

    def boom():
        raise KeyError("k")

    with pytest.raises(KeyError):
        tracer.wrap("y", boom)()
    assert [s[0] for s in tracer.spans] == ["x", "x", "y"]
    assert all(end >= start for _, start, end, _, _ in tracer.spans)
    assert tracer.begin("after") == 3 and tracer.spans[3][3] == -1


def test_installed_wrappers_leave_library_results_unchanged():
    text = phasebal.io.reference_feeder_text()
    plain = phasebal.io.write_report(phasebal.balancing.balance(phasebal.io.parse_feeder_csv(text)))
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    try:
        traced = phasebal.io.write_report(phasebal.balancing.balance(phasebal.io.parse_feeder_csv(text)))
    finally:
        tracing.uninstall(saved)
    assert traced == plain
    names = {s[0] for s in tracer.spans}
    assert {"io.parse_feeder_csv", "balancing.balance", "planner.select_subset", "fuzzy.infer_change"} <= names
    tracer.count_kept_calls()
    assert tracer.counts["infer_calls"] == 3 and tracer.counts["select_calls"] == 2


def _originals():
    import importlib

    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in tracing.TRACED}


def test_traced_run_leaves_phasebal_unpatched(monkeypatch, tmp_path):
    before = _originals()
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "PROBE_RUNS", 1)
    monkeypatch.setattr(run, "WARMUP_SECONDS", 0.0)
    runner = run.InProcess(workloads.WORKLOADS["small-feeders"], 1)
    runner.pool, runner.phases = runner.pool[:5], runner.phases[:5]
    tallies, metrics, _ = run.per_layer(runner, 0.01, "test")
    assert _originals() == before
    assert all(t.failed == 0 for t in tallies)
    assert metrics["trace.ops"]["value"] == 5
    assert metrics["fuzzy.infer_change.calls"]["value"] > 0


SETTLED_DOC = {"status": "balanced", "initial_unbalance": 0.0, "final_unbalance": 0.0, "iterations": []}


def test_op_times_are_scaled_by_the_gauge_samples_around_them():
    g = gauge.Gauge("table")
    tally = run.Tally(g)
    # The op runs after the first reference sample and before the second;
    # the machine then slows down: samples of 10, 20, 20, 40 and 40 ms.
    g.wall, g.cpu = [0.010], [0.005]
    tally.record(0, 0.004, 0.002, SETTLED_DOC, None)
    g.wall += [0.020, 0.020, 0.040, 0.040]
    g.cpu += [0.010, 0.010, 0.020, 0.020]
    # Its window is samples 0..2, with median 20 ms (10 ms of CPU).
    assert tally.scaled() == [pytest.approx(0.004 * g.nominal / 0.020)]
    assert tally.scaled(cpu=True) == [pytest.approx(0.002 * g.nominal / 0.010)]
    # A block at the end sees only the samples that exist.
    assert g.scale(5) == pytest.approx(g.nominal / 0.040)


def test_a_failed_round_removes_its_slot_from_the_latencies():
    g = gauge.Gauge("table")
    g.wall = g.cpu = [g.nominal]
    tally = run.Tally(g)
    for slot, wall in ((0, 0.001), (1, 0.002), (0, 0.003), (0, 0.005)):
        tally.record(slot, wall, wall, SETTLED_DOC, None)
    tally.record(1, 0.002, 0.002, None, "ValueError: too large")
    assert tally.scaled() == [pytest.approx(0.003)]
    assert (tally.attempted, tally.completed, tally.failed) == (5, 4, 1)


@pytest.mark.parametrize("reference", sorted(gauge.REFERENCES))
def test_gauge_helper_answers_each_sample_and_is_stopped(reference):
    with gauge.Gauge(reference) as g:
        g.sample()
        g.sample()
    assert len(g) == 2 and all(t > 0 for t in g.wall)
    assert g.proc.returncode == 0


def test_check_report_catches_a_tampered_report():
    text = phasebal.io.reference_feeder_text()
    report = phasebal.balancing.balance(phasebal.io.parse_feeder_csv(text))
    doc = json.loads(phasebal.io.write_report(report))
    phases = run.csv_phases(text)
    assert run.check_report(phases, doc, report.final_snapshot.phases) is None

    bad = json.loads(json.dumps(doc))
    bad["iterations"][0]["moves"][0]["kw"] += 1
    assert "does not match" in run.check_report(phases, bad)
    bad = json.loads(json.dumps(doc))
    bad["final_totals"][0] += 1
    assert "final_totals" in run.check_report(phases, bad)
    bad = json.loads(json.dumps(doc))
    bad["status"] = "done"
    assert "status" in run.check_report(phases, bad)
