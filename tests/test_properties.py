import io
import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from phasebal.balancing import (
    ALREADY_BALANCED,
    BALANCED,
    INFEASIBLE,
    ITERATION_CAP,
    OVER_CAPACITY,
    BalancerConfig,
    balance,
    error_correct,
)
from phasebal.fuzzy import (
    FuzzyController,
    LinguisticVariable,
    TriangularMF,
    default_controller,
    infer_change,
    membership_at,
    parse_controller,
    reference_controller_text,
    suggest_changes,
    write_controller,
)
from phasebal.io import parse_feeder_csv, write_feeder_csv, write_report
from phasebal.model import FeederSnapshot, avg_unbalance, round_half_away, system_total
from phasebal.planner import points_to_move, select_subset

from .oracles import (
    brute_force_subset,
    exact_clipped_centroid,
    fine_grid_centroid,
    fired_consequents,
    grid_holds_term,
    reference_balance,
    sampled_grid_centroid,
)

CONTROLLER = default_controller()
STATUSES = {BALANCED, ALREADY_BALANCED, INFEASIBLE, ITERATION_CAP, OVER_CAPACITY}


@st.composite
def subset_instances(draw):
    points = draw(st.lists(st.integers(1, 30), min_size=1, max_size=10))
    n = draw(st.integers(0, len(points)))
    target = draw(st.integers(0, sum(points) + 5))
    return points, n, target


@st.composite
def scaled_subset_instances(draw):
    """Fractional points on a 0.01 kW grid, zeros included, at scale 10 or 100."""
    points = draw(
        st.lists(st.integers(0, 500).map(lambda c: c / 100), min_size=1, max_size=10)
    )
    n = draw(st.integers(0, len(points)))
    target = draw(st.integers(0, round(sum(points) * 100) + 500).map(lambda c: c / 100))
    scale = draw(st.sampled_from([10, 100]))
    return points, n, target, scale


def lattice(x, scale):
    """Round x * scale to the nearest integer, halves up (x >= 0)."""
    return math.floor(x * scale + 0.5)


@st.composite
def multi_rule_cases(draw):
    """A custom controller plus a load at which two or more consequents fire.

    Output terms may be shoulders (left == apex or apex == right) and may
    touch either end of the universe; a term spanning the whole universe
    keeps its coverage gap-free. Every input term spans the whole input
    universe, so every rule fires inside it, and rules may share a
    consequent.
    """
    lo = draw(st.sampled_from([-150.0, -100.0]) | st.floats(-300, 0))
    hi = lo + draw(st.sampled_from([300.0, 200.0]) | st.floats(10, 400))
    fraction = st.sampled_from([0.0, 1.0]) | st.floats(0, 1)

    def at(f):
        return min(hi, lo + f * (hi - lo))

    terms = []
    for i in range(draw(st.integers(2, 4))):
        left, apex, right = sorted(draw(st.lists(fraction, min_size=3, max_size=3)))
        # wide enough to hold samples at every resolution drawn below
        assume(right - left >= 0.01)
        shape = draw(st.sampled_from(["triangle", "left shoulder", "right shoulder"]))
        if shape == "left shoulder":
            apex = left
        elif shape == "right shoulder":
            apex = right
        terms.append(TriangularMF(f"O{i}", at(left), at(apex), at(right)))
    terms.append(TriangularMF("ALL", lo, at(draw(fraction)), hi))
    output = LinguisticVariable("Change", (lo, hi), tuple(terms))

    apexes = draw(
        st.lists(st.sampled_from([0.0, 100.0]) | st.floats(0, 100), min_size=2, max_size=5)
    )
    inputs = tuple(TriangularMF(f"I{i}", 0.0, a, 100.0) for i, a in enumerate(apexes))
    labels = [t.label for t in terms]
    rules = tuple((t.label, draw(st.sampled_from(labels))) for t in inputs)
    resolution = draw(st.sampled_from([1000, 1001, 2001, 10001]))
    controller = FuzzyController(
        LinguisticVariable("Load", (0.0, 100.0), inputs), output, rules, resolution
    )
    load = draw(st.floats(0, 100))
    strengths = fired_consequents(controller, load).values()
    assume(len(strengths) >= 2)
    # A subnormal strength keeps too few bits for the sample-by-sample sum
    # to serve as the reference: each x * w rounds to a multiple of 2**-1074.
    assume(min(strengths) >= sys.float_info.min)
    return controller, load


@st.composite
def clipped_terms(draw):
    """A triangle and a clip strength for the single-consequent centroid.

    Terms are exactly symmetric, asymmetric triangles or shoulders of
    ordinary size, or a few to a thousand float spacings wide far from 0.
    Strengths include the extremes 0 and 1 and subnormal values.
    """
    kind = draw(st.sampled_from(["symmetric", "wide", "narrow"]))
    if kind == "symmetric":
        apex = draw(st.integers(-10**6, 10**6)) / 4
        half = draw(st.integers(1, 10**6)) / 4
        left, right = apex - half, apex + half
    else:
        if kind == "wide":
            apex = draw(st.sampled_from([0.0, -150.0, 150.0]) | st.floats(-1e3, 1e3))
            unit = draw(st.floats(1e-6, 1e3))
            below, above = (draw(st.floats(0, 1)) for _ in "lr")
        else:
            apex = draw(st.sampled_from([1e6, -1e9, 1e12, 3.7e15]))
            unit = math.ulp(apex)
            below, above = (draw(st.integers(0, 1000)) for _ in "lr")
        shape = draw(st.sampled_from(["triangle", "left shoulder", "right shoulder"]))
        left = apex if shape == "left shoulder" else apex - below * unit
        right = apex if shape == "right shoulder" else apex + above * unit
    assume(left < right and (right - left) >= 8 * math.ulp(max(-left, right)))
    strength = draw(st.sampled_from([0.0, 5e-324, 1e-300, 1.0]) | st.floats(0, 1))
    return TriangularMF("T", left, apex, right), strength


@st.composite
def output_grids(draw):
    """An output variable and a sample count for its grid.

    Besides a full-width left shoulder, which keeps the coverage gap-free,
    each term is a triangle or a shoulder whose edges lie anywhere, exactly
    on grid samples, or within one step of each other.
    """
    lo = draw(st.sampled_from([-150.0, 0.0]) | st.floats(-300, 300))
    hi = lo + draw(st.sampled_from([300.0, 1.0]) | st.floats(0.5, 1000))
    samples = draw(st.integers(2, 300) | st.sampled_from([1000, 10001]))
    xs = np.linspace(lo, hi, samples)
    step = (hi - lo) / (samples - 1)
    terms = [TriangularMF("ALL", lo, lo, hi)]
    for i in range(draw(st.integers(1, 3))):
        j = draw(st.integers(0, samples - 2))
        edges = draw(st.sampled_from(["anywhere", "on samples", "narrow"]))
        if edges == "on samples":
            k = j + draw(st.integers(1, min(2, samples - 1 - j)))
            left, right = float(xs[j]), float(xs[k])
        elif edges == "narrow":
            left = max(lo, min(hi, float(xs[j]) + draw(st.floats(-1, 1)) * step))
            right = min(hi, left + draw(st.floats(0, 1)) * step)
        else:
            left = draw(st.floats(lo, hi))
            right = min(hi, left + draw(st.floats(0, 3)) * step)
        assume(left < right)
        shape = draw(st.sampled_from(["triangle", "left shoulder", "right shoulder"]))
        if shape == "left shoulder":
            apex = left
        elif shape == "right shoulder":
            apex = right
        else:
            apex = draw(st.sampled_from([(left + right) / 2]) | st.floats(left, right))
        terms.append(TriangularMF(f"T{i}", left, apex, right))
    return LinguisticVariable("Change", (lo, hi), tuple(terms)), samples


@st.composite
def snapshots(draw):
    phases = [
        draw(st.lists(st.integers(0, 9), min_size=1, max_size=8)) for _ in range(3)
    ]
    return FeederSnapshot(phases)


@st.composite
def oracle_feeders(draw, top=30):
    """Up to 8 points per phase, whole kW or tenths up to `top` kW, and a
    solver scale; two releasing phases pool at most 16 points, within reach
    of brute force."""
    tenths = draw(st.booleans())
    cell = st.integers(0, top * 10).map(lambda c: c / 10) if tenths else st.integers(0, top)
    phases = [draw(st.lists(cell, max_size=8)) for _ in range(3)]
    assume(any(phases))
    return phases, draw(st.sampled_from([1, 10]))


class TestRoundingProperties:
    @given(st.integers(-1000, 1000))
    def test_integers_are_fixed_points(self, n):
        assert round_half_away(float(n)) == n

    @given(st.floats(-1e6, 1e6))
    def test_within_half_of_input(self, x):
        assert abs(round_half_away(x) - x) <= 0.5

    @given(st.integers(-500, 500))
    def test_halves_round_away_from_zero(self, n):
        x = n + (0.5 if n >= 0 else -0.5)
        r = round_half_away(x)
        assert abs(r) == abs(n) + 1
        assert (r >= 0) == (x >= 0)


class TestUnbalanceProperties:
    @given(st.tuples(st.floats(0, 1e4), st.floats(0, 1e4), st.floats(0, 1e4)))
    def test_non_negative(self, totals):
        assert avg_unbalance(totals) >= 0.0

    @given(st.tuples(st.floats(0, 1e4), st.floats(0, 1e4), st.floats(0, 1e4)))
    def test_permutation_invariant(self, totals):
        a, b, c = totals
        assert avg_unbalance((a, b, c)) == avg_unbalance((c, a, b))

    @given(st.floats(0, 1e4))
    def test_zero_iff_equal(self, t):
        assert avg_unbalance((t, t, t)) == 0.0


class TestMembershipProperties:
    @given(
        st.floats(-100, 100),
        st.floats(0.1, 50),
        st.floats(0.1, 50),
        st.floats(-200, 200),
    )
    def test_degree_in_unit_interval(self, apex, lw, rw, x):
        mf = TriangularMF("t", apex - lw, apex, apex + rw)
        assert 0.0 <= membership_at(mf, x) <= 1.0

    @given(st.floats(-100, 100), st.floats(0.1, 50), st.floats(0.1, 50))
    def test_apex_is_one(self, apex, lw, rw):
        mf = TriangularMF("t", apex - lw, apex, apex + rw)
        assert membership_at(mf, apex) == 1.0


class TestSubsetOracle:
    @given(subset_instances())
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, instance):
        points, n, target = instance
        got = select_subset(points, n, target)
        want_idx, want_dev = brute_force_subset(points, n, target)
        assert got.deviation == want_dev
        assert got.indices == want_idx

    @given(scaled_subset_instances())
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force_on_the_scaled_lattice(self, instance):
        points, n, target, scale = instance
        got = select_subset(points, n, target, scale)
        weights = [lattice(p, scale) for p in points]
        want_idx, _ = brute_force_subset(weights, n, lattice(target, scale))
        assert got.indices == want_idx
        assert got.deviation == abs(sum(points[i] for i in want_idx) - target)

    @given(subset_instances(), st.integers(2, 12), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_with_a_common_factor(self, instance, factor, data):
        """Weights that share a factor, against goals on and off their lattice."""
        points, n, target = instance
        points = [p * factor for p in points]
        target = target * factor + data.draw(st.integers(0, factor - 1))
        got = select_subset(points, n, target)
        want_idx, want_dev = brute_force_subset(points, n, target)
        assert got.deviation == want_dev
        assert got.indices == want_idx

    @given(subset_instances())
    @settings(max_examples=100, deadline=None)
    def test_cardinality_and_deviation_consistency(self, instance):
        points, n, target = instance
        got = select_subset(points, n, target)
        assert len(got.indices) == n
        assert got.deviation == abs(sum(points[i] for i in got.indices) - target)


class TestCentroidOracle:
    @given(st.floats(0, 300))
    @settings(max_examples=100, deadline=None)
    def test_matches_fine_grid_integration(self, load):
        fast = infer_change(CONTROLLER, load)
        slow = fine_grid_centroid(CONTROLLER, load, samples=200_001)
        assert abs(fast - slow) <= 0.1

    @given(st.floats(0, 300))
    @settings(max_examples=200)
    def test_output_stays_in_universe(self, load):
        lo, hi = CONTROLLER.output.universe
        assert lo <= infer_change(CONTROLLER, load) <= hi


class TestClippedCentroid:
    @given(clipped_terms())
    @settings(max_examples=500, deadline=None)
    def test_matches_exact_arithmetic(self, case):
        """One rule whose antecedent fires at the load itself: the centroid
        of its clipped consequent, or at strength 0 the fallback, against
        the exact oracle, inside the term, and the apex of a symmetric term."""
        mf, strength = case
        controller = FuzzyController(
            LinguisticVariable("Load", (0.0, 1.0), (TriangularMF("on", 0.0, 1.0, 1.0),)),
            LinguisticVariable("Change", (mf.left, mf.right), (mf,)),
            (("on", "T"),),
            integration_resolution=3,
        )
        got = infer_change(controller, strength)
        left, apex, right = (Fraction(v) for v in (mf.left, mf.apex, mf.right))
        want = exact_clipped_centroid(mf.left, mf.apex, mf.right, strength)
        # Relative to the term's size; below the smallest normal float the
        # spacing is fixed, so two roundings may add two of its steps.
        tolerance = Fraction(1e-12) * max(abs(left), abs(right)) + 2 * Fraction(math.ulp(0.0))
        assert abs(Fraction(got) - want) <= tolerance
        assert mf.left <= got <= mf.right
        if right - apex == apex - left:
            assert got == mf.apex


class TestSampledCentroid:
    """The multi-rule centroid equals the sample-by-sample sum on the same grid."""

    @given(multi_rule_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_sampled_grid_on_custom_controllers(self, case):
        controller, load = case
        fast = infer_change(controller, load)
        slow = sampled_grid_centroid(controller, load)
        assert abs(fast - slow) <= 1e-9
        # Within 1e-9 of a .5 tie the rounded value turns on the last bits
        # of the summation order, which the two sums do not share.
        if abs(abs(slow) % 1 - 0.5) > 1e-9:
            assert round_half_away(fast) == round_half_away(slow)

    def test_default_controller_sweep_rounds_identically(self):
        multi_rule = 0
        for k in range(6001):
            load = k / 20
            if len(fired_consequents(CONTROLLER, load)) < 2:
                continue
            multi_rule += 1
            fast = infer_change(CONTROLLER, load)
            slow = sampled_grid_centroid(CONTROLLER, load)
            assert abs(fast - slow) <= 1e-9, load
            assert round_half_away(fast) == round_half_away(slow), load
        assert multi_rule > 2000

    def test_coarse_grid_sweep_rounds_identically(self):
        """The default terms on a coarse, 101-sample grid: the piecewise sum
        still equals the sample-by-sample one."""
        controller = parse_controller(reference_controller_text() + "resolution 101\n")
        multi_rule = 0
        for k in range(12001):
            load = k / 40
            if len(fired_consequents(controller, load)) < 2:
                continue
            multi_rule += 1
            fast = infer_change(controller, load)
            slow = sampled_grid_centroid(controller, load)
            assert abs(fast - slow) <= 1e-9, load
            assert round_half_away(fast) == round_half_away(slow), load
        assert multi_rule > 4000


class TestGridCheck:
    @given(output_grids())
    @settings(max_examples=300, deadline=None)
    def test_refuses_exactly_the_terms_the_grid_misses(self, case):
        """The controller accepts an output variable iff every term has
        membership above 0 at some point of np.linspace over its universe."""
        output, samples = case
        missing = [t for t in output.terms if not grid_holds_term(t, output.universe, samples)]
        load = LinguisticVariable("Load", (0.0, 1.0), (TriangularMF("a", 0.0, 0.0, 1.0),))
        if missing:
            message = f"term {missing[0].label} holds no sample of the {samples}-point grid"
            with pytest.raises(ValueError, match=message):
                FuzzyController(load, output, (("a", "ALL"),), samples)
        else:
            FuzzyController(load, output, (("a", "ALL"),), samples)


class TestControllerFormatProperties:
    @given(multi_rule_cases())
    @settings(max_examples=200, deadline=None)
    def test_write_then_parse_round_trips(self, case):
        controller, _ = case
        out = io.StringIO()
        write_controller(controller, out)
        assert parse_controller(out.getvalue()) == controller


class TestFeederFormatProperties:
    @given(
        st.lists(
            st.lists(
                st.floats(min_value=0, allow_nan=False, allow_infinity=False)
                | st.integers(0, 500),
                max_size=6,
            ),
            min_size=3,
            max_size=3,
        ).filter(any)
    )
    def test_write_then_parse_round_trips(self, phases):
        # The constructor refuses a feeder whose doubled total load overflows.
        try:
            fits = math.isfinite(2 * math.fsum(p for ph in phases for p in ph))
        except OverflowError:
            fits = False
        if not fits:
            with pytest.raises(ValueError, match="total load exceeds"):
                FeederSnapshot(phases)
            return
        snap = FeederSnapshot(phases)
        out = io.StringIO()
        write_feeder_csv(snap, out)
        assert parse_feeder_csv(out.getvalue()) == snap


class TestCorrectionProperties:
    @given(st.tuples(st.integers(-150, 150), st.integers(-150, 150), st.integers(-150, 150)))
    def test_corrected_sums_to_zero(self, raw):
        _, _, corrected = error_correct(raw)
        assert sum(corrected) == 0

    @given(st.tuples(st.integers(-150, 150), st.integers(-150, 150), st.integers(-150, 150)))
    def test_error_vector_reconstructs_raw(self, raw):
        _, err, corrected = error_correct(raw)
        assert tuple(c + e for c, e in zip(corrected, err)) == raw

    @given(st.tuples(st.integers(-150, 150), st.integers(-150, 150), st.integers(-150, 150)))
    def test_error_components_near_mean(self, raw):
        ae, err, _ = error_correct(raw)
        assert err[0] == err[1] == ae
        assert abs(err[2] - ae) <= 2  # remainder absorbs at most the rounding slack


class TestPlannerProperties:
    @given(st.lists(st.integers(1, 20), min_size=1, max_size=30), st.integers(1, 200))
    def test_points_to_move_bounds(self, points, change):
        n = points_to_move(float(change), points)
        assert 1 <= n <= len(points)


class TestPipelineProperties:
    @given(snapshots())
    @settings(max_examples=150, deadline=None)
    def test_balance_conserves_total_load(self, snap):
        report = balance(snap)
        assert system_total(report.final_snapshot) == system_total(snap)
        assert report.status in STATUSES

    @given(snapshots())
    @settings(max_examples=150, deadline=None)
    def test_corrected_suggestions_sum_to_zero(self, snap):
        report = balance(snap)
        for rec in report.iterations:
            assert sum(rec.suggestion_corrected) == 0

    @given(snapshots(), multi_rule_cases(), st.sampled_from([10.0, 2.0]))
    @settings(max_examples=150, deadline=None)
    def test_custom_controllers(self, snap, case, threshold):
        """Conservation, zero-sum corrections and a documented status hold
        for any controller, not only the default one."""
        report = balance(snap, BalancerConfig(threshold, 10, case[0]))
        assert system_total(report.final_snapshot) == system_total(snap)
        for rec in report.iterations:
            assert sum(rec.suggestion_corrected) == 0
        assert report.status in STATUSES

    @given(snapshots())
    @settings(max_examples=100, deadline=None)
    def test_unbalance_never_negative_after_any_iteration(self, snap):
        report = balance(snap)
        assert report.final_unbalance >= 0.0
        for rec in report.iterations:
            assert rec.unbalance_after >= 0.0


class TestSnapshotProperties:
    @given(
        st.lists(
            st.lists(st.floats(min_value=0) | st.sampled_from([1e308, sys.float_info.max]), max_size=6),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_every_accepted_snapshot_ends_in_a_status(self, phases):
        """The constructor owns the value rule: whatever it accepts, however
        large, balance() ends in a documented status."""
        try:
            snap = FeederSnapshot(phases)
        except ValueError:
            return
        report = balance(snap)
        assert report.status in STATUSES
        assert system_total(report.final_snapshot) == system_total(snap)


class TestSuggestionProperties:
    @given(
        st.tuples(st.floats(0, 300), st.floats(0, 300), st.floats(0, 300))
    )
    @settings(max_examples=100, deadline=None)
    def test_components_within_output_universe(self, totals):
        lo, hi = CONTROLLER.output.universe
        out = suggest_changes(CONTROLLER, totals)
        assert all(lo <= v <= hi for v in out)
        assert all(isinstance(v, int) for v in out)


class TestPipelineOracle:
    """balance() and write_report() against the paper's loop written out in full."""

    @staticmethod
    def check(phases, scale, controller, threshold=10.0):
        cfg = BalancerConfig(threshold, 10, controller, scale)
        got = json.loads(write_report(balance(FeederSnapshot(phases), cfg)))
        assert got == reference_balance(phases, controller, threshold, 10, scale)

    @given(oracle_feeders(), st.sampled_from([10.0, 3.0, 0.5]))
    @settings(max_examples=150, deadline=None)
    def test_default_controller(self, feeder, threshold):
        phases, scale = feeder
        self.check(phases, scale, CONTROLLER, threshold)

    @given(oracle_feeders(top=12), multi_rule_cases())
    @settings(max_examples=100, deadline=None)
    def test_custom_controllers(self, feeder, case):
        phases, scale = feeder
        self.check(phases, scale, case[0], threshold=2.0)
