import math

from hypothesis import given, settings
from hypothesis import strategies as st

from phasebal.balancing import balance, error_correct
from phasebal.fuzzy import (
    TriangularMF,
    default_controller,
    infer_change,
    membership_at,
    suggest_changes,
)
from phasebal.model import FeederSnapshot, avg_unbalance, round_half_away, system_total
from phasebal.planner import points_to_move, select_subset

from .oracles import brute_force_subset, fine_grid_centroid

CONTROLLER = default_controller()


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
def snapshots(draw):
    phases = [
        draw(st.lists(st.integers(0, 9), min_size=1, max_size=8)) for _ in range(3)
    ]
    return FeederSnapshot.from_lists(phases)


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

    @given(snapshots())
    @settings(max_examples=150, deadline=None)
    def test_corrected_suggestions_sum_to_zero(self, snap):
        report = balance(snap)
        for rec in report.iterations:
            assert sum(rec.suggestion_corrected) == 0

    @given(snapshots())
    @settings(max_examples=100, deadline=None)
    def test_unbalance_never_negative_after_any_iteration(self, snap):
        report = balance(snap)
        assert report.final_unbalance >= 0.0
        for rec in report.iterations:
            assert rec.unbalance_after >= 0.0


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
