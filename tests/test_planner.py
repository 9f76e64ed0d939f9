import math

import pytest

from phasebal.balancing import apply_plan
from phasebal.model import FeederSnapshot
from phasebal.planner import (
    BalancePlan,
    ChangeEntry,
    ChangeSuggestion,
    ChangeVector,
    Move,
    determine,
    distribute,
    feasibility_check,
    points_to_move,
    select_subset,
)

from .oracles import brute_force_subset


def snap(*phases):
    return FeederSnapshot(list(phases))


class TestChangeSuggestion:
    def test_corrected_must_sum_to_zero(self):
        with pytest.raises(ValueError):
            ChangeSuggestion((1, 2, 3))

    def test_releasing_and_receiving_partition(self):
        s = ChangeSuggestion((-99, 30, 69))
        assert s.releasing == (0,)
        assert s.receiving == (1, 2)

    def test_two_releasing_one_receiving_is_valid(self):
        s = ChangeSuggestion((-1, -1, 2))
        assert s.releasing == (0, 1)
        assert s.receiving == (2,)


class TestFeasibility:
    def test_reference_case_is_feasible(self, reference_feeder):
        s = ChangeSuggestion((-99, 30, 69))
        assert feasibility_check(reference_feeder, s) is None

    def test_all_zero_is_a_noop(self):
        s = ChangeSuggestion((0, 0, 0))
        reason = feasibility_check(snap([5], [5], [5]), s)
        assert reason is not None and "no-op" in reason

    def test_change_below_smallest_point_is_infeasible(self):
        # phase 1 must shed 3 kW but its smallest point is 5 kW
        s = ChangeSuggestion((-3, 3, 0))
        reason = feasibility_check(snap([5, 7], [2], [2]), s)
        assert reason is not None and "phase 1" in reason

    def test_change_equal_to_smallest_point_is_infeasible(self):
        s = ChangeSuggestion((-5, 5, 0))
        reason = feasibility_check(snap([5, 7], [2], [2]), s)
        assert reason is not None

    def test_zero_change_phase_is_exempt(self):
        s = ChangeSuggestion((-6, 6, 0))
        assert feasibility_check(snap([5, 7], [2], [100]), s) is None

    def test_releasing_phase_with_no_points(self):
        s = ChangeSuggestion((-6, 6, 0))
        reason = feasibility_check(snap([], [2], [2]), s)
        assert reason is not None and "phase 1" in reason

    def test_releasing_phase_with_only_zero_points(self):
        s = ChangeSuggestion((-6, 6, 0))
        reason = feasibility_check(snap([0, 0], [2], [2]), s)
        assert reason is not None and "phase 1" in reason

    def test_receiving_phase_with_only_zero_points_is_feasible(self):
        s = ChangeSuggestion((-6, 6, 0))
        assert feasibility_check(snap([3, 4], [0, 0], [2]), s) is None


class TestPointsToMove:
    def test_reference_sizing(self):
        # 99 kW release over 50 points averaging 4.9 kW -> 20 points
        points = [4.9] * 50
        assert points_to_move(99.0, points) == 20

    def test_clamped_to_at_least_one(self):
        assert points_to_move(1.0, [10.0, 10.0]) == 1

    def test_clamped_to_point_count(self):
        assert points_to_move(500.0, [1.0, 1.0, 1.0]) == 3

    def test_rejects_empty_phase(self):
        with pytest.raises(ValueError):
            points_to_move(5.0, [])

    def test_rejects_non_positive_change(self):
        with pytest.raises(ValueError):
            points_to_move(0.0, [1.0])

    def test_half_rounds_up(self):
        # 3 / 2 = 1.5 -> 2 points
        assert points_to_move(3.0, [2.0, 2.0, 2.0, 2.0]) == 2


class TestSelectSubset:
    def test_exact_hit(self):
        sel = select_subset([5, 3, 2, 8], 2, 10)
        assert sel.deviation == 0.0
        assert sum([5, 3, 2, 8][i] for i in sel.indices) == 10

    def test_cardinality_respected(self):
        sel = select_subset([1, 2, 3, 4, 5], 3, 6)
        assert len(sel.indices) == 3

    def test_lexicographically_smallest_tie_break(self):
        # points 1,1,1,1: every pair sums to 2 -> indices (0, 1)
        sel = select_subset([1, 1, 1, 1], 2, 2)
        assert sel.indices == (0, 1)

    def test_nearest_miss_deviation(self):
        # choose one of [10, 20] closest to 14 -> 10, deviation 4
        sel = select_subset([10, 20], 1, 14)
        assert sel.indices == (0,)
        assert sel.deviation == 4.0

    def test_zero_cardinality(self):
        sel = select_subset([1, 2, 3], 0, 5)
        assert sel.indices == ()
        assert sel.deviation == 5.0

    @pytest.mark.parametrize("n, want", [(0, ()), (1, (2,)), (3, (0, 1, 2))])
    def test_target_far_above_every_sum(self, n, want):
        sel = select_subset([1, 2, 3], n, 1e300)
        assert sel.indices == want
        assert sel.deviation == 1e300

    def test_scale_resolves_fractions(self):
        # with scale 10 the lattice is 0.1 kW, so 1.5 + 2.5 hits 4 exactly
        sel = select_subset([1.5, 2.5, 3.0], 2, 4.0, scale=10)
        assert sel.deviation == 0.0
        assert sel.indices == (0, 1)

    def test_invalid_cardinality(self):
        with pytest.raises(ValueError):
            select_subset([1, 2], 3, 1)

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError):
            select_subset([1, 2], 1, -1)

    def test_common_factor_with_goals_off_its_lattice(self):
        # Every weight is a multiple of 6. Targets 3 and 21 lie halfway
        # between two reachable sums, 23 and 200 off the lattice.
        points = [12, 30, 6, 18, 24, 6, 42]
        for n in range(len(points) + 1):
            for target in (0, 3, 5, 21, 23, 27, 45, 200):
                got = select_subset(points, n, target)
                want_idx, want_dev = brute_force_subset(points, n, target)
                assert (got.indices, got.deviation) == (want_idx, want_dev), (n, target)

    def test_agrees_with_brute_force_on_a_hard_instance(self):
        points = [7, 13, 2, 2, 9, 4, 11, 6, 3, 5]
        got = select_subset(points, 4, 23)
        want_idx, want_dev = brute_force_subset(points, 4, 23)
        assert got.deviation == want_dev
        assert got.indices == want_idx


class TestDetermine:
    def test_reference_release(self, reference_feeder):
        s = ChangeSuggestion((-99, 30, 69))
        vec = determine(reference_feeder, s)
        assert len(vec.entries) == 20
        assert vec.total() == 99.0
        assert vec.deviation == 0.0
        assert all(e.source_phase == 0 for e in vec.entries)

    def test_zero_power_points_never_selected(self):
        s = ChangeSuggestion((-4, 4, 0))
        vec = determine(snap([0, 3, 2, 0], [1], [1]), s)
        assert all(e.power > 0 for e in vec.entries)

    def test_two_releasing_phases(self):
        s = ChangeSuggestion((-4, -3, 7))
        vec = determine(snap([1, 3, 2], [1, 2], [5]), s)
        phases = {e.source_phase for e in vec.entries}
        assert phases == {0, 1}


class TestDistribute:
    def test_single_receiver_takes_everything(self):
        s = ChangeSuggestion((-5, 5, 0))
        vec = ChangeVector((ChangeEntry(0, 1, 3.0), ChangeEntry(0, 2, 2.0)))
        plan = distribute(vec, s)
        assert all(m.dest_phase == 1 for m in plan.moves)
        assert plan.received_per_phase == (0.0, 5.0, 0.0)

    def test_two_receivers_split_by_target(self, reference_feeder):
        s = ChangeSuggestion((-99, 30, 69))
        vec = determine(reference_feeder, s)
        plan = distribute(vec, s)
        assert plan.received_per_phase[1] == 30.0
        assert plan.received_per_phase[2] == 69.0
        assert plan.released_per_phase == (99.0, 0.0, 0.0)

    def test_release_and_receive_always_tally(self):
        # even when the first receiver's subset cannot hit its target
        s = ChangeSuggestion((-7, 3, 4))
        vec = ChangeVector((ChangeEntry(0, 0, 5.0), ChangeEntry(0, 1, 2.0)))
        plan = distribute(vec, s)
        assert sum(plan.released_per_phase) == sum(plan.received_per_phase)

    def test_no_receiver_rejected(self):
        s = ChangeSuggestion((0, 0, 0))
        with pytest.raises(ValueError):
            distribute(ChangeVector(()), s)

    def test_fractional_powers_tally_exactly(self):
        s = ChangeSuggestion((-3, 1, 2))
        vec = ChangeVector(
            (ChangeEntry(0, 0, 1.3), ChangeEntry(0, 1, 0.9), ChangeEntry(0, 2, 0.8))
        )
        plan = distribute(vec, s)
        assert math.fsum(plan.released_per_phase) == math.fsum(
            m.power for m in plan.moves
        )
        assert math.fsum(plan.received_per_phase) == math.fsum(
            m.power for m in plan.moves
        )


class TestPlanInvariants:
    """Plans and change vectors are plain records; apply_plan refuses bad moves."""

    def test_move_to_same_phase_rejected(self):
        plan = BalancePlan((Move(0, 0, 0, 5.0),))
        with pytest.raises(ValueError, match="stays on its phase"):
            apply_plan(snap([5], [1], [1]), plan)

    def test_duplicate_change_entries_rejected(self):
        s = ChangeSuggestion((-4, 4, 0))
        vec = ChangeVector((ChangeEntry(0, 1, 2.0), ChangeEntry(0, 1, 2.0)))
        plan = distribute(vec, s)
        with pytest.raises(ValueError, match="moved twice"):
            apply_plan(snap([1, 2], [1], [1]), plan)
