import math

import pytest

from phasebal.balancing import (
    ALREADY_BALANCED,
    BALANCED,
    INFEASIBLE,
    ITERATION_CAP,
    OVER_CAPACITY,
    BalancerConfig,
    apply_plan,
    balance,
    error_correct,
)
from phasebal.io import parse_controller
from phasebal.model import FeederSnapshot, avg_unbalance, phase_totals, system_total
from phasebal.planner import BalancePlan, Move


def snap(*phases):
    return FeederSnapshot.from_lists(list(phases))


class TestErrorCorrect:
    def test_reference_case(self):
        ae, err, corrected = error_correct((-104, 25, 65))
        assert ae == -5
        assert err == (-5, -5, -4)
        assert corrected == (-99, 30, 69)

    def test_historical_fixtures_bit_exact(self, correction_fixtures):
        for _loads, raw, want_err, want_corrected in correction_fixtures:
            ae, err, corrected = error_correct(raw)
            assert err == want_err, raw
            assert corrected == want_corrected, raw
            assert err[0] == ae and err[1] == ae

    def test_corrected_always_sums_to_zero(self):
        for raw in [(-104, 25, 65), (1, 1, 1), (-7, -8, -9), (0, 0, 1), (3, -5, 11)]:
            _, _, corrected = error_correct(raw)
            assert sum(corrected) == 0

    def test_third_component_absorbs_remainder(self):
        ae, err, _ = error_correct((1, 1, 2))  # sum 4, ae = 1, remainder 2
        assert err == (1, 1, 2)
        assert ae == 1


class TestApplyPlan:
    def test_moves_point_and_preserves_order(self):
        before = snap([1, 2, 3], [], [9])
        plan = BalancePlan(
            (Move(0, 1, 1, 2.0),), (2.0, 0.0, 0.0), (0.0, 2.0, 0.0)
        )
        after = apply_plan(before, plan)
        assert after.phases[0] == (1.0, 3.0)
        assert after.phases[1] == (2.0,)
        assert after.phases[2] == (9.0,)

    def test_conserves_system_total(self):
        before = snap([5, 4, 3], [2], [1])
        plan = BalancePlan(
            (Move(0, 0, 2, 5.0), Move(0, 2, 1, 3.0)),
            (8.0, 0.0, 0.0),
            (0.0, 3.0, 5.0),
        )
        after = apply_plan(before, plan)
        assert system_total(after) == system_total(before)

    def test_rejects_stale_power_value(self):
        before = snap([5], [1], [1])
        plan = BalancePlan((Move(0, 0, 1, 4.0),), (4.0, 0.0, 0.0), (0.0, 4.0, 0.0))
        with pytest.raises(ValueError):
            apply_plan(before, plan)

    def test_rejects_out_of_range_index(self):
        before = snap([5], [1], [1])
        plan = BalancePlan((Move(0, 3, 1, 5.0),), (5.0, 0.0, 0.0), (0.0, 5.0, 0.0))
        with pytest.raises(ValueError):
            apply_plan(before, plan)

    def test_rejects_double_move_of_same_point(self):
        before = snap([5], [1], [1])
        plan = BalancePlan(
            (Move(0, 0, 1, 5.0), Move(0, 0, 2, 5.0)),
            (10.0, 0.0, 0.0),
            (0.0, 5.0, 5.0),
        )
        with pytest.raises(ValueError):
            apply_plan(before, plan)


class TestBalancerConfig:
    def test_defaults(self):
        cfg = BalancerConfig()
        assert cfg.unbalance_threshold == 10.0
        assert cfg.max_iterations == 10

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            BalancerConfig(unbalance_threshold=0.0)

    def test_rejects_bad_iteration_cap(self):
        with pytest.raises(ValueError):
            BalancerConfig(max_iterations=0)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            BalancerConfig(integer_scale=0)


class TestBalance:
    def test_reference_feeder_one_iteration(self, reference_feeder):
        report = balance(reference_feeder)
        assert report.status == BALANCED
        assert len(report.iterations) == 1
        assert report.final_totals == (146.0, 150.0, 151.0)
        assert report.initial_unbalance == pytest.approx(326 / 3)
        assert report.final_unbalance == pytest.approx(10 / 3)
        rec = report.iterations[0]
        assert rec.suggestion_raw == (-104, 25, 65)
        assert rec.average_error == -5
        assert rec.error_vector == (-5, -5, -4)
        assert rec.suggestion_corrected == (-99, 30, 69)
        assert rec.plan is not None and len(rec.plan.moves) == 20

    def test_already_balanced_runs_no_iterations(self):
        report = balance(snap([100], [99], [101]))
        assert report.status == ALREADY_BALANCED
        assert report.iterations == ()
        assert report.final_totals == report.initial_totals

    def test_iteration_cap(self):
        feeder = snap([50, 50, 50, 50, 45], [60, 30, 20, 10], [42, 40])
        report = balance(feeder, BalancerConfig(max_iterations=1))
        assert report.status == ITERATION_CAP
        assert len(report.iterations) == 1
        assert report.final_unbalance >= 10.0

    def test_infeasible_when_receiver_minimum_too_large(self):
        # corrected change sends 30 kW to phase 2 whose smallest point is 60
        feeder = snap([50, 50, 50, 50, 45], [60, 60], [42, 40])
        report = balance(feeder)
        assert report.status == INFEASIBLE
        assert len(report.iterations) == 1
        rec = report.iterations[0]
        assert rec.plan is None
        assert rec.infeasibility is not None and "phase 2" in rec.infeasibility
        assert rec.totals_after == rec.totals_before

    def test_over_capacity_stops_before_inference(self):
        report = balance(snap([200, 150], [10], [5]))
        assert report.status == OVER_CAPACITY
        assert report.iterations == ()

    def test_conservation_on_reference_feeder(self, reference_feeder):
        report = balance(reference_feeder)
        assert system_total(report.final_snapshot) == system_total(reference_feeder)
        assert math.fsum(report.final_totals) == math.fsum(report.initial_totals)

    def test_custom_threshold_tightens_stop(self, reference_feeder):
        report = balance(reference_feeder, BalancerConfig(unbalance_threshold=2.0))
        # 3.33 kW no longer passes; the run needs more work or gives up
        assert report.status != ALREADY_BALANCED
        if report.status == BALANCED:
            assert report.final_unbalance < 2.0

    def test_report_totals_match_snapshot(self, reference_feeder):
        report = balance(reference_feeder)
        assert report.final_totals == phase_totals(report.final_snapshot)

    def test_zero_load_releasing_phase_is_infeasible(
        self, zero_release_controller_text, zero_release_feeder_rows
    ):
        # the controller asks the all-zero phase 1 to release load
        controller = parse_controller(zero_release_controller_text)
        feeder = snap(*zero_release_feeder_rows)
        report = balance(feeder, BalancerConfig(controller=controller))
        assert report.status == INFEASIBLE
        assert len(report.iterations) == 1
        rec = report.iterations[0]
        assert rec.suggestion_corrected[0] < 0
        assert rec.plan is None
        assert rec.infeasibility is not None and "phase 1" in rec.infeasibility
        assert report.final_snapshot == feeder

    def test_large_phase_at_fine_scale_needs_no_solver_cap(self):
        # 250 points summing to 280 kW at scale 100, about 145 of them to
        # choose: a dense points x cardinality x sum table would need 1e9 cells
        heavy = [1 + (i % 25) / 100 for i in range(250)]
        feeder = snap(heavy, [0.5] * 40, [0.5] * 40)
        report = balance(feeder, BalancerConfig(integer_scale=100))
        assert report.status == BALANCED
        assert report.final_unbalance < 10.0
        assert report.final_unbalance == avg_unbalance(phase_totals(report.final_snapshot))
        assert system_total(report.final_snapshot) == system_total(feeder)

    def test_fractional_loads_with_finer_scale(self):
        feeder = snap([24.5] * 10, [12.0] * 10, [8.2] * 10)
        report = balance(feeder, BalancerConfig(integer_scale=10))
        assert report.status == BALANCED
        assert system_total(report.final_snapshot) == system_total(feeder)
