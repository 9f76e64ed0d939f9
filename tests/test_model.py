import math

import pytest

from phasebal.model import (
    FeederSnapshot,
    avg_unbalance,
    phase_totals,
    round_half_away,
    system_total,
)


class TestRounding:
    def test_half_goes_away_from_zero(self):
        assert round_half_away(0.5) == 1
        assert round_half_away(-0.5) == -1
        assert round_half_away(2.5) == 3
        assert round_half_away(-2.5) == -3

    def test_ordinary_cases(self):
        assert round_half_away(1.4) == 1
        assert round_half_away(1.6) == 2
        assert round_half_away(-1.4) == -1
        assert round_half_away(-1.6) == -2
        assert round_half_away(0.0) == 0

    def test_returns_int(self):
        assert isinstance(round_half_away(3.7), int)


class TestFeederSnapshot:
    def test_normalizes_to_float_tuples(self):
        snap = FeederSnapshot.from_lists([[1, 2], [3], [4, 5, 6]])
        assert snap.phases[0] == (1.0, 2.0)
        assert all(isinstance(p, float) for ph in snap.phases for p in ph)

    def test_rejects_wrong_phase_count(self):
        with pytest.raises(ValueError):
            FeederSnapshot(((1.0,), (2.0,)))

    def test_rejects_negative_point(self):
        with pytest.raises(ValueError):
            FeederSnapshot.from_lists([[1, -2], [3], [4]])

    def test_rejects_non_finite_point(self):
        with pytest.raises(ValueError):
            FeederSnapshot.from_lists([[float("nan")], [3], [4]])

    def test_empty_phase_is_allowed(self):
        snap = FeederSnapshot.from_lists([[], [3], [4]])
        assert phase_totals(snap) == (0.0, 3.0, 4.0)


class TestMetrics:
    def test_phase_totals(self):
        snap = FeederSnapshot.from_lists([[1, 2, 3], [10], [0.5, 0.5]])
        assert phase_totals(snap) == (6.0, 10.0, 1.0)

    def test_system_total_matches_sum_of_phase_totals(self):
        snap = FeederSnapshot.from_lists([[1.1, 2.2], [3.3], [4.4]])
        assert system_total(snap) == pytest.approx(11.0)

    def test_avg_unbalance_balanced_is_zero(self):
        assert avg_unbalance((100.0, 100.0, 100.0)) == 0.0

    def test_avg_unbalance_known_value(self):
        # pairwise gaps 125, 38, 163 -> mean 108.666...
        assert avg_unbalance((245.0, 120.0, 82.0)) == pytest.approx(326 / 3)

    def test_avg_unbalance_is_permutation_invariant(self):
        a = avg_unbalance((5.0, 9.0, 30.0))
        b = avg_unbalance((30.0, 5.0, 9.0))
        assert a == b

    def test_unbalance_uses_mean_of_pairwise_gaps(self):
        t = (200.0, 150.0, 100.0)
        expected = (abs(200 - 150) + abs(150 - 100) + abs(100 - 200)) / 3
        assert avg_unbalance(t) == pytest.approx(expected)

    def test_system_total_is_exact_for_integer_loads(self):
        snap = FeederSnapshot.from_lists([[7] * 13, [11] * 5, [3] * 9])
        assert system_total(snap) == 7 * 13 + 11 * 5 + 3 * 9
        assert math.fsum(phase_totals(snap)) == system_total(snap)
