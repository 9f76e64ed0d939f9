import copy
import math
import pickle
import sys

import pytest

from phasebal.balancing import BalancerConfig, balance
from phasebal.fuzzy import (
    LinguisticVariable,
    TriangularMF,
    parse_controller,
    reference_controller_text,
)
from phasebal.io import load_reference_feeder
from phasebal.model import (
    FeederSnapshot,
    Frozen,
    avg_unbalance,
    phase_totals,
    round_half_away,
    system_total,
)
from phasebal.planner import BalancePlan, ChangeEntry, ChangeSuggestion, ChangeVector, Move


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
        snap = FeederSnapshot([[1, 2], [3], [4, 5, 6]])
        assert snap.phases[0] == (1.0, 2.0)
        assert all(isinstance(p, float) for ph in snap.phases for p in ph)

    def test_rejects_wrong_phase_count(self):
        with pytest.raises(ValueError):
            FeederSnapshot(((1.0,), (2.0,)))

    def test_rejects_negative_point(self):
        with pytest.raises(ValueError):
            FeederSnapshot([[1, -2], [3], [4]])

    def test_rejects_non_finite_point(self):
        with pytest.raises(ValueError):
            FeederSnapshot([[float("nan")], [3], [4]])

    def test_empty_phase_is_allowed(self):
        snap = FeederSnapshot([[], [3], [4]])
        assert phase_totals(snap) == (0.0, 3.0, 4.0)

    @pytest.mark.parametrize("phases", [[[1e308], [1e308], []], [[1e308, 1e308], [], []], [[9e307], [], []]])
    def test_rejects_a_total_whose_double_overflows(self, phases):
        # Any phase total and any unbalance stays finite when twice the
        # system total does; 9e307 * 2 is already past the largest float.
        with pytest.raises(ValueError, match="total load exceeds"):
            FeederSnapshot(phases)

    def test_accepts_the_largest_total_that_doubles_finitely(self):
        half = sys.float_info.max / 2
        snap = FeederSnapshot([[half / 2], [half / 2], []])
        assert avg_unbalance(phase_totals(snap)) == half / 3


class TestMetrics:
    def test_phase_totals(self):
        snap = FeederSnapshot([[1, 2, 3], [10], [0.5, 0.5]])
        assert phase_totals(snap) == (6.0, 10.0, 1.0)

    def test_system_total_matches_sum_of_phase_totals(self):
        snap = FeederSnapshot([[1.1, 2.2], [3.3], [4.4]])
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
        snap = FeederSnapshot([[7] * 13, [11] * 5, [3] * 9])
        assert system_total(snap) == 7 * 13 + 11 * 5 + 3 * 9
        assert math.fsum(phase_totals(snap)) == system_total(snap)


def test_only_types_built_from_outside_input_validate():
    """Controller file, feeder CSV, CLI arguments and a caller's suggestion;
    the planner's own records are NamedTuples that apply_plan checks."""
    assert {c.__name__ for c in Frozen.__subclasses__()} == {
        "TriangularMF",
        "LinguisticVariable",
        "FuzzyController",
        "FeederSnapshot",
        "BalancerConfig",
        "ChangeSuggestion",
    }
    for record in (ChangeEntry, ChangeVector, Move, BalancePlan):
        assert issubclass(record, tuple) and hasattr(record, "_fields")


def _other_feeder_report():
    return balance(FeederSnapshot([[100, 60, 40], [30], [20]]))


# Per public value type: a factory, a factory for an unequal value, and a field.
VALUE_TYPES = {
    "TriangularMF": (
        lambda: TriangularMF("a", 0.0, 1.0, 2.0),
        lambda: TriangularMF("a", 0.0, 1.5, 2.0),
        "apex",
    ),
    "LinguisticVariable": (
        lambda: LinguisticVariable("x", (0.0, 2.0), (TriangularMF("a", 0.0, 1.0, 2.0),)),
        lambda: LinguisticVariable("y", (0.0, 2.0), (TriangularMF("a", 0.0, 1.0, 2.0),)),
        "terms",
    ),
    "FuzzyController": (
        lambda: parse_controller(reference_controller_text()),
        lambda: parse_controller(reference_controller_text() + "resolution 2001\n"),
        "rules",
    ),
    "FeederSnapshot": (
        lambda: FeederSnapshot([[1, 2], [3], []]),
        lambda: FeederSnapshot([[1, 2], [3], [4]]),
        "phases",
    ),
    "ChangeSuggestion": (
        lambda: ChangeSuggestion((-3, 1, 2)),
        lambda: ChangeSuggestion((-3, 2, 1)),
        "delta",
    ),
    "ChangeEntry": (lambda: ChangeEntry(0, 1, 2.5), lambda: ChangeEntry(0, 2, 2.5), "power"),
    "ChangeVector": (
        lambda: ChangeVector((ChangeEntry(0, 1, 2.5),), 0.5),
        lambda: ChangeVector((ChangeEntry(0, 1, 2.5),), 0.0),
        "deviation",
    ),
    "Move": (lambda: Move(0, 1, 2, 2.5), lambda: Move(0, 1, 1, 2.5), "dest_phase"),
    "BalancePlan": (
        lambda: BalancePlan((Move(0, 1, 2, 2.5),)),
        lambda: BalancePlan((Move(0, 1, 1, 2.5),)),
        "moves",
    ),
    "IterationRecord": (
        lambda: balance(load_reference_feeder()).iterations[0],
        lambda: _other_feeder_report().iterations[0],
        "plan",
    ),
    "BalanceReport": (
        lambda: balance(load_reference_feeder()),
        lambda: balance(load_reference_feeder(), BalancerConfig(unbalance_threshold=200.0)),
        "status",
    ),
    "BalancerConfig": (
        lambda: BalancerConfig(integer_scale=10),
        lambda: BalancerConfig(integer_scale=100),
        "controller",
    ),
}


@pytest.mark.parametrize("name", sorted(VALUE_TYPES))
class TestValueTypes:
    """Every public value type compares and hashes by value, is immutable,
    and survives deepcopy and pickle."""

    def test_equality_and_hash(self, name):
        make, other, _ = VALUE_TYPES[name]
        a, b = make(), make()
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)
        assert a != other()

    def test_fields_cannot_be_assigned(self, name):
        make, _, field = VALUE_TYPES[name]
        value = make()
        with pytest.raises(AttributeError):
            setattr(value, field, None)

    def test_deepcopy_and_pickle_round_trip(self, name):
        make, _, _ = VALUE_TYPES[name]
        value = make()
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value
