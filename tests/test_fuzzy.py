import math

import pytest

from phasebal.fuzzy import (
    FuzzyController,
    LinguisticVariable,
    TriangularMF,
    UniverseError,
    default_controller,
    infer_change,
    membership_at,
    response_samples,
    suggest_changes,
)


class TestTriangularMF:
    def test_apex_membership_is_one(self):
        mf = TriangularMF("mid", 0, 5, 10)
        assert membership_at(mf, 5) == 1.0

    def test_outside_support_is_zero(self):
        mf = TriangularMF("mid", 0, 5, 10)
        assert membership_at(mf, -1) == 0.0
        assert membership_at(mf, 11) == 0.0

    def test_linear_between_breakpoints(self):
        mf = TriangularMF("mid", 0, 5, 10)
        assert membership_at(mf, 2.5) == pytest.approx(0.5)
        assert membership_at(mf, 7.5) == pytest.approx(0.5)

    def test_support_endpoints_are_zero_for_interior_apex(self):
        mf = TriangularMF("mid", 0, 5, 10)
        assert membership_at(mf, 0) == 0.0
        assert membership_at(mf, 10) == 0.0

    def test_left_shoulder(self):
        mf = TriangularMF("low", 0, 0, 10)
        assert membership_at(mf, 0) == 1.0
        assert membership_at(mf, 5) == pytest.approx(0.5)

    def test_right_shoulder(self):
        mf = TriangularMF("high", 0, 10, 10)
        assert membership_at(mf, 10) == 1.0
        assert membership_at(mf, 5) == 0.5
        assert membership_at(mf, 0) == 0.0

    @pytest.mark.parametrize("vertices", [(0, 5, 10), (0, 0, 10), (0, 10, 10)])
    def test_nan_is_outside_every_term(self, vertices):
        assert membership_at(TriangularMF("t", *vertices), math.nan) == 0.0

    def test_rejects_unordered_breakpoints(self):
        with pytest.raises(ValueError):
            TriangularMF("bad", 5, 3, 10)

    def test_rejects_degenerate_point(self):
        with pytest.raises(ValueError):
            TriangularMF("bad", 4, 4, 4)

    def test_rejects_empty_label(self):
        with pytest.raises(ValueError, match="^membership function needs a non-empty label$"):
            TriangularMF("", 0, 5, 10)


class TestLinguisticVariable:
    def test_term_lookup(self):
        var = LinguisticVariable(
            "x", (0, 10), (TriangularMF("a", 0, 0, 6), TriangularMF("b", 4, 10, 10))
        )
        assert var.term("a").apex == 0

    def test_unknown_term_raises(self):
        var = LinguisticVariable("x", (0, 10), (TriangularMF("a", 0, 0, 10),))
        with pytest.raises(KeyError):
            var.term("zzz")

    def test_coverage_gap_rejected(self):
        with pytest.raises(ValueError):
            LinguisticVariable(
                "x", (0, 10), (TriangularMF("a", 0, 0, 3), TriangularMF("b", 5, 10, 10))
            )

    def test_coverage_gap_at_the_top_rejected(self):
        with pytest.raises(ValueError, match=r"^variable x: coverage gap between 8\.0 and 10\.0$"):
            LinguisticVariable("x", (0.0, 10.0), (TriangularMF("a", 0.0, 0.0, 8.0),))

    def test_no_terms_rejected(self):
        with pytest.raises(ValueError, match="^variable x: needs at least one term$"):
            LinguisticVariable("x", (0.0, 10.0), ())

    def test_term_outside_universe_rejected(self):
        with pytest.raises(ValueError):
            LinguisticVariable("x", (0, 10), (TriangularMF("a", -1, 0, 11),))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            LinguisticVariable(
                "x", (0, 10), (TriangularMF("a", 0, 0, 6), TriangularMF("a", 4, 10, 10))
            )

    @pytest.mark.parametrize("lo, hi", [(0, math.inf), (-math.inf, 10), (-math.inf, math.inf)])
    def test_universe_must_be_finite(self, lo, hi):
        # an infinite edge makes memberships nan and the surface sweep endless
        with pytest.raises(ValueError, match="must be finite"):
            LinguisticVariable("x", (lo, hi), (TriangularMF("a", lo, 5, hi),))


class TestDefaultController:
    def test_eight_terms_and_rules(self, controller):
        assert len(controller.input.terms) == 8
        assert len(controller.output.terms) == 8
        assert len(controller.rules) == 8

    def test_universes(self, controller):
        assert controller.input.universe == (0.0, 300.0)
        assert controller.output.universe == (-150.0, 150.0)

    def test_unknown_rule_term_rejected(self, controller):
        with pytest.raises((ValueError, KeyError)):
            FuzzyController(
                controller.input, controller.output, (("nope", "nothing"),)
            )

    def test_no_rules_rejected(self, controller):
        with pytest.raises(ValueError, match="^controller needs at least one rule$"):
            FuzzyController(controller.input, controller.output, ())

    def test_parsed_once(self):
        assert default_controller() is default_controller()


def output_terms_controller(*terms):
    """One-rule controller whose output grid is the whole numbers 0..999."""
    return FuzzyController(
        LinguisticVariable("x", (0.0, 1.0), (TriangularMF("a", 0.0, 0.0, 1.0),)),
        LinguisticVariable("y", (0.0, 999.0), (TriangularMF("wide", 0.0, 0.0, 999.0), *terms)),
        (("a", "wide"),),
        integration_resolution=1000,
    )


class TestInferChange:
    # Plateau values where exactly one rule fires at full strength: the
    # output collapses to that rule's consequent apex.
    PLATEAUS = [
        (10.0, 125.0),
        (55.0, 90.0),
        (90.0, 60.0),
        (120.0, 25.0),
        (150.0, -12.5),
        (162.0, -12.5),
        (180.0, -40.0),
        (220.0, -75.0),
        (260.0, -117.5),
    ]

    @pytest.mark.parametrize("load,expected", PLATEAUS)
    def test_single_rule_plateaus_exact(self, controller, load, expected):
        assert infer_change(controller, load) == expected

    def test_out_of_universe_raises(self, controller):
        with pytest.raises(UniverseError):
            infer_change(controller, -0.5)
        with pytest.raises(UniverseError):
            infer_change(controller, 300.5)

    def test_endpoint_fallback_uses_nearest_rule(self, controller):
        # no rule fires at the universe endpoints; nearest-peak rule wins
        assert infer_change(controller, 0.0) == 125.0
        assert infer_change(controller, 300.0) == -117.5

    def test_overlap_region_blends_neighbours(self, controller):
        # between two plateaus the output sits between their levels
        v = infer_change(controller, 45.0)
        assert 90.0 < v < 125.0

    def test_output_within_universe_everywhere(self, controller):
        lo, hi = controller.output.universe
        for load in range(0, 301, 7):
            assert lo <= infer_change(controller, float(load)) <= hi


class TestSuggestChanges:
    def test_reference_loads(self, controller):
        assert suggest_changes(controller, (245.0, 120.0, 82.0)) == (-104, 25, 65)

    def test_returns_integers(self, controller):
        out = suggest_changes(controller, (100.0, 150.0, 200.0))
        assert all(isinstance(v, int) for v in out)

    def test_phase_context_in_errors(self, controller):
        with pytest.raises(UniverseError, match="phase 2"):
            suggest_changes(controller, (100.0, 400.0, 100.0))


def one_rule_controller(input_term, output_term):
    """Controller with one input term, one output term and one rule between them."""
    return FuzzyController(
        LinguisticVariable("x", (input_term.left, input_term.right), (input_term,)),
        LinguisticVariable("y", (output_term.left, output_term.right), (output_term,)),
        ((input_term.label, output_term.label),),
    )


class TestAsymmetricConsequent:
    @pytest.mark.parametrize(
        "vertices, strength, expected",
        [
            ((-5.0, 10.0, 10.0), 1.0, 5.0),  # right shoulder
            ((-5.0, 10.0, 10.0), 0.5, 25 / 6),
            ((-5.0, 0.0, 10.0), 1.0, 5 / 3),  # interior apex
            ((-5.0, 0.0, 10.0), 0.5, 35 / 18),
        ],
    )
    def test_clipped_centroid(self, vertices, strength, expected):
        # the load is the strength: membership in 0 1 1 rises from 0 to 1
        ctrl = one_rule_controller(TriangularMF("on", 0.0, 1.0, 1.0), TriangularMF("c", *vertices))
        assert infer_change(ctrl, strength) == pytest.approx(expected, rel=1e-15)

    def test_fallback_is_the_limit_of_a_fading_strength(self):
        # no rule fires at load 0; the result is the midpoint of -5 10 10
        ctrl = one_rule_controller(TriangularMF("on", 0.0, 5.0, 10.0), TriangularMF("c", -5.0, 10.0, 10.0))
        assert infer_change(ctrl, 0.0) == 2.5
        assert abs(infer_change(ctrl, 0.0) - infer_change(ctrl, 1e-12)) <= 1e-9

    def test_terms_that_only_touch_fire_no_rule(self):
        ctrl = FuzzyController(
            LinguisticVariable(
                "x", (0.0, 200.0), (TriangularMF("a", 0.0, 50.0, 100.0), TriangularMF("b", 100.0, 150.0, 200.0))
            ),
            LinguisticVariable(
                "y", (-5.0, 10.0), (TriangularMF("p", -5.0, 10.0, 10.0), TriangularMF("q", -5.0, -5.0, 10.0))
            ),
            (("a", "p"), ("b", "q")),
        )
        # a and b are equally near; the first rule's consequent gives its base midpoint
        assert infer_change(ctrl, 100.0) == 2.5

    def test_closed_form_matches_integration(self):
        from .oracles import fine_grid_centroid

        ctrl = FuzzyController(
            LinguisticVariable("x", (0.0, 10.0), (TriangularMF("on", 0.0, 5.0, 10.0),)),
            LinguisticVariable("y", (-5.0, 10.0), (TriangularMF("skew", -5.0, 0.0, 10.0),)),
            (("on", "skew"),),
        )
        # a single fired rule with a lopsided consequent
        assert infer_change(ctrl, 5.0) == pytest.approx(5 / 3)
        for load in [1.0, 2.5, 4.0, 8.0]:
            exact = infer_change(ctrl, load)
            approx = fine_grid_centroid(ctrl, load, samples=400_001)
            assert abs(exact - approx) < 1e-3


class TestSampledCentroid:
    def test_consequents_between_samples_are_refused(self):
        # Both consequents fall between two grid points; fired together they
        # would leave a sampled aggregate of 0 everywhere, a centroid of 0/0.
        with pytest.raises(ValueError, match="term n1 holds no sample"):
            FuzzyController(
                LinguisticVariable(
                    "x",
                    (0.0, 100.0),
                    (TriangularMF("a", 0.0, 0.0, 100.0), TriangularMF("b", 0.0, 100.0, 100.0)),
                ),
                LinguisticVariable(
                    "y",
                    (-150.0, 150.0),
                    (
                        TriangularMF("wide", -150.0, -150.0, 150.0),
                        TriangularMF("n1", 10.01, 10.02, 10.03),
                        TriangularMF("n2", 20.01, 20.02, 20.03),
                    ),
                ),
                (("a", "n1"), ("b", "n2")),
                integration_resolution=1000,
            )

    @pytest.mark.parametrize(
        "term",
        [
            TriangularMF("inside", 4.9, 5.0, 5.1),  # one sample, strictly inside
            TriangularMF("left", 5.0, 5.0, 5.5),  # shoulder edge on a sample
            TriangularMF("right", 4.5, 5.0, 5.0),
            TriangularMF("top", 998.5, 999.0, 999.0),  # the last sample
        ],
    )
    def test_term_holding_one_sample_is_accepted(self, term):
        output_terms_controller(term)

    @pytest.mark.parametrize(
        "term",
        [
            TriangularMF("between", 5.2, 5.4, 5.6),
            TriangularMF("edges", 5.0, 5.5, 6.0),  # membership 0 on both samples
            TriangularMF("unused", 998.5, 998.7, 998.9),  # refused even if no rule uses it
        ],
    )
    def test_term_holding_no_sample_is_refused(self, term):
        with pytest.raises(ValueError, match=f"term {term.label} holds no sample"):
            output_terms_controller(term)


    def test_clip_point_rounded_onto_the_support_edge(self):
        # O0's apex sits one ulp-scale step below its right edge, so at
        # strength 0.25 its right clip point rounds onto that edge, where
        # membership is 0; its plateau still crosses O1's falling edge at 75.
        from .oracles import sampled_grid_centroid

        ctrl = FuzzyController(
            LinguisticVariable(
                "x",
                (0.0, 100.0),
                (TriangularMF("a", 0.0, 0.0, 100.0), TriangularMF("b", 0.0, 100.0, 100.0)),
            ),
            LinguisticVariable(
                "y",
                (-150.0, 150.0),
                (
                    TriangularMF("O0", -150.0, 149.99999999999994, 150.0),
                    TriangularMF("O1", -150.0, -150.0, 150.0),
                ),
            ),
            (("a", "O0"), ("b", "O1")),
            integration_resolution=1000,
        )
        assert abs(infer_change(ctrl, 75.0) - sampled_grid_centroid(ctrl, 75.0)) <= 1e-9


class TestResponseSamples:
    def test_step_one_has_301_rows(self, controller):
        rows = response_samples(controller, 1.0)
        assert len(rows) == 301
        assert rows[0][0] == 0.0
        assert rows[-1][0] == 300.0

    def test_uneven_step_still_includes_top(self, controller):
        rows = response_samples(controller, 7.0)
        assert rows[-1][0] == 300.0

    @pytest.mark.parametrize("step", [0.0, -1.0, math.nan, math.inf])
    def test_step_must_be_finite_and_positive(self, controller, step):
        with pytest.raises(ValueError, match="finite and positive"):
            response_samples(controller, step)
