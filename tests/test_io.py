import io
import json
import re

import pytest

from phasebal.balancing import INFEASIBLE, balance
from phasebal.fuzzy import (
    ControllerFormatError,
    default_controller,
    infer_change,
    parse_controller,
    reference_controller_text,
    write_controller,
)
from phasebal.io import (
    FeederFormatError,
    load_reference_feeder,
    parse_feeder_csv,
    reference_feeder_text,
    write_feeder_csv,
    write_moves_csv,
    write_report,
)
from phasebal.model import FeederSnapshot, avg_unbalance, phase_totals


class TestParseFeederCsv:
    def test_happy_path(self):
        snap = parse_feeder_csv("phase1,phase2,phase3\n5,4,1\n3,2,\n")
        assert snap.phases == ((5.0, 3.0), (4.0, 2.0), (1.0,))

    def test_blank_cells_mean_no_point(self):
        snap = parse_feeder_csv("phase1,phase2,phase3\n5,,\n,,2\n")
        assert snap.phases == ((5.0,), (), (2.0,))

    def test_fractional_values(self):
        snap = parse_feeder_csv("phase1,phase2,phase3\n1.5,2.25,0.75\n")
        assert snap.phases == ((1.5,), (2.25,), (0.75,))

    def test_bad_header(self):
        with pytest.raises(FeederFormatError, match="line 1"):
            parse_feeder_csv("a,b,c\n1,2,3\n")

    def test_wrong_column_count(self):
        with pytest.raises(FeederFormatError, match="line 3"):
            parse_feeder_csv("phase1,phase2,phase3\n1,2,3\n1,2\n")

    def test_non_numeric_value(self):
        with pytest.raises(FeederFormatError, match="phase2"):
            parse_feeder_csv("phase1,phase2,phase3\n1,x,3\n")

    def test_negative_value(self):
        with pytest.raises(FeederFormatError, match="negative"):
            parse_feeder_csv("phase1,phase2,phase3\n1,-2,3\n")

    def test_non_finite_value(self):
        with pytest.raises(FeederFormatError, match="finite"):
            parse_feeder_csv("phase1,phase2,phase3\n1,inf,3\n")

    def test_header_only(self):
        with pytest.raises(FeederFormatError, match="no load points"):
            parse_feeder_csv("phase1,phase2,phase3\n")

    def test_empty_text(self):
        with pytest.raises(FeederFormatError, match="empty"):
            parse_feeder_csv("")

    def test_all_blank_rows(self):
        with pytest.raises(FeederFormatError, match="no load points"):
            parse_feeder_csv("phase1,phase2,phase3\n,,\n")

    @pytest.mark.parametrize("rows", [1, 2])
    def test_total_that_would_overflow(self, rows):
        # one 1e308 row overflows the unbalance, two overflow the phase total
        with pytest.raises(FeederFormatError, match="total load exceeds"):
            parse_feeder_csv("phase1,phase2,phase3\n" + "1e308,1,1\n" * rows)

    def test_largest_total_is_accepted(self):
        # 7.5e307 kW in all; twice that is still below the largest float
        snap = parse_feeder_csv("phase1,phase2,phase3\n2.5e307,2.5e307,\n2.5e307,,\n")
        assert avg_unbalance(phase_totals(snap)) == pytest.approx(2 * 5e307 / 3)


class TestFeederRoundTrip:
    def test_reference_file_round_trips(self):
        text = reference_feeder_text()
        snap = parse_feeder_csv(text)
        out = io.StringIO()
        write_feeder_csv(snap, out)
        assert parse_feeder_csv(out.getvalue()) == snap
        assert out.getvalue() == text

    def test_ragged_phases_pad_with_blanks(self):
        snap = FeederSnapshot([[1, 2, 3], [4], []])
        out = io.StringIO()
        write_feeder_csv(snap, out)
        lines = out.getvalue().splitlines()
        assert lines[1] == "1,4,"
        assert lines[2] == "2,,"
        assert parse_feeder_csv(out.getvalue()) == snap

    def test_reference_totals(self):
        assert phase_totals(load_reference_feeder()) == (245.0, 120.0, 82.0)


class TestControllerFormat:
    def test_round_trip(self):
        out = io.StringIO()
        write_controller(default_controller(), out)
        assert parse_controller(out.getvalue()) == default_controller()

    def test_comments_and_blank_lines_ignored(self):
        text = (
            "# a controller\n\n"
            "input load 0 10\n"
            "term low 0 0 10   # left shoulder\n"
            "term high 0 10 10\n"
            "output change -5 5\n"
            "term down -5 -5 5\n"
            "term up -5 5 5\n"
            "rule low -> up\n"
            "rule high -> down\n"
        )
        ctrl = parse_controller(text)
        assert len(ctrl.rules) == 2
        assert ctrl.input.universe == (0.0, 10.0)

    def test_resolution_directive(self):
        text = (
            "input load 0 10\nterm low 0 0 10\nterm high 0 10 10\n"
            "output change -5 5\nterm down -5 -5 5\nterm up -5 5 5\n"
            "rule low -> up\nresolution 2001\n"
        )
        assert parse_controller(text).integration_resolution == 2001

    @pytest.mark.parametrize("samples", [5, 3, 2])
    def test_grid_too_coarse_for_the_default_terms_is_refused(self, samples):
        with pytest.raises(ControllerFormatError, match=f"term HS holds no sample of the {samples}-point grid"):
            parse_controller(reference_controller_text() + f"resolution {samples}\n")

    def test_unknown_statement(self):
        with pytest.raises(ControllerFormatError, match="line 1"):
            parse_controller("frobnicate 1 2 3\n")

    def test_rule_syntax_error(self):
        text = "input load 0 10\nterm low 0 0 10\nterm high 0 10 10\noutput change -5 5\nterm d -5 -5 5\nterm u -5 5 5\nrule low up\n"
        with pytest.raises(ControllerFormatError, match="line 7"):
            parse_controller(text)

    def test_term_before_variable(self):
        with pytest.raises(ControllerFormatError, match="before any"):
            parse_controller("term low 0 0 10\n")

    def test_missing_output(self):
        with pytest.raises(ControllerFormatError, match="output"):
            parse_controller("input load 0 10\nterm low 0 0 10\nrule low -> low\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("input load 0 10\ninput load 0 20\n", "line 2: duplicate input declaration"),
            (
                "output change -5 5\ninput load 0 10\noutput change -5 5\n",
                "line 3: duplicate output declaration",
            ),
            # the bounds are read before the duplicate check
            ("input load 0 10\ninput load x 10\n", "line 2: 'x' is not a number"),
            ("resolution 10 01\n", "line 1: resolution takes one integer"),
            ("output change -5 5\nterm d -5 -5 5\nrule low -> d\n", "missing input declaration"),
            # input is checked before output, and both before the rules
            ("", "missing input declaration"),
            ("input load 0 10\nterm low 0 0 10\n", "missing output declaration"),
            ("input load 0 10\noutput change -5 5\n", "controller defines no rules"),
        ],
    )
    def test_declaration_errors(self, text, message):
        with pytest.raises(ControllerFormatError, match=f"^{re.escape(message)}$"):
            parse_controller(text)

    def test_unknown_rule_term_wrapped(self):
        text = (
            "input load 0 10\nterm low 0 0 10\nterm high 0 10 10\n"
            "output change -5 5\nterm d -5 -5 5\nterm u -5 5 5\n"
            "rule nothing -> u\n"
        )
        with pytest.raises(ControllerFormatError):
            parse_controller(text)

    def test_custom_controller_drives_inference(self):
        text = (
            "input load 0 10\nterm low 0 0 10\nterm high 0 10 10\n"
            "output change -5 5\nterm down -5 -5 5\nterm up -5 5 5\n"
            "rule low -> up\nrule high -> down\n"
        )
        ctrl = parse_controller(text)
        assert infer_change(ctrl, 5.0) == pytest.approx(0.0, abs=1e-6)


class TestReport:
    def test_key_order_and_values(self, reference_feeder):
        report = balance(reference_feeder)
        doc = json.loads(write_report(report))
        assert list(doc) == [
            "status",
            "initial_totals",
            "initial_unbalance",
            "iterations",
            "final_totals",
            "final_unbalance",
        ]
        assert doc["status"] == "balanced"
        assert doc["initial_totals"] == [245, 120, 82]
        assert doc["initial_unbalance"] == 108.67
        assert doc["final_totals"] == [146, 150, 151]
        assert doc["final_unbalance"] == 3.33
        it = doc["iterations"][0]
        assert list(it) == [
            "totals_before",
            "fuzzy_raw",
            "avg_error",
            "error_vector",
            "fuzzy_corrected",
            "moves",
            "totals_after",
            "unbalance_after",
        ]
        assert it["fuzzy_raw"] == [-104, 25, 65]
        assert it["fuzzy_corrected"] == [-99, 30, 69]

    def test_moves_use_one_based_positions(self, reference_feeder):
        report = balance(reference_feeder)
        doc = json.loads(write_report(report))
        moves = doc["iterations"][0]["moves"]
        assert len(moves) == 20
        assert all(mv["from"] == 1 for mv in moves)
        assert all(mv["to"] in (2, 3) for mv in moves)
        assert all(mv["index"] >= 1 for mv in moves)
        received = {2: 0, 3: 0}
        for mv in moves:
            received[mv["to"]] += mv["kw"]
        assert received == {2: 30, 3: 69}

    def test_infeasible_report_carries_reason(self):
        feeder = FeederSnapshot(
            [[50, 50, 50, 50, 45], [60, 60], [42, 40]]
        )
        report = balance(feeder)
        doc = json.loads(write_report(report))
        assert doc["status"] == "infeasible"
        assert "phase 2" in doc["reason"]
        assert "infeasibility" in doc["iterations"][0]

    def test_replaying_moves_reproduces_final_totals(self, reference_feeder):
        report = balance(reference_feeder)
        doc = json.loads(write_report(report))
        phases = [list(p) for p in reference_feeder.phases]
        for it in doc["iterations"]:
            removals = []
            for mv in it["moves"]:
                src, idx, dst = mv["from"] - 1, mv["index"] - 1, mv["to"] - 1
                assert phases[src][idx] == mv["kw"]
                phases[dst].append(mv["kw"])
                removals.append((src, idx))
            for src, idx in sorted(removals, reverse=True):
                del phases[src][idx]
        totals = [sum(p) for p in phases]
        assert totals == doc["final_totals"]


class TestMovesCsv:
    def test_flat_move_listing(self, reference_feeder):
        report = balance(reference_feeder)
        out = io.StringIO()
        write_moves_csv(report, out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "iteration,from,index,to,kw"
        assert len(lines) == 21
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "1"

    def test_index_counts_the_phase_points_not_the_csv_rows(self):
        # The 80 kW point lies on data row 3, but it is phase 2's second
        # point: the blank cell above it is skipped.
        report = balance(parse_feeder_csv("phase1,phase2,phase3\n5,,5\n5,90,5\n,80,\n,70,\n"))
        out = io.StringIO()
        write_moves_csv(report, out)
        assert out.getvalue() == "iteration,from,index,to,kw\n1,2,2,3,80\n1,2,3,1,70\n"
        moves = json.loads(write_report(report))["iterations"][0]["moves"]
        assert moves[0] == {"from": 2, "index": 2, "to": 3, "kw": 80}

    def test_infeasible_pass_lists_no_moves(self):
        report = balance(parse_feeder_csv("phase1,phase2,phase3\n90,,5\n80,40,5\n70,,\n"))
        assert report.status == INFEASIBLE
        assert len(report.iterations) == 2
        out = io.StringIO()
        write_moves_csv(report, out)
        assert out.getvalue() == "iteration,from,index,to,kw\n1,1,2,3,80\n1,1,3,2,70\n"
