import json

import pytest

from phasebal.cli import main
from phasebal.io import reference_controller_text, reference_feeder_text, write_feeder_csv
from phasebal.model import FeederSnapshot


@pytest.fixture()
def feeder_file(tmp_path):
    path = tmp_path / "feeder.csv"
    path.write_text(reference_feeder_text())
    return str(path)


class TestBalanceCommand:
    def test_balances_reference_feeder(self, feeder_file, capsys):
        code = main(["balance", "--input", feeder_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "status: balanced" in out
        assert "iterations: 1" in out
        assert "unbalance: 108.67 -> 3.33 kW" in out
        assert "final totals: 146 / 150 / 151 kW" in out

    def test_writes_report_and_moves(self, feeder_file, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        moves_path = tmp_path / "moves.csv"
        code = main(
            [
                "balance",
                "--input",
                feeder_file,
                "--report",
                str(report_path),
                "--emit-moves",
                str(moves_path),
            ]
        )
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert doc["final_totals"] == [146, 150, 151]
        lines = moves_path.read_text().splitlines()
        assert lines[0] == "iteration,from,index,to,kw"
        assert len(lines) == 21

    def test_unconvergent_run_exits_2(self, tmp_path, capsys):
        path = tmp_path / "feeder.csv"
        path.write_text("phase1,phase2,phase3\n50,60,42\n50,60,40\n50,,\n50,,\n45,,\n")
        code = main(["balance", "--input", str(path)])
        out = capsys.readouterr().out
        assert code == 2
        assert "status: infeasible" in out

    def test_over_capacity_exits_2(self, tmp_path, capsys):
        path = tmp_path / "feeder.csv"
        path.write_text("phase1,phase2,phase3\n200,10,5\n150,,\n")
        code = main(["balance", "--input", str(path)])
        out = capsys.readouterr().out
        assert code == 2
        assert "status: over-capacity" in out

    def test_missing_file_exits_1(self, capsys):
        code = main(["balance", "--input", "/nonexistent/feeder.csv"])
        err = capsys.readouterr().err
        assert code == 1
        assert "error" in err

    def test_malformed_csv_exits_1(self, tmp_path, capsys):
        path = tmp_path / "feeder.csv"
        path.write_text("a,b\n1,2\n")
        code = main(["balance", "--input", str(path)])
        assert code == 1

    def test_bad_threshold_exits_1(self, feeder_file, capsys):
        code = main(["balance", "--input", feeder_file, "--threshold", "0"])
        assert code == 1

    def test_zero_load_releasing_phase_exits_2(
        self, tmp_path, capsys, zero_release_controller_text, zero_release_feeder_rows
    ):
        ctrl_path = tmp_path / "ctrl.txt"
        ctrl_path.write_text(zero_release_controller_text)
        feeder_path = tmp_path / "feeder.csv"
        with open(feeder_path, "w", encoding="utf-8") as fh:
            write_feeder_csv(FeederSnapshot.from_lists(zero_release_feeder_rows), fh)
        code = main(["balance", "--input", str(feeder_path), "--controller", str(ctrl_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "status: infeasible" in captured.out
        assert captured.err == ""

    def test_unwritable_report_exits_1(self, feeder_file, tmp_path, capsys):
        missing_dir = tmp_path / "missing"
        for flag, name in (("--report", "r.json"), ("--emit-moves", "m.csv")):
            code = main(["balance", "--input", feeder_file, flag, str(missing_dir / name)])
            err = capsys.readouterr().err
            assert code == 1
            assert "cannot write report" in err

    def test_custom_controller_file(self, feeder_file, tmp_path, capsys):
        ctrl_path = tmp_path / "ctrl.txt"
        ctrl_path.write_text(reference_controller_text())
        code = main(["balance", "--input", feeder_file, "--controller", str(ctrl_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "status: balanced" in out


class TestInferCommand:
    def test_prints_change(self, capsys):
        code = main(["infer", "--load", "120"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "25.00"

    def test_out_of_range_load_exits_1(self, capsys):
        code = main(["infer", "--load", "400"])
        err = capsys.readouterr().err
        assert code == 1
        assert "universe" in err or "range" in err or "outside" in err


class TestUnbalanceCommand:
    def test_prints_metric(self, feeder_file, capsys):
        code = main(["unbalance", "--input", feeder_file])
        assert code == 0
        assert capsys.readouterr().out.strip() == "108.67"

    def test_balanced_feeder_prints_zero(self, tmp_path, capsys):
        path = tmp_path / "feeder.csv"
        path.write_text("phase1,phase2,phase3\n5,5,5\n")
        code = main(["unbalance", "--input", str(path)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "0.00"


class TestSurfaceCommand:
    def test_stdout_table(self, capsys):
        code = main(["surface"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "load,change"
        assert len(lines) == 302
        assert lines[1].startswith("0,")

    def test_writes_file(self, tmp_path):
        out_path = tmp_path / "surface.csv"
        code = main(["surface", "--step", "10", "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "load,change"
        assert len(lines) == 32  # 0..300 by 10

    def test_bad_step_exits_1(self, capsys):
        code = main(["surface", "--step", "0"])
        assert code == 1


class TestUsageErrors:
    def test_missing_required_argument(self, capsys):
        code = main(["balance"])
        assert code == 1

    def test_unknown_subcommand(self, capsys):
        code = main(["frobnicate"])
        assert code == 1

    def test_no_arguments(self, capsys):
        code = main([])
        assert code == 1
