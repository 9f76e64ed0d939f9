import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import phasebal
from phasebal.cli import main
from phasebal.fuzzy import reference_controller_text
from phasebal.io import reference_feeder_text, write_feeder_csv
from phasebal.model import FeederSnapshot, format_number


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
            write_feeder_csv(FeederSnapshot(zero_release_feeder_rows), fh)
        code = main(["balance", "--input", str(feeder_path), "--controller", str(ctrl_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "status: infeasible" in captured.out
        assert captured.err == ""

    def test_unwritable_report_exits_1(self, feeder_file, tmp_path, capsys):
        missing_dir = tmp_path / "missing"
        for flag, name in (("--report", "r.json"), ("--emit-moves", "m.csv")):
            code = main(["balance", "--input", feeder_file, flag, str(missing_dir / name)])
            captured = capsys.readouterr()
            assert code == 1
            assert "cannot write report" in captured.err
            assert captured.out == ""

    def test_failed_moves_write_leaves_no_report(self, feeder_file, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        moves_path = tmp_path / "missing" / "m.csv"
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
        captured = capsys.readouterr()
        assert code == 1
        assert "cannot write report" in captured.err
        assert captured.out == ""
        assert not report_path.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("flag", ["--report", "--emit-moves"])
    def test_full_device_exits_1_and_is_not_removed(self, feeder_file, capsys, monkeypatch, flag):
        # os.remove is a recorder: run as root, a real call would delete the device node
        removed = []
        monkeypatch.setattr(os, "remove", removed.append)
        code = main(["balance", "--input", feeder_file, flag, "/dev/full"])
        captured = capsys.readouterr()
        assert code == 1
        assert "phasebal: error: cannot write report: [Errno 28] No space left on device" in captured.err
        assert captured.out == ""
        assert removed == []

    def test_controller_with_an_unsampled_term_exits_1(self, feeder_file, tmp_path, capsys):
        # n1 and n2 lie between two samples of the 1000-point output grid.
        ctrl_path = tmp_path / "ctrl.txt"
        ctrl_path.write_text(
            "input x 0 300\nterm a 0 0 300\nterm b 0 300 300\n"
            "output y -150 150\nterm wide -150 -150 150\n"
            "term n1 10.01 10.02 10.03\nterm n2 20.01 20.02 20.03\n"
            "rule a -> n1\nrule b -> n2\nresolution 1000\n"
        )
        code = main(["balance", "--input", feeder_file, "--controller", str(ctrl_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"controller file {ctrl_path}: " in captured.err
        assert "term n1 holds no sample" in captured.err
        assert "Traceback" not in captured.err

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


INFINITE_INPUT_CONTROLLER = """\
input L 0 inf
term A 0 100 inf
output C -150 150
term X -150 0 150
rule A -> X
"""


class TestInfiniteUniverse:
    @pytest.mark.parametrize("argv", [["surface", "--step", "50"], ["infer", "--load", "150"]])
    def test_controller_is_refused(self, tmp_path, capsys, argv):
        path = tmp_path / "ctrl.txt"
        path.write_text(INFINITE_INPUT_CONTROLLER)
        code = main([*argv, "--controller", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "phasebal: error:" in captured.err and "must be finite" in captured.err
        assert captured.out == ""


# Both bounds are finite, but the width hi - lo overflows to inf.
WIDE_OUTPUT_CONTROLLER = """\
input L 0 300
term A 0 150 300
output C -1.7e308 1.7e308
term X -1.7e308 0 1.7e308
rule A -> X
"""


class TestOverflowingWidth:
    def test_controller_is_refused(self, tmp_path, capsys):
        path = tmp_path / "ctrl.txt"
        path.write_text(WIDE_OUTPUT_CONTROLLER)
        code = main(["infer", "--load", "1", "--controller", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "variable C: universe [-1.7e+308, 1.7e+308]" in captured.err
        assert "with a finite width" in captured.err
        assert captured.out == ""


class TestOverflowingFeeder:
    @pytest.mark.parametrize("command", ["balance", "unbalance"])
    @pytest.mark.parametrize("rows", [1, 2])
    def test_exits_1_with_a_message(self, tmp_path, capsys, command, rows):
        path = tmp_path / "feeder.csv"
        path.write_text("phase1,phase2,phase3\n" + "1e308,1,1\n" * rows)
        code = main([command, "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "phasebal: error:" in captured.err and "total load exceeds" in captured.err
        assert captured.out == ""


class TestLoaderMessages:
    """The feeder and the controller file go through one loader; each
    message names the file's kind, and the format errors its path."""

    @pytest.fixture()
    def argv(self, feeder_file):
        return {
            "feeder": lambda path: ["balance", "--input", path],
            "controller": lambda path: ["balance", "--input", feeder_file, "--controller", path],
        }

    @pytest.mark.parametrize("kind", ["feeder", "controller"])
    def test_missing_file(self, argv, tmp_path, capsys, kind):
        path = str(tmp_path / "missing")
        code = main(argv[kind](path))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            f"phasebal: error: cannot read {kind} file: "
            f"[Errno 2] No such file or directory: {path!r}\n"
        )

    @pytest.mark.parametrize(
        "kind, text, message",
        [
            ("feeder", "a,b\n1,2\n", "line 1: expected header 'phase1,phase2,phase3', got 'a,b'"),
            ("controller", "bogus\n", "line 1: unknown statement 'bogus'"),
            pytest.param(
                "controller",
                reference_controller_text().replace("rule PL -> PA", "rule PL -> nope"),
                "rule PL -> nope: variable Change has no term 'nope'",
                id="controller-unknown-rule-term",
            ),
        ],
    )
    def test_format_error(self, argv, tmp_path, capsys, kind, text, message):
        path = tmp_path / "file.txt"
        path.write_text(text)
        code = main(argv[kind](str(path)))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"phasebal: error: {kind} file {path}: {message}\n"

    @pytest.mark.parametrize("kind", ["feeder", "controller"])
    def test_file_that_is_not_utf8(self, argv, tmp_path, capsys, kind):
        path = tmp_path / "file.txt"
        path.write_bytes(b"phase1,phase2,phase3\n\xff\xfe,1,1\n")
        code = main(argv[kind](str(path)))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(
            f"phasebal: error: {kind} file {path}: 'utf-8' codec can't decode"
        )


class TestControllerResolution:
    @pytest.mark.parametrize("samples", ["1", "0", "-5"])
    def test_fewer_than_two_samples_exit_1(self, feeder_file, tmp_path, capsys, samples):
        path = tmp_path / "ctrl.txt"
        path.write_text(reference_controller_text() + f"resolution {samples}\n")
        code = main(["balance", "--input", feeder_file, "--controller", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"integration resolution must be >= 2, got {samples}" in captured.err

    @pytest.mark.parametrize("samples", [10**22, 10**25, 10**400], ids=["1e22", "1e25", "1e400"])
    def test_samples_closer_than_the_float_spacing_exit_1(self, feeder_file, tmp_path, capsys, samples):
        path = tmp_path / "ctrl.txt"
        path.write_text(reference_controller_text() + f"resolution {samples}\n")
        code = main(["balance", "--input", feeder_file, "--controller", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            f"phasebal: error: controller file {path}: integration resolution {samples} puts "
            "samples closer than the float spacing over [-150.0, 150.0]\n"
        )

    def test_coarse_grid_that_holds_every_term_balances(self, feeder_file, tmp_path, capsys):
        path = tmp_path / "ctrl.txt"
        path.write_text(reference_controller_text() + "resolution 101\n")
        code = main(["balance", "--input", feeder_file, "--controller", str(path)])
        assert code == 0
        assert "status: balanced" in capsys.readouterr().out


SUBNORMAL_STRENGTH_CONTROLLER = """\
input Load 0 2
term on 0 1 2
output Change -1 1
term skew 0 0.1 0.4
term rest -1 -1 1
rule on -> skew
"""


class TestSubnormalStrength:
    """A load of 5e-324 fires the one rule at a subnormal strength."""

    @pytest.fixture()
    def controller_path(self, tmp_path):
        path = tmp_path / "ctrl.txt"
        path.write_text(SUBNORMAL_STRENGTH_CONTROLLER)
        return str(path)

    def test_infer_prints_the_base_midpoint(self, controller_path, capsys):
        code = main(["infer", "--load", "5e-324", "--controller", controller_path])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == "0.20\n"
        assert "Traceback" not in captured.err

    def test_balance_ends_in_a_status(self, controller_path, tmp_path, capsys):
        feeder = tmp_path / "feeder.csv"
        feeder.write_text("phase1,phase2,phase3\n5e-324,1,1\n")
        argv = ["balance", "--input", str(feeder), "--threshold", "0.1", "--controller", controller_path]
        code = main(argv)
        captured = capsys.readouterr()
        assert code in (0, 2)
        assert "status: " in captured.out
        assert "Traceback" not in captured.err


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

    @pytest.mark.parametrize("step", ["nan", "inf"])
    def test_non_finite_step_exits_1(self, capsys, step):
        code = main(["surface", "--step", step])
        captured = capsys.readouterr()
        assert code == 1
        assert "phasebal: error: step must be finite and positive" in captured.err
        assert captured.out == ""

    def test_sweep_of_a_huge_universe_is_refused(self, tmp_path):
        # about 1e300 rows at the default step: without a ceiling it never ends
        path = tmp_path / "ctrl.txt"
        path.write_text("input L 0 1e300\nterm t 0 1 1e300\noutput C -1 1\nterm a -1 0 1\nrule t -> a\n")
        proc = _python(["-m", "phasebal", "surface", "--controller", str(path)], timeout=10)
        assert proc.returncode == 1
        assert "phasebal: error: step 1.0 over [0.0, 1e+300] gives more than 1000000 rows" in proc.stderr
        assert proc.stdout == ""

    def test_unwritable_out_exits_1(self, tmp_path, capsys):
        code = main(["surface", "--out", str(tmp_path / "missing" / "s.csv")])
        captured = capsys.readouterr()
        assert code == 1
        assert "phasebal: error: cannot write surface" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


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


def _python(args, timeout=60):
    """Run a fresh interpreter with this checkout's phasebal on its path."""
    src = str(Path(phasebal.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout
    )


class TestColdStart:
    """Fresh interpreters, as a `phasebal` console call starts one."""

    def test_cli_import_does_not_load_numpy(self):
        proc = _python(["-c", 'import phasebal.cli, sys; print("numpy" in sys.modules)'])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_cli_import_does_not_load_dataclasses(self):
        proc = _python(
            ["-c", 'import phasebal.cli, sys; print(sorted({"dataclasses", "inspect"} & set(sys.modules)))']
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_cli_import_does_not_load_importlib_resources(self):
        # -S, because this interpreter's site may import it before phasebal does
        proc = _python(["-S", "-c", 'import phasebal.cli, sys; print("importlib.resources" in sys.modules)'])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_balance_process_on_reference_feeder(self, feeder_file):
        proc = _python(["-m", "phasebal", "balance", "--input", feeder_file])
        assert proc.returncode == 0, proc.stderr
        assert "final totals: 146 / 150 / 151 kW" in proc.stdout.splitlines()


def _times_a_million(text):
    """Every number in a feeder or controller text, multiplied by 1e6."""
    return re.sub(
        r"(?<![\w.])-?\d+(?:\.\d+)?(?![\w.])",
        lambda m: format_number(float(m.group()) * 1e6),
        text,
    )


# Output terms that ask for changes of up to 1e15 kW from a feeder of a
# few hundred kW: the subset goal lies far above every reachable sum.
HUGE_OUTPUT_CONTROLLER = """\
input Load 0 300
term L 0 0 300
term H 0 300 300
output Change -1e15 1e15
term D -1e15 -1e15 0
term U 0 1e15 1e15
rule L -> U
rule H -> D
"""


@pytest.mark.parametrize(
    "feeder_text, controller_text",
    [
        # Rated in watts: the planner divides the lattice by its gcd, so
        # the bitsets stay as small as for the kW original.
        (_times_a_million(reference_feeder_text()), _times_a_million(reference_controller_text())),
        ("phase1,phase2,phase3\n200,1,1\n50,,\n", HUGE_OUTPUT_CONTROLLER),
    ],
    ids=["scaled-by-1e6", "goal-above-every-sum"],
)
def test_large_numbers_end_in_a_status_within_3_gb(tmp_path, feeder_text, controller_text):
    """No subset-solver bitset grows with the size of the numbers alone:
    the run fits in 3 GB of address space and ends in a status, not a
    MemoryError."""
    resource = pytest.importorskip("resource")
    limit = 3_000_000 * 1024

    def cap_address_space():
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        soft = limit if hard == resource.RLIM_INFINITY else min(limit, hard)
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

    feeder = tmp_path / "feeder.csv"
    feeder.write_text(feeder_text)
    ctrl = tmp_path / "ctrl.txt"
    ctrl.write_text(controller_text)
    src = str(Path(phasebal.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "phasebal", "balance", "--input", str(feeder), "--controller", str(ctrl)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=cap_address_space,
        timeout=120,
    )
    assert proc.returncode in (0, 2), proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.startswith("status: ")
