"""Malformed and edge-case input through the command line, in process.

Every feeder and controller text either ends in a documented exit code
or is refused with a message; no exception escapes cli.main. Feeder
texts run under the default controller and controller texts on the
bundled reference feeder: huge points under a controller with a huge
input universe would exhaust memory in the subset solver, whose lattice
sum nothing bounds yet.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasebal.cli import main
from phasebal.io import reference_feeder_text

# Numbers as text: ordinary values, edges, and values the parsers must refuse.
WEIRD = st.sampled_from(
    ["-0", "1e-300", "-1", "nan", "inf", "-inf", "x", "1,5", "0x10", " 7 "]
)
# Finite values whose totals, or whose differences of totals, overflow.
HUGE = st.sampled_from(["1e308", "1.7e308", "9e307"]) | st.floats(1e300, 1.79e308).map(repr)
VALID = st.integers(0, 40).map(str) | st.sampled_from(["", "0", "2.5", "0.01"])
NUMBER = VALID | WEIRD | st.integers(-300, 400).map(str) | st.floats(-1, 400, allow_nan=False).map(repr)

LABEL = st.sampled_from(["A", "B", "C", "a", "", "->"])


def damaged(draw, lines: list[str], alphabet: str) -> list[str]:
    """Insert a line of random text, some of the time."""
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text(alphabet, max_size=12)))
    return lines


@st.composite
def feeder_texts(draw):
    """Mostly well-formed feeders with a few cells, the header or a line gone wrong."""
    header = draw(st.sampled_from(["phase1,phase2,phase3"] * 3 + ["PHASE1, phase2 ,phase3", "phase1,phase2", ""]))
    rows = draw(st.lists(st.lists(VALID, min_size=3, max_size=3), max_size=8))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, 2))] = draw(HUGE | WEIRD | NUMBER)
    if rows and draw(st.integers(0, 4)) == 0:
        draw(st.sampled_from(rows)).append(draw(VALID))
    return "\n".join(damaged(draw, [header] + [",".join(r) for r in rows], "ab,\"\n 1.e")) + "\n"


@st.composite
def controller_texts(draw):
    """A controller skeleton whose numbers, labels and lines may all go wrong."""
    lines = []
    for kind in ("input", "output"):
        lines.append(f"{kind} {draw(LABEL)} {draw(NUMBER)} {draw(NUMBER)}")
        for _ in range(draw(st.integers(0, 3))):
            lines.append(f"term {draw(LABEL)} {draw(NUMBER)} {draw(NUMBER)} {draw(NUMBER)}")
    for _ in range(draw(st.integers(0, 3))):
        lines.append(f"rule {draw(LABEL)} -> {draw(LABEL)}")
    if draw(st.booleans()):
        resolution = st.sampled_from(['1000', '10001', '999', '0', '-5', 'x', '2.5', str(10**22), str(10**25), str(10**400)])
        lines.append(f"resolution {draw(resolution)}")
    return "\n".join(damaged(draw, lines, "abinputerm ->#0.5")) + "\n"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert "phasebal: error:" in err.getvalue()
        assert out.getvalue() == ""


@given(st.sampled_from(["balance", "unbalance"]), feeder_texts())
@settings(max_examples=300, deadline=None)
def test_feeder_text_ends_in_an_exit_code(tmp_path_factory, command, feeder):
    path = tmp_path_factory.mktemp("feeder") / "feeder.csv"
    path.write_text(feeder, encoding="utf-8")
    run([command, "--input", str(path)])


@given(
    st.sampled_from(["balance", "infer", "surface"]),
    st.none() | controller_texts(),
    st.sampled_from(["0", "120", "300", "-1", "301", "nan", "inf", "1e308", "5e-324", "1e-320"]),
    st.sampled_from(["1", "7.5", "50", "0", "-1", "nan", "inf", "-inf"]),
)
@settings(max_examples=400, deadline=None)
def test_controller_text_and_arguments_end_in_an_exit_code(
    tmp_path_factory, reference_feeder_path, command, controller, load, step
):
    argv = {
        "balance": ["balance", "--input", reference_feeder_path],
        "infer": ["infer", "--load", load],
        "surface": ["surface", "--step", step],
    }[command]
    if controller is not None:
        path = tmp_path_factory.mktemp("ctrl") / "ctrl.txt"
        path.write_text(controller, encoding="utf-8")
        argv += ["--controller", str(path)]
    run(argv)


@pytest.fixture(scope="module")
def reference_feeder_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("ref") / "feeder.csv"
    path.write_text(reference_feeder_text(), encoding="utf-8")
    return str(path)
