"""Each demo runs to completion in a fresh interpreter against this source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import phasebal

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    src = str(Path(phasebal.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_demos_are_found():
    # An empty parameter list would skip the smoke test without a failure.
    assert DEMOS
