"""Bundled data: read through the package's own loader, and shipped in a wheel."""

import json
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

import phasebal
from phasebal.fuzzy import reference_controller_text
from phasebal.io import reference_feeder_text

PACKAGE = Path(phasebal.__file__).resolve().parent


def _files(root):
    return {p for p in root.rglob("*") if p.is_file() and "__pycache__" not in p.parts}


def test_readers_work_from_a_zipped_package(tmp_path):
    archive = tmp_path / "phasebal.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for path in sorted(_files(PACKAGE)):
            zf.write(path, path.relative_to(PACKAGE.parent).as_posix())
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import phasebal.fuzzy, phasebal.io; "
        "assert phasebal.__file__.startswith(sys.argv[1]), phasebal.__file__; "
        "print(json.dumps([phasebal.fuzzy.reference_controller_text(), phasebal.io.reference_feeder_text()]))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(archive)], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [reference_controller_text(), reference_feeder_text()]


def test_every_data_file_is_package_data():
    """Every file under data/ matches a [tool.setuptools.package-data]
    pattern, so that a wheel ships it without a package marker."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = PACKAGE.parents[1] / "pyproject.toml"
    if not pyproject.is_file():
        pytest.skip("not a source checkout")
    patterns = tomllib.loads(pyproject.read_text(encoding="utf-8"))["tool"]["setuptools"]["package-data"]["phasebal"]
    shipped = {p for pattern in patterns for p in PACKAGE.glob(pattern)}
    data = _files(PACKAGE / "data")
    assert data and data <= shipped, sorted(str(p) for p in data - shipped)
