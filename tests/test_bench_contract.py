"""What bench/tracing.py relies on in the library, checked without timing.

The traced benchmark replaces the functions named in tracing.TRACED in
the modules their callers look them up in, and reads the positional
arguments of select_subset and infer_change to count work. A refactor
that renames, inlines or reorders any of these breaks the per-layer
metrics; these tests fail first.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

from phasebal import balancing, fuzzy, planner
from phasebal.balancing import BalancerConfig, balance
from phasebal.io import load_reference_feeder

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracing  # noqa: E402


@pytest.mark.parametrize("module, attr, span", tracing.TRACED, ids=[t[2] + "@" + t[0] for t in tracing.TRACED])
def test_traced_name_resolves_to_a_callable(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr))


def test_positional_parameter_order():
    assert list(inspect.signature(planner.select_subset).parameters) == ["points", "n", "target", "scale"]
    assert list(inspect.signature(fuzzy.infer_change).parameters)[:2] == ["ctrl", "load"]


def test_calls_go_through_the_module_globals(monkeypatch):
    """select_subset gets four positional arguments with the scale last,
    infer_change gets (controller, load), and the bench can count both."""
    calls = []
    for module, attr, name in (
        (planner, "select_subset", "planner.select_subset"),
        (fuzzy, "infer_change", "fuzzy.infer_change"),
        (balancing, "phase_totals", "model.phase_totals"),
    ):
        original = getattr(module, attr)

        def record(*args, _original=original, _name=name, **kwargs):
            result = _original(*args, **kwargs)
            calls.append((_name, args, kwargs, result))
            return result

        monkeypatch.setattr(module, attr, record)

    report = balance(load_reference_feeder(), BalancerConfig(integer_scale=10))
    assert report.final_totals == (146.0, 150.0, 151.0)

    selects = [c for c in calls if c[0] == "planner.select_subset"]
    infers = [c for c in calls if c[0] == "fuzzy.infer_change"]
    assert len(selects) == 2 and len(infers) == 3
    assert all(len(args) == 4 and not kwargs and args[3] == 10 for _, args, kwargs, _ in selects)
    assert all(len(args) == 2 and not kwargs for _, args, kwargs, _ in infers)
    # One executed pass: the totals are read once per snapshot.
    assert sum(c[0] == "model.phase_totals" for c in calls) == 2

    counts = tracing.count_calls((name, args, result) for name, args, _, result in calls if name != "model.phase_totals")
    assert counts["select_calls"] == 2 and counts["infer_calls"] == 3
