import pytest

from phasebal.fuzzy import default_controller
from phasebal.io import load_reference_feeder


@pytest.fixture(scope="session")
def controller():
    return default_controller()


@pytest.fixture()
def reference_feeder():
    return load_reference_feeder()


# (initial loads, fuzzy suggestion, error vector, corrected suggestion)
# Five historical application fixtures for the correction stage. The
# second row's suggestion is reconstructed as corrected + error, the only
# vector consistent with its error and corrected columns.
CORRECTION_FIXTURES = [
    ((157, 134, 120), (-12, 5, 25), (6, 6, 6), (-18, -1, 19)),
    ((140, 145, 156), (-1, -6, -12), (-6, -6, -7), (5, 0, -5)),
    ((205, 170, 162), (-52, -21, -12), (-28, -28, -29), (-24, 7, 17)),
    ((170, 95, 83), (-21, 60, 64), (34, 34, 35), (-55, 26, 29)),
    ((117, 74, 42), (25, 76, 108), (70, 70, 69), (-45, 6, 39)),
]


@pytest.fixture(scope="session")
def correction_fixtures():
    return CORRECTION_FIXTURES


# A controller whose rule for an empty phase asks it to release load:
# 0 kW fires LOW, which maps to a negative change.
ZERO_RELEASE_CONTROLLER = """\
input Load 0 300
term LOW 0 0 150
term HIGH 100 300 300
output Change -150 150
term DOWN -150 -100 0
term UP 0 100 150
rule LOW -> DOWN
rule HIGH -> UP
"""


@pytest.fixture()
def zero_release_controller_text():
    return ZERO_RELEASE_CONTROLLER


@pytest.fixture()
def zero_release_feeder_rows():
    """Phase 1 holds two 0 kW points; phases 2 and 3 hold 200 x 1 kW."""
    return [[0.0, 0.0], [1.0] * 200, [1.0] * 200]
