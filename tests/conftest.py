"""Fixtures shared across test modules."""

import time

import pytest

from vftk.f2quad import orbit_census
from vftk.frames import classify_e8_frames


@pytest.fixture(scope="session")
def n5_exhaustive_census():
    """orbit_census(5, exhaustive=True): all 71145 members enumerated and
    certified, computed once per session."""
    return orbit_census(5, exhaustive=True)


@pytest.fixture(scope="session")
def e8_census():
    """(classify_e8_frames(), elapsed seconds): the full frame census,
    split as the CLI splits it, computed once per session."""
    t0 = time.monotonic()
    census = classify_e8_frames()
    return census, time.monotonic() - t0
