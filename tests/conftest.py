"""Fixtures shared across test modules."""

import pytest

from vftk.f2quad import orbit_census


@pytest.fixture(scope="session")
def n5_exhaustive_census():
    """orbit_census(5, exhaustive=True): all 71145 members enumerated and
    certified, computed once per session."""
    return orbit_census(5, exhaustive=True)
