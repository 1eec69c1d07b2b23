"""Shared fixtures: the six standing example groups, and the hypothesis
profile every property runs under."""

from fractions import Fraction

import pytest
from hypothesis import settings

from almostabelian.jordan import multiplicity_function
from almostabelian.scalars import GaussRational

# Every run draws the same examples and writes no example database, so a
# property fails or passes alike on every run; each test keeps its own
# max_examples.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


@pytest.fixture
def heis():
    """Heisenberg group: single nilpotent block of size 2."""
    return multiplicity_function({(GaussRational(0), 2): 1})


@pytest.fixture
def aff():
    """Affine group of the line: eigenvalue 1."""
    return multiplicity_function({(GaussRational(1), 1): 1})


@pytest.fixture
def e2():
    """Universal cover of the Euclidean motion group: eigenvalue i."""
    return multiplicity_function({(GaussRational(0, 1), 1): 1})


@pytest.fixture
def mix():
    """Two rotation blocks with rationally related speeds 2/3 and 1."""
    return multiplicity_function(
        {(GaussRational(0, Fraction(2, 3)), 1): 1, (GaussRational(0, 1), 1): 1}
    )


@pytest.fixture
def heis_r():
    """Heisenberg times a line: blocks (0,2) and (0,1)."""
    return multiplicity_function({(GaussRational(0), 2): 1, (GaussRational(0), 1): 1})


@pytest.fixture
def e2_r2():
    """E(2) cover times a plane: blocks (i,1) and twice (0,1)."""
    return multiplicity_function({(GaussRational(0, 1), 1): 1, (GaussRational(0), 1): 2})
