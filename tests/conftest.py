import pytest

from chordlab.generate import enumerate_cubic


@pytest.fixture(scope="session")
def corpus():
    """Connected cubic graphs per order, cached for the whole run."""
    return {n: enumerate_cubic(n) for n in (4, 6, 8, 10)}


@pytest.fixture(scope="session")
def corpus12():
    """The 85 connected cubic graphs on 12 vertices, cached likewise."""
    return enumerate_cubic(12)
