import os

import pytest

import grunits
from grunits import oracle
from grunits.finitefield import fq_make


@pytest.fixture(scope="session", autouse=True)
def src_on_pythonpath():
    """Start PYTHONPATH with the directory the tests import grunits from, so
    the commands the tests run in a subprocess use the same code."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(grunits.__file__)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", src, prepend=os.pathsep)
        yield


@pytest.fixture
def fresh_fields():
    """Drop the fields and groups cached before and during the test, so
    none built on a faulty field or group outlives it."""
    fq_make.cache_clear()
    oracle.cached_group.cache_clear()
    yield
    fq_make.cache_clear()
    oracle.cached_group.cache_clear()

