import os

import pytest

import grunits


@pytest.fixture(scope="session", autouse=True)
def private_home(tmp_path_factory):
    """Point HOME at a fresh directory, so the oracle caches the tests build
    and read never touch the user's ~/.cache/grunits.  GRS_DATA_DIR stays
    unset, so the packaged psl33.tbl is still found.  PYTHONPATH starts with
    the directory the tests import grunits from, so the commands the tests
    run in a subprocess use the same code."""
    home = tmp_path_factory.mktemp("home")
    src = os.path.dirname(os.path.dirname(os.path.abspath(grunits.__file__)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("HOME", str(home))
        mp.setenv("PYTHONPATH", src, prepend=os.pathsep)
        yield home
