import os

import pytest


@pytest.fixture(scope="session", autouse=True)
def private_home(tmp_path_factory):
    """Point HOME at a fresh directory, so the oracle caches the tests build
    and read never touch the user's ~/.cache/grunits.  GRS_DATA_DIR stays
    unset, so the packaged psl33.tbl is still found."""
    home = tmp_path_factory.mktemp("home")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("HOME", str(home))
        yield home
