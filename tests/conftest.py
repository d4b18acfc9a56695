import os
import re

import pytest

import grunits
from grunits.chardata import data_dir


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


# row renames that keep the shipped PSL(3,3) table orthogonal but break what
# the unit constructions read from it: a distinguished row gone, or the
# names chi12 and chi16a on rows that are equal on a and b
PSL33_RENAMES = {
    "renamed-row": {"chi16a": "chi16x"},
    "swapped-names": {"triv": "chi12", "chi12": "triv",
                      "chi16a": "chi27", "chi27": "chi16a"},
}


@pytest.fixture
def renamed_psl33(tmp_path):
    """Write the shipped psl33.tbl with one of PSL33_RENAMES applied into a
    fresh directory, and return the directory (for GRS_DATA_DIR)."""
    def write(edit: str):
        renames = PSL33_RENAMES[edit]
        with open(os.path.join(data_dir(), "psl33.tbl"), encoding="utf-8") as fh:
            text = fh.read()
        text = re.sub(r"^char (\S+)",
                      lambda m: f"char {renames.get(m[1], m[1])}",
                      text, flags=re.M)
        (tmp_path / "psl33.tbl").write_text(text, encoding="utf-8")
        return tmp_path
    return write
