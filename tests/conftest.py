import os
import re

import pytest

import grunits
from grunits import oracle
from grunits.chardata import data_dir
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


# byte edits of the shipped PSL(3,3) table that loading must reject with a
# ValidationError, neither crashing nor passing every check
PSL33_DAMAGES = {
    "zero-size": [(rb"^class a 3 104$", b"class a 3 0")],
    "zero-denominator": [(rb"^char chi12 12 12 3 0$",
                          b"char chi12 12 12 3/0 0")],
    "not-utf8": [(rb"^char chi13 ", b"char chi\xff13 ")],
    "no-identity": [(rb"^class 1 ", b"class e ")],
    "renamed-ab": [(rb"^class a ", b"class x "), (rb"^class b ", b"class y ")],
    # class b listed twice, with its value repeated in every row
    "repeated-class": [(rb"^(class b .*)$", rb"\1\n\1"),
                       (rb"^(char .* (\S+))$", rb"\1 \2")],
    "char-before-class": [(rb"^(class 1 )", rb"char chi0 1\n\1")],
    "class-after-char": [(rb"^(char chi39 .*)$", rb"\1\nclass c 2 117")],
    "order-zero": [(rb"^class a 3 ", b"class a 0 ")],
    "order-two": [(rb"^class a 3 ", b"class a 2 ")],
    "class-trailing-token": [(rb"^(class 1 1 1)$", rb"\1 1")],
    "group-trailing-token": [(rb"^(group .*)$", rb"\1 extra")],
    "repeated-row": [(rb"^char chi16b ", b"char chi16a ")],
    # b values that keep every column orthogonal but are not integers, so
    # they cannot be character values on a rational class
    "non-integral": [(rb"^(char chi12 12 12 3) 0$", rb"\1 27/23"),
                     (rb"^(char chi13 13 13 4) 1$", rb"\1 -13/23"),
                     (rb"^(char chi16a 16 16 -2) 1$", rb"\1 -13/23"),
                     (rb"^(char chi26a 26 26 -1) -1$", rb"\1 -14/23"),
                     (rb"^(char chi27 27 27 0) 0$", rb"\1 18/23")],
}


@pytest.fixture
def damaged_psl33(tmp_path):
    """Write the shipped psl33.tbl with one of PSL33_DAMAGES applied into a
    fresh directory, and return the directory (for GRS_DATA_DIR)."""
    def write(damage: str):
        with open(os.path.join(data_dir(), "psl33.tbl"), "rb") as fh:
            text = fh.read()
        for pattern, repl in PSL33_DAMAGES[damage]:
            text, count = re.subn(pattern, repl, text, flags=re.M)
            assert count, (damage, pattern)
        (tmp_path / "psl33.tbl").write_bytes(text)
        return tmp_path
    return write
