"""Damaged copies of the shipped PSL(3,3) character table, by name.

Each edit maps the text of `psl33.tbl` to a damaged text.  The first four
are the faults of the table matrix in tests/test_faults.py; the last two
are the tables the CI steps build with sed: a zero denominator, and b
values that keep every column orthogonal but are not integers.  COMMANDS
are the commands that read the table.  Stdlib only, so that
tests/report_digests.py digests each command on each table too.
"""

import re
from pathlib import Path

SHIPPED = Path(__file__).resolve().parent.parent / "src/grunits/data/psl33.tbl"

COMMANDS = [
    ["chartab", "--group", "psl33"],
    ["help-scan", "--group", "psl33"],
    ["construct", "psl33"],
    ["construct", "psl33", "--verify"],
    ["invariants"],
]


def _lines(*subs):
    """An edit that rewrites each (line, new line) pair exactly once."""
    def edit(text):
        for line, new in subs:
            text, count = re.subn(f"^{re.escape(line)}$", new, text,
                                  flags=re.M)
            if count != 1:
                raise ValueError(f"{line!r} is on {count} lines, not 1")
        return text
    return edit


EDITS = {
    "b-negated": lambda text: re.sub(
        r"^(char .* )(\S+)$", lambda m: f"{m[1]}{-int(m[2])}", text,
        flags=re.M),
    "ab-values-swapped": lambda text: re.sub(
        r"^(char .* )(\S+) (\S+)$", r"\1\3 \2", text, flags=re.M),
    "ab-sizes-swapped": lambda text: text.replace(
        "class a 3 104", "class a 3 624").replace(
        "class b 3 624", "class b 3 104"),
    # values and sizes swapped together: the same table under other names
    "ab-relabelled": lambda text: re.sub(
        r"^class ([ab]) ", lambda m: f"class {'ba'['ab'.index(m[1])]} ",
        text, flags=re.M),
    "zero-denominator": _lines(("char chi12 12 12 3 0",
                                "char chi12 12 12 3/0 0")),
    "non-integral": _lines(("char chi12 12 12 3 0", "char chi12 12 12 3 27/23"),
                           ("char chi13 13 13 4 1",
                            "char chi13 13 13 4 -13/23"),
                           ("char chi16a 16 16 -2 1",
                            "char chi16a 16 16 -2 -13/23"),
                           ("char chi26a 26 26 -1 -1",
                            "char chi26a 26 26 -1 -14/23"),
                           ("char chi27 27 27 0 0",
                            "char chi27 27 27 0 18/23")),
}


def damaged(fault: str) -> str:
    """The shipped table's text with the named edit applied; an edit that
    changes nothing is an error, so no fault runs on the shipped table."""
    text = SHIPPED.read_text(encoding="utf-8")
    out = EDITS[fault](text)
    if out == text:
        raise ValueError(f"{fault} leaves the table unchanged")
    return out
