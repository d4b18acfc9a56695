"""Damaged copies of the shipped PSL(3,3) character table, by name: the one
place that edits `psl33.tbl`.

An edit is a list of (old, new) substitutions on the table's bytes (bytes,
since `not-utf8` writes one that is not UTF-8).  `old` is a whole line,
which must be on exactly one line, or a compiled regex, which must match
at least once.  EDITS holds three groups: FAULT_MATRIX, the faults whose
verdict on every command tests/test_faults.py pins; LOAD_ERRORS, tables
that loading must reject with a ValidationError; and RENAMES, row renames
that keep the table orthogonal but break what the unit constructions read.

`write` puts a damaged table where GRS_DATA_DIR can point; a CI step runs
`python3 tests/table_faults.py NAME DIR` to write DIR/psl33.tbl.  COMMANDS
are the commands that read the table.  Stdlib only, so that
tests/report_digests.py digests each command on each table too.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = ROOT / "src/grunits/data/psl33.tbl"

COMMANDS = [
    ["chartab", "--group", "psl33"],
    ["help-scan", "--group", "psl33"],
    ["construct", "psl33"],
    ["construct", "psl33", "--verify"],
    ["invariants"],
]

FAULT_MATRIX = {
    # negating a column keeps every column orthogonal
    "b-negated": [(re.compile(rb"^(char .* )(\S+)$", re.M),
                   lambda m: m[1] + b"%d" % -int(m[2]))],
    "ab-values-swapped": [(re.compile(rb"^(char .* )(\S+) (\S+)$", re.M),
                           rb"\1\3 \2")],
    "ab-sizes-swapped": [(b"class a 3 104", b"class a 3 624"),
                         (b"class b 3 624", b"class b 3 104")],
    # values and sizes swapped together: the same table under other names
    "ab-relabelled": [(b"class a 3 104", b"class b 3 104"),
                      (b"class b 3 624", b"class a 3 624")],
}

LOAD_ERRORS = {
    "zero-size": [(b"class a 3 104", b"class a 3 0")],
    "zero-denominator": [(b"char chi12 12 12 3 0", b"char chi12 12 12 3/0 0")],
    "not-utf8": [(b"char chi13 13 13 4 1", b"char chi\xff13 13 13 4 1")],
    "no-identity": [(b"class 1 1 1", b"class e 1 1")],
    "renamed-ab": [(b"class a 3 104", b"class x 3 104"),
                   (b"class b 3 624", b"class y 3 624")],
    # class b listed twice, with its value repeated in every row
    "repeated-class": [(b"class b 3 624", b"class b 3 624\nclass b 3 624"),
                       (re.compile(rb"^(char .* (\S+))$", re.M), rb"\1 \2")],
    "char-before-class": [(b"class 1 1 1", b"char chi0 1\nclass 1 1 1")],
    "class-after-char": [(b"char chi39 39 39 3 0",
                          b"char chi39 39 39 3 0\nclass c 2 117")],
    "order-zero": [(b"class a 3 104", b"class a 0 104")],
    "order-two": [(b"class a 3 104", b"class a 2 104")],
    "class-trailing-token": [(b"class 1 1 1", b"class 1 1 1 1")],
    "group-trailing-token": [(b"group PSL(3,3) order 5616",
                              b"group PSL(3,3) order 5616 extra")],
    "repeated-row": [(b"char chi16b 16 16 -2 1", b"char chi16a 16 16 -2 1")],
    # b values that keep every column orthogonal but are not integers, so
    # they cannot be character values on a rational class
    "non-integral": [
        (b"char chi12 12 12 3 0", b"char chi12 12 12 3 27/23"),
        (b"char chi13 13 13 4 1", b"char chi13 13 13 4 -13/23"),
        (b"char chi16a 16 16 -2 1", b"char chi16a 16 16 -2 -13/23"),
        (b"char chi26a 26 26 -1 -1", b"char chi26a 26 26 -1 -14/23"),
        (b"char chi27 27 27 0 0", b"char chi27 27 27 0 18/23")],
    "chi12-ab-swapped": [(b"char chi12 12 12 3 0", b"char chi12 12 12 0 3")],
}

# a distinguished row gone, or the names chi12 and chi16a on rows that are
# equal on a and b
RENAMES = {
    "renamed-row": [(b"char chi16a 16 16 -2 1", b"char chi16x 16 16 -2 1")],
    "swapped-names": [
        (b"char triv 1 1 1 1", b"char chi12 1 1 1 1"),
        (b"char chi12 12 12 3 0", b"char triv 12 12 3 0"),
        (b"char chi16a 16 16 -2 1", b"char chi27 16 16 -2 1"),
        (b"char chi27 27 27 0 0", b"char chi16a 27 27 0 0")],
}

EDITS = {**FAULT_MATRIX, **LOAD_ERRORS, **RENAMES}


def damaged(name: str) -> bytes:
    """The shipped table's bytes with the named edit applied.  A part that
    misses is an error, so no fault runs on the shipped table or on half
    its damage."""
    text = SHIPPED.read_bytes()
    for old, new in EDITS[name]:
        line = isinstance(old, bytes)
        pattern = re.compile(b"^%s$" % re.escape(old), re.M) if line else old
        text, count = pattern.subn(new, text)
        if count == 0 or line and count != 1:
            raise ValueError(f"{name}: {old!r} matches {count} lines")
    return text


def write(name: str, directory) -> Path:
    """Write the table damaged by `name` to `directory`/psl33.tbl and
    return the directory, for GRS_DATA_DIR."""
    directory = Path(directory)
    (directory / "psl33.tbl").write_bytes(damaged(name))
    return directory


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in EDITS:
        sys.exit(f"usage: python3 {sys.argv[0]} NAME DIR\n"
                 f"NAME is one of: {', '.join(EDITS)}")
    write(*sys.argv[1:])
