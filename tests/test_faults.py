"""Which verdicts each named fault reaches.

Five matrices.  In the first, every command that reads the PSL(3,3)
table, and the oracle that reads none, runs in process on a damaged
`psl33.tbl` in GRS_DATA_DIR.  In the second, the unit-group builders the
CLI calls return a faulty presentation, and `construct` (both modes) and
`invariants`, which builds both groups, run on it.  In the third, F_(p^2)
is built on a square t, so F_p[w] is not a field, and every command that
works at that p runs.  In the fourth, F_49's square table misses one
square, and every command that reads it runs.  In the fifth, the oracle
groups multiply wrongly.  A cell is "fails" (exit 1, the report is
printed and its verdict is false), "invalid: " and the start of the
message of a validation failure (exit 1, no report, `validation
failure: MSG` on stderr: a table that fails to load, or an internal
check that stops the command), or, for exit 0, the reason no check sees
the fault: a blind spot is then a written-down cell, and the change that
closes one flips it here.
"""

import re

import pytest

from grunits import cli
from grunits.chardata import data_dir
from grunits.cli import main
from grunits.constructions import UnitGroup
from grunits.finitefield import Fq, fq_make
from grunits.matrices import QMatrix
from grunits.oracle import PSL2, PSL3

COMMANDS = [
    ["chartab", "--group", "psl33"],
    ["help-scan", "--group", "psl33"],
    ["construct", "psl33"],
    ["construct", "psl33", "--verify"],
    ["invariants"],
    ["oracle", "--group", "psl3"],
]

NO_TABLE = "oracle enumerates PSL(3,3) from matrices and reads no table"
NOT_ORTHOGONAL = "invalid: orthogonality fails: "

# fault -> (edit of the table text, one cell per command)
FAULTS = {
    "b-negated": (
        lambda text: re.sub(r"^(char .* )(\S+)$",
                            lambda m: f"{m[1]}{-int(m[2])}", text, flags=re.M),
        ["chartab checks orthogonality, which negating a column preserves",
         "help-scan expects no feasible x for PSL(3,3), and the negated "
         "values leave none either",
         "fails", "fails", "fails", NO_TABLE]),
    "ab-values-swapped": (
        lambda text: re.sub(r"^(char .* )(\S+) (\S+)$", r"\1\3 \2", text,
                            flags=re.M),
        [NOT_ORTHOGONAL] * 5 + [NO_TABLE]),
    "ab-sizes-swapped": (
        lambda text: text.replace("class a 3 104", "class a 3 624")
                         .replace("class b 3 624", "class b 3 104"),
        [NOT_ORTHOGONAL] * 5 + [NO_TABLE]),
    # values and sizes swapped together: the same table under other names
    "ab-relabelled": (
        lambda text: re.sub(r"^class ([ab]) ",
                            lambda m: f"class {'ba'['ab'.index(m[1])]} ",
                            text, flags=re.M),
        ["invalid: PSL(3,3) table lacks class a of order 3 and size 104"] * 5
        + [NO_TABLE]),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_fault_matrix(fault, tmp_path, monkeypatch, capsys):
    edit, cells = FAULTS[fault]
    with open(f"{data_dir()}/psl33.tbl", encoding="utf-8") as fh:
        text = fh.read()
    damaged = edit(text)
    assert damaged != text
    (tmp_path / "psl33.tbl").write_text(damaged, encoding="utf-8")
    monkeypatch.setenv("GRS_DATA_DIR", str(tmp_path))
    assert _outcomes(COMMANDS, cells, capsys) == cells


def _outcomes(commands, cells, capsys) -> list:
    """Each command's cell where its run matches it, else its exit code
    and stderr, so that a mismatch shows what happened instead."""
    seen = []
    for argv, cell in zip(commands, cells):
        code = main(argv)
        out, err = capsys.readouterr()
        report = f"[{argv[0]}] ok="
        if cell == "fails":
            match = code == 1 and f"{report}False" in out
        elif cell.startswith("invalid: "):
            match = (code == 1 and report not in out and err.startswith(
                "validation failure: " + cell.removeprefix("invalid: ")))
        else:
            match = code == 0
        seen.append(cell if match else f"exit {code}: {err}")
    return seen


def _chi_base(i: int, base: QMatrix):
    """Replace block i of the chi component's bases by `base`."""
    def edit(bases, gens):
        chi = list(bases["chi"])
        chi[i] = base
        return {**bases, "chi": tuple(chi)}, gens
    return edit


# [[1, 1], [0, 1]] has infinite order, so no exponent of it is read mod 3
UNIPOTENT = QMatrix([[1, 1], [0, 1]])

# fault -> (group, edit of (bases, generator exponents), one cell each for
# construct, construct --verify and invariants)
PRESENTATION_FAULTS = {
    "alpha-zero": (
        "psl33",
        lambda bases, gens: (bases, [{c: (0,) * len(ks)
                                      for c, ks in gens[0].items()},
                                     *gens[1:]]),
        ["fails"] * 3),
    "beta-repeated": (
        "psl33",
        lambda bases, gens: (bases, [gens[0], gens[1], gens[1]]),
        ["fails"] * 3),
    "chi-last-base-unipotent": ("psl33", _chi_base(-1, UNIPOTENT),
                                ["fails"] * 3),
    "chi-first-base-unipotent": (
        "psl33", _chi_base(0, UNIPOTENT),
        ["every generator has exponent 0 in that block, so the block is I "
         "in every element and the group is unchanged"] * 3),
    # u' is u with exponent 1 on the 1x1 identity block: the same matrix,
    # so the group has 5 elements, not 25
    "u-prime": (
        "psl2",
        lambda bases, gens: (bases, [gens[0],
                                     {"eta": (1,) + gens[0]["eta"][1:]}]),
        ["fails"] * 3),
}


@pytest.mark.parametrize("fault", PRESENTATION_FAULTS)
def test_presentation_fault_matrix(fault, monkeypatch, capsys):
    kind, edit, cells = PRESENTATION_FAULTS[fault]
    name = f"build_{kind}_units"
    build = getattr(cli, name)

    def faulty(*args):
        ug = build(*args)
        bases, gens = edit(ug.bases, ug.generator_exponents)
        return UnitGroup(ug.table, ug.p, ug.support, ug.distinguished,
                         ug.generator_names, bases, gens, ug.pattern)

    monkeypatch.setattr(cli, name, faulty)
    # invariants builds the psl2 group at p = 5 with pattern {1, 2}
    construct = (["construct", "psl33"] if kind == "psl33" else
                 ["construct", "psl2", "--p", "5", "--pattern", "1,2"])
    commands = [construct, [*construct, "--verify"], ["invariants"]]
    assert _outcomes(commands, cells, capsys) == cells


NOT_A_FIELD = "invalid: w^2 - 2 is reducible over F_7: F_p[w] is not a field"
NO_FIELD = ("construct without --verify runs no Valenti search, and builds "
            "and checks its units over Q, so it reads no field")

# command at p = 7 -> its cell when the field is built on t = 2 = 3^2 mod 7:
# its square table holds 15 elements, not 24, and a Valenti search on it
# would report a false null
FIELD_FAULT = {
    ("construct", "psl2", "--p", "7", "--pattern", "1,2,4"): NO_FIELD,
    ("construct", "psl2", "--p", "7", "--pattern", "1,2,4", "--verify"):
        NOT_A_FIELD,
    ("patterns", "--p", "7"): NOT_A_FIELD,
    ("oracle", "--group", "psl2", "--q", "49"): NOT_A_FIELD,
    ("invariants",): NOT_A_FIELD,
    ("help-scan", "--group", "psl2", "--p", "7"):
        "help-scan reads the generated PSL(2,49) character slice, whose "
        "values are closed forms in p",
    ("chartab", "--group", "psl2", "--p", "7"):
        "chartab reads the generated PSL(2,49) character slice, whose "
        "values are closed forms in p",
}


def test_field_fault_matrix(fresh_fields, monkeypatch, capsys):
    monkeypatch.setattr(Fq, "_smallest_nonresidue", staticmethod(lambda p: 2))
    commands = [list(argv) for argv in FIELD_FAULT]
    cells = list(FIELD_FAULT.values())
    assert _outcomes(commands, cells, capsys) == cells


# the check, `Fq.check_squares`, that a square table is exactly the squares
NOT_CLOSED = ("invalid: square table is not the subgroup of squares of "
              "F_49^*")

# command at p = 7 -> its cell when F_49's square table misses 2 = 3^2: a
# Valenti search reading the normalized scan alone would give {1,2,4} its
# null from a wrong table
SQUARE_FAULT = {
    ("construct", "psl2", "--p", "7", "--pattern", "1,2,4", "--verify"):
        NOT_CLOSED,
    ("construct", "psl2", "--p", "7", "--pattern", "1,2,3", "--verify"):
        NOT_CLOSED,
    ("construct", "psl2", "--p", "7", "--pattern", "1,2,4"): NO_FIELD,
    ("patterns", "--p", "7"): NOT_CLOSED,
    # "square lines p=7" certifies the table before it counts the lines
    ("invariants",): NOT_CLOSED,
}


def test_square_table_fault_matrix(fresh_fields, capsys):
    # fq_make caches the field, so every layer reads this table
    field = fq_make(7)
    field.squares = field.squares - {(2, 0)}
    commands = [list(argv) for argv in SQUARE_FAULT]
    cells = list(SQUARE_FAULT.values())
    assert _outcomes(commands, cells, capsys) == cells


ORACLE_COMMANDS = [
    ["oracle", "--group", "psl2", "--q", "9"],
    ["oracle", "--group", "psl3"],
    ["invariants"],
]

# fault -> (group class, edit of a new group, one cell per command); the
# faults of tests/test_oracle.py, made where every command builds its group
ORACLE_FAULTS = {
    # a power lands on -1, never on the canonical identity
    "psl2-sign-rule-flipped": (
        PSL2, lambda g: setattr(g, "_leads", [not v for v in g._leads]),
        ["invalid: PSL(2,9): the powers of (0, 1, 1, 0) miss the identity "
         "within the group order 360",
         "PSL(3,3) has no sign rule",
         # the square criterion's orbit walk first inverts the generator x(1)
         "invalid: PSL(2,9): the powers of (3, 3, 0, 3) miss the identity "
         "within the group order 360"]),
    # the field sums (1, 0, 0) reduce to the row (1, 0, 1)
    "psl3-mod3-entry": (
        PSL3, lambda g: g._mod3.__setitem__(169, 10),
        ["PSL(2,9) reads no PSL(3,3) table",
         "invalid: PSL(3,3): the powers of (1, 6, 9) miss the identity "
         "within the group order 5616",
         # the class-size check's orbit walk first inverts the 3-cycle
         "invalid: PSL(3,3): the powers of (3, 1, 9) miss the identity "
         "within the group order 5616"]),
}


@pytest.mark.parametrize("fault", ORACLE_FAULTS)
def test_oracle_fault_matrix(fault, fresh_fields, monkeypatch, capsys):
    group, edit, cells = ORACLE_FAULTS[fault]
    init = group.__init__

    def faulty(self, *args):
        init(self, *args)
        edit(self)

    monkeypatch.setattr(group, "__init__", faulty)
    assert _outcomes(ORACLE_COMMANDS, cells, capsys) == cells
