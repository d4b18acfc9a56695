"""Which verdicts each named fault in the PSL(3,3) table reaches.

Every command that reads the table, and the oracle that reads none, runs in
process on a damaged `psl33.tbl` in GRS_DATA_DIR.  A cell is "invalid"
(exit 1, the table fails to load), "fails" (exit 1, the report's verdict is
false) or, for exit 0, the reason no check sees the fault: a blind spot is
then a written-down cell, and the change that closes one flips it here.
"""

import re

import pytest

from grunits.chardata import data_dir
from grunits.cli import main

COMMANDS = [
    ["chartab", "--group", "psl33"],
    ["help-scan", "--group", "psl33"],
    ["construct", "psl33"],
    ["construct", "psl33", "--verify"],
    ["invariants"],
    ["oracle", "--group", "psl3"],
]

NO_TABLE = "oracle enumerates PSL(3,3) from matrices and reads no table"

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
        ["invalid"] * 5 + [NO_TABLE]),
    "ab-sizes-swapped": (
        lambda text: text.replace("class a 3 104", "class a 3 624")
                         .replace("class b 3 624", "class b 3 104"),
        ["invalid"] * 5 + [NO_TABLE]),
    # values and sizes swapped together: the same table under other names
    "ab-relabelled": (
        lambda text: re.sub(r"^class ([ab]) ",
                            lambda m: f"class {'ba'['ab'.index(m[1])]} ",
                            text, flags=re.M),
        ["chartab checks orthogonality, which no renaming of columns changes",
         "help-scan sees the same columns under swapped names, and still "
         "finds no feasible x",
         "construct reads no class size, so its units land on the renamed "
         "classes and every check passes",
         "construct --verify counts elements per class name, and no check "
         "ties a name to its class size",
         "invariants checks orthogonality and the decomposition, which are "
         "symmetric in a and b",
         NO_TABLE]),
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
    seen = []
    for argv in COMMANDS:
        code = main(argv)
        err = capsys.readouterr().err
        seen.append(code if code != 1 else
                    "invalid" if err.startswith("validation failure: ")
                    else "fails")
    assert seen == [cell if cell in ("invalid", "fails") else 0
                    for cell in cells]
