"""The mutation gate: every seeded fault in the code must still fail its tests.

    python3 tests/mutants.py          # run every mutant; exit 1 when one
                                      # survives or its old text is gone

Run it from a source checkout; it needs pytest and nothing else beyond the
standard library.  A mutant is a name, one exact substitution (file, old
text, new text) and the ids of the tests that must fail on it.  First the
named tests of every mutant run once on an unchanged copy, where each must
pass.  Then, one mutant at a time, src/, tests/ and pyproject.toml are
copied into a temporary directory, the substitution is made there, and
only the mutant's tests run, as `python -m pytest` in that directory:
pyproject.toml's `pythonpath = ["src"]` puts the copy's src/ first, so the
tests see the mutant and not the checkout.  A mutant survives when one of
its tests passes.  The gate fails when a mutant survives, or when its old
text does not occur exactly once in its file, so that a refactor which
moves a check leaves the list failing, not silently stale.  The fault
matrix in tests/test_faults.py covers faulty data and presentations; this
gate covers faulty code.  The copy holds no perfbench/ and no .github/, so
the tests that read the benchmark or the CI workflow fail on every copy and
are named by no mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


# the tests that the rank-3 search's two count prunes answer to
_MEETS = (
    "tests/test_helpengine.py::"
    "test_rank3_search_answers_as_the_full_enumeration",
    "tests/test_helpengine.py::test_psl33_feasible_set_empty",
    "tests/test_acceptance.py::test_criterion_2_psl33_exclusion",
)

MUTANTS = [
    # each power table's check that it is the cyclic group of its base
    Mutant("cyclic-check-always-true", "src/grunits/constructions.py",
           "cyclic = {base: tab[0].is_identity()\n"
           "              and all(tab[k] * base == tab[(k + 1) % p]"
           " for k in range(p))\n"
           "              for base, tab in ug.powers.items()}",
           "cyclic = {base: True for base, tab in ug.powers.items()}",
           ("tests/test_constructions.py::"
            "test_verify_rejects_base_of_wrong_order",
            "tests/test_constructions.py::"
            "test_verify_rejects_every_tampered_power_table_entry[psl2-5-k0]",
            "tests/test_constructions.py::"
            "test_verify_rejects_every_tampered_power_table_entry[psl2-7-k3]",
            "tests/test_constructions.py::"
            "test_verify_rejects_every_tampered_power_table_entry[psl33-k2]")),
    # a kernel holds line - m second-class subgroups, not line
    Mutant("kernel-count-uncorrected", "src/grunits/helpengine.py",
           "(line - m) * vb", "line * vb",
           ("tests/test_helpengine.py::test_psl2_feasible_set[7]",
            "tests/test_helpengine.py::test_psl2_scan_matches_row_loop[5]",
            "tests/test_helpengine.py::test_psl33_witnesses_pinned",
            "tests/test_acceptance.py::test_criterion_1_psl2_feasible_sets")),
    # the rank-3 search stops cutting branches whose count passes x, or
    # whose count can no longer reach x
    Mutant("meets-overshoot-unpruned", "src/grunits/helpengine.py",
           "k <= x - count <= k + spare", "x - count <= k + spare", _MEETS),
    Mutant("meets-shortfall-unpruned", "src/grunits/helpengine.py",
           "k <= x - count <= k + spare", "k <= x - count", _MEETS),
    # the square table is trusted without its premise check
    Mutant("square-premise-unchecked", "src/grunits/finitefield.py",
           "        squares = self.squares\n"
           "        if len(squares) != (self.q - 1) // 2 or not"
           " squares.issuperset(\n"
           "                self._square_list()):\n"
           "            raise AssertionError(f\"square table is not the"
           " subgroup of \"\n"
           "                                 f\"squares of F_{self.q}^*\")\n",
           "        pass\n",
           ("tests/test_finitefield.py::"
            "test_square_lines_reject_a_table_that_is_not_the_squares[3]",
            "tests/test_patterns.py::"
            "test_realizers_reject_a_table_that_is_not_the_squares[7]",
            "tests/test_oracle.py::"
            "test_square_criterion_checks_its_square_table_first",
            "tests/test_faults.py::test_square_table_fault_matrix")),
    # the square table checked by its size alone
    Mutant("square-premise-size-only", "src/grunits/finitefield.py",
           " or not squares.issuperset(\n                self._square_list())",
           "",
           ("tests/test_patterns.py::"
            "test_realizers_reject_a_table_that_is_not_the_squares[7]",
            "tests/test_patterns.py::"
            "test_realizers_reject_a_table_that_is_not_the_squares[11]")),
    # reports written in insertion order, not sorted by key
    Mutant("report-keys-unsorted", "src/grunits/cli.py",
           "sorted(obj.items())", "obj.items()",
           ("tests/test_cli.py::test_dumps_matches_json[value9]",
            "tests/test_cli.py::test_report_bytes[chartab-psl33]",
            "tests/test_digests.py::test_cheap_commands_match_their_digests"
            "[chartab --group psl2 --p 13]",
            "tests/test_digests.py::test_a_table_fault_matches_its_digest")),
    # non-ASCII digits such as '\u0663' parsed as table integers
    Mutant("table-digits-non-ascii", "src/grunits/chardata.py",
           "digits.isascii() and digits.isdigit()", "digits.isdigit()",
           (r"tests/test_chardata.py::"
            r"test_load_table_rejects_non_decimal_tokens[\xb2]",
            r"tests/test_chardata.py::"
            r"test_load_table_rejects_non_decimal_tokens[\u0663]")),
    # a PSL(2,p^2) power read off the layout without its other entry, so
    # a matrix that is not listed takes a listed element's position
    Mutant("psl2-walk-other-entry-unchecked", "src/grunits/oracle.py",
           "                if a:\n"
           "                    at = start[a * q + b] + c\n"
           "                    if listed[at][3] != d:\n"
           "                        break\n"
           "                else:\n"
           "                    at = start[b] + d\n"
           "                    if listed[at][2] != c:\n"
           "                        break\n",
           "                at = start[a * q + b] + c if a else"
           " start[b] + d\n",
           ("tests/test_oracle.py::test_a_wrong_dependent_entry_fails_the_walk",
            "tests/test_oracle.py::"
            "test_the_walk_refuses_every_element_outside_the_listing[psl2-9]")),
    # two product rows of a PSL(2,p^2) matrix swapped
    Mutant("psl2-product-rows-swapped", "src/grunits/oracle.py",
           "prod[a], prod[b]", "prod[b], prod[a]",
           ("tests/test_oracle.py::test_orders_match_element_order[psl2-9]",
            "tests/test_oracle.py::"
            "test_listing_by_determinant_equals_closure[psl2-25]")),
    # an unlisted row marked -1, so an offset added to it can land on a
    # listed position
    Mutant("unlisted-is-minus-one", "src/grunits/oracle.py",
           "UNLISTED = -2 * ORDER_CAP", "UNLISTED = -1",
           ("tests/test_oracle.py::"
            "test_the_walk_refuses_every_element_outside_the_listing[psl2-9]",
            "tests/test_oracle.py::"
            "test_the_walk_refuses_every_element_outside_the_listing[psl3-3]",
            "tests/test_oracle.py::"
            "test_a_conjugate_outside_the_listing_fails_the_class_walk"
            "[psl3-3]")),
    # each generator paired with the identity instead of its inverse
    Mutant("conjugator-is-identity", "src/grunits/oracle.py",
           "power_positions(g)[-2]", "power_positions(g)[-1]",
           ("tests/test_oracle.py::test_psl2_9_order_and_classes",
            "tests/test_oracle.py::test_psl3_order_and_classes",
            "tests/test_oracle.py::test_each_conjugation_is_mul_twice[psl2-9]",
            "tests/test_faults.py::"
            "test_oracle_fault_matrix[psl2-sign-rule-flipped]")),
]


def copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run_tests(tree: Path, tests) -> dict[str, str]:
    """Each test id's outcome in one pytest run in `tree`, as the summary
    line `OUTCOME ID` or `OUTCOME ID - MESSAGE` gives it (PASSED, FAILED,
    ERROR, ...); a test that did not run has none."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p",
         "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True)
    outcomes = {}
    for line in done.stdout.splitlines():
        outcome, _, rest = line.partition(" ")
        for test in tests:
            if rest == test or rest.startswith(f"{test} - "):
                outcomes[test] = outcome
    return outcomes


def main() -> int:
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp, "unchanged")
        copy_tree(base)
        named = sorted({t for mutant in MUTANTS for t in mutant.tests})
        seen = run_tests(base, named)
        problems += [f"{t}: {seen.get(t, 'not run')} on the unchanged tree"
                     for t in named if seen.get(t) != "PASSED"]
        for mutant in MUTANTS:
            text = (ROOT / mutant.file).read_text(encoding="utf-8")
            count = text.count(mutant.old)
            if count != 1:
                problems.append(f"{mutant.name}: its old text occurs {count}"
                                f" times in {mutant.file}, not once")
                continue
            tree = Path(tmp, mutant.name)
            copy_tree(tree)
            (tree / mutant.file).write_text(
                text.replace(mutant.old, mutant.new), encoding="utf-8")
            seen = run_tests(tree, mutant.tests)
            shutil.rmtree(tree)
            passed = [t for t in mutant.tests if seen.get(t) != "FAILED"]
            caught = mutant.tests and not passed
            print(f"{mutant.name}: {'caught' if caught else 'survives'}, "
                  f"{len(mutant.tests) - len(passed)} of {len(mutant.tests)}"
                  f" tests fail")
            problems += [f"{mutant.name}: {t} {seen.get(t, 'not run')}"
                         for t in passed]
            if not mutant.tests:
                problems.append(f"{mutant.name}: names no test")
    print("\n".join(problems) if problems else "every mutant is caught")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
