"""Golden digests of grunits reports: check them, or rewrite them.

    python3 tests/report_digests.py           # print the commands whose digest
                                              # changed; exit 1 if any did
    python3 tests/report_digests.py --write   # the same, then rewrite
                                              # tests/report_digests.json

Run it from a source checkout; it imports grunits from the checkout's src/
and needs nothing beyond the standard library.  The commands are the
distinct argvs the benchmark (perfbench/run.py) generates for seeds 0-39,
under "benchmark", and the plain commands of the CI ground-truth steps that
the benchmark does not run, under "ci".  Each runs once, in this one
process, as `grunits.cli.main(argv + ["--json", PATH])`, as the benchmark
runs it.  Its digest is its exit code and the sha256 of its report without
the `wall_clock_s` line (null when no report was written), of its stdout
and of its stderr.  GRS_DATA_DIR is dropped from the environment, so these
digests are of the shipped character table.  Under "table_faults", as
"FAULT: COMMAND", each command that reads the PSL(3,3) table runs with
GRS_DATA_DIR at a directory holding the table damaged by FAULT, for every
fault and command of tests/table_faults.py.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import sys
import tempfile
from pathlib import Path

import table_faults

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).with_name("report_digests.json")
SEEDS = range(40)

# the CI steps' plain commands (no GRS_DATA_DIR fault tables)
CI_COMMANDS = [
    ("construct", "psl2", "--p", "3", "--pattern", "1", "--verify"),
    ("construct", "psl2", "--p", "5", "--pattern", "1,2", "--verify"),
    ("construct", "psl2", "--p", "11", "--pattern", "1,2,3,5,9", "--verify"),
    ("construct", "psl2", "--p", "13", "--pattern", "1,2,3,4,5,9",
     "--verify"),
    ("construct", "psl33", "--verify"),
    ("help-scan", "--group", "psl2", "--p", "101"),
    ("patterns", "--p", "23"),
    ("oracle", "--group", "psl2", "--q", "25"),
    ("oracle", "--group", "psl2", "--q", "49"),
    ("oracle", "--group", "psl3"),
]

_WALL_CLOCK = re.compile(r',\n  "wall_clock_s": [^\n]*')


def benchmark_argvs() -> set[tuple[str, ...]]:
    """Every distinct argv the benchmark's workloads generate for SEEDS."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import run
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return {op.argv for seed in SEEDS for workload in run.WORKLOADS.values()
            for phase in workload(random.Random(seed)) for op in phase}


def _sha(text: str | None) -> str | None:
    return None if text is None else hashlib.sha256(text.encode()).hexdigest()


def digest(argv) -> dict:
    """Run one command in this process; its exit code and output digests."""
    from grunits import cli

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "r.json")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--json", path])
        try:
            with open(path, encoding="utf-8") as fh:
                report = _WALL_CLOCK.sub("", fh.read())
        except FileNotFoundError:
            report = None
    return {"exit": code, "report": _sha(report),
            "stdout": _sha(out.getvalue()), "stderr": _sha(err.getvalue())}


def fault_digest(fault: str, argv) -> dict:
    """`digest` with GRS_DATA_DIR at a directory holding the table that
    `fault` damages; GRS_DATA_DIR is dropped again after."""
    with tempfile.TemporaryDirectory() as tmp:
        os.environ["GRS_DATA_DIR"] = str(table_faults.write(fault, tmp))
        try:
            return digest(argv)
        finally:
            del os.environ["GRS_DATA_DIR"]


def load() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def compute() -> dict:
    bench = benchmark_argvs()
    groups = {"benchmark": sorted(bench),
              "ci": [argv for argv in CI_COMMANDS if argv not in bench]}
    digests = {group: {" ".join(argv): digest(argv) for argv in argvs}
               for group, argvs in groups.items()}
    digests["table_faults"] = {
        f"{fault}: {' '.join(argv)}": fault_digest(fault, argv)
        for fault in table_faults.EDITS for argv in table_faults.COMMANDS}
    return digests


def main(args: list[str]) -> int:
    if args not in ([], ["--write"]):
        sys.exit(__doc__)
    os.environ.pop("GRS_DATA_DIR", None)
    sys.path.insert(0, str(ROOT / "src"))
    old = load() if DIGESTS.exists() else {}
    new = compute()
    changed = [f"{group}: {command}"
               for group in sorted(new.keys() | old.keys())
               for command in sorted(new.get(group, {}).keys()
                                     | old.get(group, {}).keys())
               if new.get(group, {}).get(command)
               != old.get(group, {}).get(command)]
    print("\n".join(changed) if changed else "no digest changed")
    if args:
        with open(DIGESTS, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(new, indent=1, sort_keys=True) + "\n")
        return 0
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
