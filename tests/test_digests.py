"""The golden report digests cover every benchmark command and every table
fault, and a few cheap commands still match theirs;
`python3 tests/report_digests.py` checks all."""

import os

import pytest

import report_digests
import table_faults


def test_digests_cover_exactly_the_benchmark_argvs():
    # a command the benchmark starts running cannot go undigested
    recorded = report_digests.load()["benchmark"]
    assert set(recorded) == {" ".join(argv)
                             for argv in report_digests.benchmark_argvs()}


@pytest.mark.parametrize("command", [
    "help-scan --group psl2 --p 7",
    "patterns --p 7 --list-missing",
    "chartab --group psl2 --p 13",
    "oracle --group psl2 --q 9",
])
def test_cheap_commands_match_their_digests(command, fresh_fields,
                                            monkeypatch):
    monkeypatch.delenv("GRS_DATA_DIR", raising=False)
    recorded = report_digests.load()["benchmark"][command]
    assert report_digests.digest(command.split()) == recorded


def test_digests_cover_every_table_fault_and_command():
    recorded = report_digests.load()["table_faults"]
    assert set(recorded) == {
        f"{fault}: {' '.join(argv)}" for fault in table_faults.EDITS
        for argv in table_faults.COMMANDS}


def test_a_table_fault_matches_its_digest(monkeypatch):
    monkeypatch.delenv("GRS_DATA_DIR", raising=False)
    command = "chartab --group psl33"
    recorded = report_digests.load()["table_faults"][f"b-negated: {command}"]
    assert report_digests.fault_digest("b-negated", command.split()) \
        == recorded
    assert "GRS_DATA_DIR" not in os.environ
