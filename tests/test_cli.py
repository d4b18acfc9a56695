import json
import os
import subprocess
import sys

import pytest

from grunits import constructions
from grunits.cli import main


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_help_scan_psl2(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["help-scan", "--group", "psl2", "--p", "7",
                 "--json", str(out)]) == 0
    report = _load(out)
    assert report["result"]["feasible"] == [4]
    assert "feasible x: [4]" in capsys.readouterr().out


def test_help_scan_psl33(tmp_path):
    out = tmp_path / "r.json"
    assert main(["help-scan", "--group", "psl33", "--json", str(out)]) == 0
    assert _load(out)["result"]["feasible"] == []


def test_chartab(tmp_path):
    out = tmp_path / "r.json"
    assert main(["chartab", "--group", "psl33", "--json", str(out)]) == 0
    report = _load(out)
    assert report["result"]["orthogonality"]["ok"]
    assert main(["chartab", "--group", "psl2", "--p", "5",
                 "--json", str(out)]) == 0


def test_construct_psl2_verify(tmp_path):
    out = tmp_path / "r.json"
    assert main(["construct", "psl2", "--p", "7", "--pattern", "1,2,4",
                 "--verify", "--json", str(out)]) == 0
    report = _load(out)
    assert report["result"]["valenti_witness"] is None
    assert report["result"]["trace_pattern"] == [1, 2, 4]


def test_construct_verify_solves_each_element_once(tmp_path, monkeypatch):
    invert_profile = constructions.invert_profile
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return invert_profile(*args, **kwargs)

    monkeypatch.setattr(constructions, "invert_profile", counting)
    assert main(["construct", "psl2", "--p", "7", "--pattern", "1,2,4",
                 "--verify", "--json", str(tmp_path / "r.json")]) == 0
    # one solve per non-identity element of the order-49 group
    assert len(calls) == 48


def test_construct_psl33_verify(tmp_path):
    out = tmp_path / "r.json"
    assert main(["construct", "psl33", "--verify", "--json", str(out)]) == 0
    report = _load(out)
    by_exp = {tuple(e["exponents"]): e for e in report["result"]["elements"]}
    assert by_exp[(1, 0, 0)]["aug"] == {"a": "3", "b": "-2"}


def test_patterns(tmp_path):
    out = tmp_path / "r.json"
    assert main(["patterns", "--p", "7", "--list-missing",
                 "--json", str(out)]) == 0
    report = _load(out)
    assert [1, 2, 4] in report["result"]["missing"]
    assert main(["patterns", "--p", "11", "--json", str(out)]) == 0
    assert _load(out)["result"]["counting_gap"]


def test_oracle(tmp_path):
    out = tmp_path / "r.json"
    assert main(["oracle", "--group", "psl2", "--q", "9",
                 "--json", str(out)]) == 0
    report = _load(out)
    assert report["result"]["order"] == 360
    assert report["result"]["order_p_classes"] == [{"size": 40}, {"size": 40}]


def test_invariants_gate(tmp_path):
    out = tmp_path / "r.json"
    assert main(["invariants", "--json", str(out)]) == 0
    report = _load(out)
    assert all(c["ok"] for c in report["result"]["checks"])


def test_json_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["help-scan", "--group", "psl2", "--p", "5", "--json", str(a)])
    main(["help-scan", "--group", "psl2", "--p", "5", "--json", str(b)])
    ra, rb = _load(a), _load(b)
    ra.pop("wall_clock_s"), rb.pop("wall_clock_s")
    assert ra == rb


def test_invariants_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["invariants", "--json", str(a)])
    main(["invariants", "--json", str(b)])
    ra, rb = _load(a), _load(b)
    ra.pop("wall_clock_s"), rb.pop("wall_clock_s")
    assert ra["params"] == {}
    assert ra == rb


def test_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["help-scan", "--group", "psl2"])  # missing --p
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["construct", "psl2", "--p", "7", "--pattern", "1,2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["help-scan", "--group", "psl2", "--p", "9"],
    ["help-scan", "--group", "psl2", "--p", "2"],
    ["chartab", "--group", "psl2", "--p", "15"],
    ["patterns", "--p", "9"],
    ["patterns", "--p", "2"],
    ["construct", "psl2", "--p", "9", "--pattern", "1,2,4,5"],
    ["oracle", "--group", "psl2", "--q", "8"],
    ["oracle", "--group", "psl2", "--q", "121"],
])
def test_bad_prime_is_usage_error(argv, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "grunits.cli", *argv],
        capture_output=True, text=True,
        env={**os.environ, "HOME": str(tmp_path)},
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr


def test_validation_failure_exit_code(tmp_path, monkeypatch):
    # a corrupted shipped table must surface as exit 1 via chartab
    import shutil
    from grunits.chardata import data_dir
    src = data_dir()
    bad = tmp_path / "psl33.tbl"
    text = open(f"{src}/psl33.tbl", encoding="utf-8").read()
    bad.write_text(text.replace("chi12 12 12 3 0", "chi12 12 12 0 3"))
    monkeypatch.setenv("GRS_DATA_DIR", str(tmp_path))
    assert main(["chartab", "--group", "psl33"]) == 1


def test_missing_table_is_an_error_not_a_traceback(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "grunits.cli", "chartab", "--group", "psl33"],
        capture_output=True, text=True,
        env={**os.environ, "HOME": str(tmp_path),
             "GRS_DATA_DIR": str(tmp_path)},
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    missing = tmp_path / "psl33.tbl"
    assert proc.stderr.strip() == f"grunits: error: missing file {missing}"
