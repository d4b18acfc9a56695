import json
import os
import re
import subprocess
import sys

import pytest
from conftest import PSL33_DAMAGES

import grunits
from grunits import constructions
from grunits.chardata import data_dir
from grunits.cli import main
from grunits.oracle import PSL2


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


def test_construct_without_verify_reports_a_failed_verdict(
        tmp_path, monkeypatch, capsys):
    # the b column negated keeps every column orthogonal, but chi16a then
    # contradicts the (eps_a, eps_b) that chi12 gives, with or without --verify
    with open(os.path.join(data_dir(), "psl33.tbl"), encoding="utf-8") as fh:
        text = fh.read()
    (tmp_path / "psl33.tbl").write_text(re.sub(
        r"^(char .*) (\S+)$", lambda m: f"{m[1]} {-int(m[2])}", text,
        flags=re.M))
    out = tmp_path / "r.json"
    for data, code, count in [(tmp_path, 1, 8), (data_dir(), 0, 26)]:
        monkeypatch.setenv("GRS_DATA_DIR", str(data))
        for verify in ([], ["--verify"]):
            assert main(["construct", "psl33", *verify,
                         "--json", str(out)]) == code
            stdout = capsys.readouterr().out
            assert ("witness: " in stdout) == (code == 1)
            assert ("chi16a contradicts" in stdout) == (code == 1)
            assert len(_load(out)["result"]["elements"]) == count


def test_import_loads_neither_dataclasses_nor_inspect():
    src = os.path.dirname(os.path.dirname(os.path.abspath(grunits.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, grunits.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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


def test_oracle_refresh_changes_only_its_param(tmp_path):
    plain, refreshed = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["oracle", "--group", "psl2", "--q", "9"]
    assert main(argv + ["--json", str(plain)]) == 0
    assert main(argv + ["--refresh", "--json", str(refreshed)]) == 0
    ra, rb = _load(plain), _load(refreshed)
    ra.pop("wall_clock_s"), rb.pop("wall_clock_s")
    assert (ra["params"]["refresh"], rb["params"]["refresh"]) == (False, True)
    rb["params"]["refresh"] = False
    assert ra == rb


def test_oracle_verdict_is_the_closed_form_order(tmp_path, monkeypatch,
                                                 capsys):
    argv = ["oracle", "--group", "psl2", "--q", "9"]
    out = tmp_path / "r.json"
    # one element short of q(q^2-1)/2: the count identity must fail
    generate = PSL2.generate
    with monkeypatch.context() as m:
        m.setattr(PSL2, "generate", lambda self: generate(self)[1:])
        assert main(argv + ["--json", str(out)]) == 1
    report = _load(out)
    assert report["ok"] is False
    assert report["result"] == {"group": "PSL(2,9)", "order": 359}
    assert "[oracle] ok=False" in capsys.readouterr().out
    # a whole group whose exponent, or list of order-p classes, misses its
    # closed form lcm(p, (q-1)/2, (q+1)/2) = 60 or [40, 40]
    classes = PSL2.order_p_classes
    for name, fault, shown in [
            ("exponent", lambda self: 30, 30),
            ("order_p_classes", lambda self, p: classes(self, p)[:1],
             [{"size": 40}])]:
        with monkeypatch.context() as m:
            m.setattr(PSL2, name, fault)
            assert main(argv + ["--json", str(out)]) == 1
        report = _load(out)
        assert report["ok"] is False
        assert report["result"][name] == shown


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


def test_usage_errors(capsys):
    missing = "--p is required with --group psl2"
    capped = "--p 103: p capped at 101"
    for argv, message in [
        (["help-scan", "--group", "psl2"], missing),
        (["chartab", "--group", "psl2"], missing),
        (["help-scan", "--group", "psl2", "--p", "103"], capped),
        (["chartab", "--group", "psl2", "--p", "103"], capped),
        # p = 17 has C(16,8) = 12870 balanced patterns, above the 4096 listed
        (["patterns", "--p", "17", "--list-missing"],
         "--p 17: --list-missing lists at most 4096 balanced patterns"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["construct", "psl2", "--p", "7", "--pattern", "1,2"])
    assert exc.value.code == 2
    for pattern, repeated in (("1,2,4,4", 4), ("1,1,2", 1)):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "psl2", "--p", "7", "--pattern", pattern])
        assert exc.value.code == 2
        assert (f"bad --pattern '{pattern}': repeated entry {repeated}"
                in capsys.readouterr().err)
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
    ["oracle", "--group", "psl3", "--q", "9"],
    ["help-scan", "--group", "psl33", "--p", "7"],
    ["chartab", "--group", "psl33", "--p", "5"],
    ["oracle", "--group", "psl2", "--q", "4"],
    ["construct", "psl33", "--p", "5", "--pattern", "1,2"],
    ["oracle", "--group", "psl2", "--q", "-9"],
    ["patterns", "--p", "29"],
    ["chartab", "--group", "psl2", "--p", "103"],
    ["help-scan", "--group", "psl2", "--p", "103"],
    # a prime far above every cap: the caps are tested before primality,
    # which trial division would not settle in reasonable time
    ["help-scan", "--group", "psl2", "--p", str(2 ** 61 - 1)],
    ["chartab", "--group", "psl2", "--p", str(2 ** 61 - 1)],
    ["construct", "psl2", "--p", str(2 ** 61 - 1), "--pattern", "1"],
    ["oracle", "--group", "psl2", "--q", str((2 ** 61 - 1) ** 2)],
    ["patterns", "--p", str(2 ** 61 - 1), "--list-missing"],
])
def test_bad_prime_is_usage_error(argv, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "grunits.cli", *argv],
        capture_output=True, text=True, timeout=60,
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


@pytest.mark.parametrize("edit", ["renamed-row", "swapped-names"])
@pytest.mark.parametrize("argv", [["construct", "psl33", "--verify"],
                                  ["invariants"]])
def test_table_without_separating_rows_is_a_validation_failure(
        argv, edit, renamed_psl33, tmp_path):
    # orthogonality still holds, so only the rows' lookup and the check
    # that they separate a and b can reject the table
    proc = subprocess.run(
        [sys.executable, "-m", "grunits.cli", *argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "HOME": str(tmp_path),
             "GRS_DATA_DIR": str(renamed_psl33(edit))},
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("validation failure: ")


@pytest.mark.parametrize("damage", PSL33_DAMAGES)
@pytest.mark.parametrize("argv", [["chartab", "--group", "psl33"],
                                  ["help-scan", "--group", "psl33"],
                                  ["construct", "psl33", "--verify"],
                                  ["invariants"]],
                         ids=["chartab", "help-scan", "construct", "invariants"])
def test_damaged_table_is_a_validation_failure(argv, damage, damaged_psl33,
                                               tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "grunits.cli", *argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "HOME": str(tmp_path),
             "GRS_DATA_DIR": str(damaged_psl33(damage))},
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("validation failure: ")


@pytest.mark.parametrize("argv", [
    ["chartab", "--group", "psl2", "--p", "5"],
    ["help-scan", "--group", "psl2", "--p", "5"],
    ["construct", "psl2", "--p", "5", "--pattern", "1,2"],
    ["patterns", "--p", "5"],
    ["oracle", "--group", "psl2", "--q", "9"],
    ["invariants"],
], ids=lambda argv: argv[0])
def test_report_envelope(argv, tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(argv + ["--json", str(out)])
    report = _load(out)
    assert set(report) == {"command", "params", "result", "ok",
                           "wall_clock_s"}
    assert report["command"] == argv[0]
    assert isinstance(report["ok"], bool)
    assert code == (0 if report["ok"] else 1)
    # help-scan and invariants print their own lines before the verdict line
    lines = capsys.readouterr().out.splitlines()
    assert f"[{argv[0]}] ok={report['ok']}" in lines


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


# the oracle with and without --refresh, and invariants, which lists two groups
HOME_ARGVS = [["oracle", "--group", "psl2", "--q", "9"],
              ["oracle", "--group", "psl2", "--q", "9", "--refresh"],
              ["oracle", "--group", "psl3"],
              ["invariants"]]


@pytest.mark.parametrize("home", ["empty-dir", "regular-file"])
@pytest.mark.parametrize("argv", HOME_ARGVS,
                         ids=["q9", "q9-refresh", "psl3", "invariants"])
def test_commands_leave_home_alone(argv, home, tmp_path):
    # no command reads or writes under HOME, so neither an empty HOME nor a
    # HOME that is a regular file changes anything
    path = tmp_path / "home"
    if home == "empty-dir":
        path.mkdir()
    else:
        path.write_text("")
    env = {k: v for k, v in os.environ.items() if k != "GRS_DATA_DIR"}
    env["HOME"] = str(path)
    proc = subprocess.run([sys.executable, "-m", "grunits.cli", *argv],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    if home == "empty-dir":
        assert list(path.iterdir()) == []
    else:
        assert path.read_text() == ""


def test_unusable_json_path_is_an_error(tmp_path, capsys):
    # a directory cannot be opened for writing: exit 2 with the path
    assert main(["patterns", "--p", "7", "--json", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"grunits: error: {tmp_path}: ")
    # nor can a file in a directory that does not exist; that is not a
    # missing input, so it gets the OS reason, not "missing file"
    missing = tmp_path / "no" / "such" / "r.json"
    assert main(["construct", "psl2", "--p", "5", "--pattern", "1,2",
                 "--json", str(missing)]) == 2
    assert capsys.readouterr().err == (
        f"grunits: error: {missing}: No such file or directory\n")


@pytest.mark.parametrize("buffering", [1, -1])
def test_closed_stdout_exits_quietly(buffering, monkeypatch, capsys):
    # a reader that closes early (`| head`): the write raises
    # BrokenPipeError in print when line-buffered, else in the final flush
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    with os.fdopen(write_fd, "w", buffering=buffering) as closed:
        monkeypatch.setattr(sys, "stdout", closed)
        assert main(["patterns", "--p", "7"]) == 1
        monkeypatch.undo()
        closed.flush()  # stdout now points at devnull, so exit flushes cleanly
    assert capsys.readouterr().err == ""
