import itertools
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest
import report_digests
import table_faults

import grunits
from grunits import constructions
from grunits.chardata import data_dir
from grunits.cli import _COMMANDS, _dumps, _parse_exact, build_parser, main
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


def test_construct_verify_evaluates_traces_once_per_use(tmp_path, monkeypatch):
    traces = constructions.UnitGroup.traces
    calls = []

    def counting(self, exps):
        calls.append(exps)
        return traces(self, exps)

    monkeypatch.setattr(constructions.UnitGroup, "traces", counting)
    assert main(["construct", "psl2", "--p", "7", "--pattern", "1,2,4",
                 "--verify", "--json", str(tmp_path / "r.json")]) == 0
    # one per non-identity element, shared by its solve and its report
    # entry; the class facts are read off the solves, not off the traces
    assert len(calls) == 48


@pytest.mark.parametrize("argv", [
    ["psl2", "--p", "3", "--pattern", "1"],
    ["psl2", "--p", "5", "--pattern", "1,2"],
    ["psl2", "--p", "7", "--pattern", "1,2,3"],
    ["psl2", "--p", "7", "--pattern", "1,2,4"],
    ["psl2", "--p", "11", "--pattern", "1,2,3,5,9"],
    ["psl2", "--p", "11", "--pattern", "1,2,3,4,5"],
    ["psl2", "--p", "13", "--pattern", "1,2,3,4,5,9"],
    ["psl2", "--p", "13", "--pattern", "1,2,3,4,5,6"],
    ["psl33"],
])
def test_construct_printed_fields_agree(tmp_path, argv):
    out = tmp_path / "r.json"
    assert main(["construct", *argv, "--verify", "--json", str(out)]) == 0
    result = _load(out)["result"]
    aug = {tuple(e["exponents"]): e["aug"] for e in result["elements"]}
    x, y = sorted(result["counts"].keys() - {"other"})
    on = {x: {x: "1", y: "0"}, y: {x: "0", y: "1"}}
    tally = dict.fromkeys(result["counts"], 0)
    for entry in aug.values():
        tally[next((cls for cls in on if entry == on[cls]), "other")] += 1
    assert tally == result["counts"]
    if argv[0] == "psl2":
        p = result["p"]
        assert result["trace_pattern"] == [
            j for j in range(1, p) if aug[(1, j)] == on[x]]
        assert (aug[(1, 0)], aug[(0, 1)]) == (on[x], on[y])


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
    damaged = table_faults.write("b-negated", tmp_path)
    out = tmp_path / "r.json"
    for data, code, count in [(damaged, 1, 8), (data_dir(), 0, 26)]:
        monkeypatch.setenv("GRS_DATA_DIR", str(data))
        for verify in ([], ["--verify"]):
            assert main(["construct", "psl33", *verify,
                         "--json", str(out)]) == code
            stdout = capsys.readouterr().out
            assert ("witness: " in stdout) == (code == 1)
            assert ("chi16a contradicts" in stdout) == (code == 1)
            assert len(_load(out)["result"]["elements"]) == count


def test_import_loads_neither_dataclasses_nor_inspect(tmp_path):
    # nor argparse, before or after a well-formed command: only help and
    # usage errors build the argparse parser
    src = os.path.dirname(os.path.dirname(os.path.abspath(grunits.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, grunits.cli\n"
         "def loaded():\n"
         "    print(sorted({'argparse', 'dataclasses', 'gettext', 'inspect',"
         " 'locale'} & set(sys.modules)))\n"
         "loaded(); grunits.cli.main(sys.argv[1:]); loaded()",
         "patterns", "--p", "3", "--json", str(tmp_path / "r.json")],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[patterns] ok=True", "[]"]


# argv (None: the import alone) -> the lazily loaded layers it leaves loaded
LAZY_LAYERS = {
    None: [],
    ("patterns", "--p", "3"): [],
    ("help-scan", "--group", "psl2", "--p", "3"): [],
    ("construct", "psl33"): ["constructions", "matrices"],
    ("oracle", "--group", "psl2", "--q", "9"): ["oracle"],
}


@pytest.mark.parametrize("argv", LAZY_LAYERS, ids=str)
def test_commands_load_only_the_layers_they_call(argv, tmp_path):
    # the unit-group layer and the oracle are compiled on first use, so the
    # commands that never call them do not pay for them at start-up
    run = [] if argv is None else [*argv, "--json", str(tmp_path / "r.json")]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, grunits.cli\n"
         "if sys.argv[1:]: grunits.cli.main(sys.argv[1:])\n"
         "print(sorted(name for name in ('constructions', 'cyclotomic', "
         "'matrices', 'oracle') if f'grunits.{name}' in sys.modules))", *run],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "HOME": str(tmp_path)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str(LAZY_LAYERS[argv])


def _argparse_vars(parser, argv):
    try:
        return vars(parser.parse_args(argv))
    except SystemExit:
        return "usage error"


def test_exact_parse_takes_every_benchmark_argv():
    # every command the benchmark generates must skip argparse, with the
    # --json PATH its child process appends and without it
    argvs = report_digests.benchmark_argvs()
    assert {argv[0] for argv in argvs} == set(_COMMANDS)
    parser = build_parser()
    for argv in map(list, argvs):
        for full in (argv, argv + ["--json", "r.json"]):
            args = _parse_exact(full)
            assert args is not None, full
            assert vars(args) == _argparse_vars(parser, full)


# what follows a command name: options of every command, abbreviations and
# --opt=value spellings (argparse takes them), help, "--", dash-led and
# empty values, bad integers and choices; the pairs let three items
# repeat an option
EXACT_PARSE_ALPHABET = [
    "psl2", "psl33", "psl3", "psl9", "7", " 7", "-9", "x7", "", "1,2,4",
    "--group", "--gr", "--group=psl2", "--p", "--pa", "--p=7",
    "--q", "--q=9", "--pattern", "--pat", "--verify", "--ver",
    "--list-missing", "--list_missing", "--list", "--refresh", "--ref",
    "--json", "--js", "--json=r.json", "-h", "--help", "--", "-", "--bogus",
    ("--p", "11"), ("--group", "psl33"), ("--q", "25"), ("--json", ""),
]


def test_exact_parse_agrees_with_argparse():
    parser = build_parser()
    assert _parse_exact([]) is None
    accepted = 0
    for command in _COMMANDS:
        for length in range(4):
            for items in itertools.product(EXACT_PARSE_ALPHABET,
                                           repeat=length):
                argv = [command]
                for item in items:
                    argv += [item] if isinstance(item, str) else item
                args = _parse_exact(argv)
                if args is not None:
                    accepted += 1
                    assert vars(args) == _argparse_vars(parser, argv), argv
    assert accepted > 300


def test_benchmark_tracer_finds_every_name_it_wraps():
    # perfbench/spans.py looks grunits names up by attribute, and only the
    # traced benchmark run installs it, so a deleted or renamed name would
    # otherwise fail nowhere else
    src = os.path.dirname(os.path.dirname(os.path.abspath(grunits.__file__)))
    root = os.path.dirname(src)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path[:0] = sys.argv[1:]; "
         "import spans, grunits.oracle; spans.install(spans.Tracer()); "
         "grunits.oracle.cache_dir()",
         os.path.join(root, "perfbench"), src],
        capture_output=True, text=True, timeout=60, cwd=root,
    )
    assert proc.returncode == 0, proc.stderr


# argv -> span and leaf counts of the layers loaded on first call, as
# perfbench/spans.py records them
TRACED_COUNTS = {
    ("construct", "psl33", "--verify"): {
        "constructions.build": 1, "constructions.verify": 1,
        "matrices.qmatrix_mul": 5, "partialaug.invert": 26},
    ("construct", "psl2", "--p", "7", "--pattern", "1,2,4", "--verify"): {
        "constructions.valenti": 1, "matrices.qmatrix_mul": 26,
        "partialaug.invert": 48},
    ("oracle", "--group", "psl2", "--q", "9"): {"oracle.enumerate_group": 1},
    ("invariants",): {
        "constructions.build": 2, "constructions.verify": 2,
        "matrices.qmatrix_mul": 23, "partialaug.invert": 50,
        "oracle.enumerate_group": 2, "oracle.square_criterion": 1,
        # 8 line representatives at p = 7; at p = 3, 4 to find a non-square
        # and 1 per nonzero lam
        "finitefield.is_square": 20},
}


@pytest.mark.parametrize("argv", TRACED_COUNTS, ids=" ".join)
def test_benchmark_tracer_sees_the_layers_loaded_on_first_call(argv, tmp_path):
    # the tracer wraps grunits.cli's names; a handler that imported the
    # layer's function itself would bypass the wrapper, and its spans would
    # silently vanish from the traced benchmark
    src = os.path.dirname(os.path.dirname(os.path.abspath(grunits.__file__)))
    root = os.path.dirname(src)
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys; "
         "sys.path[:0] = sys.argv[1:3]; import spans, grunits.cli; "
         "tracer = spans.Tracer(); spans.install(tracer); "
         "code = grunits.cli.main(sys.argv[3:]); "
         "print(json.dumps([code, tracer.counts]))",
         os.path.join(root, "perfbench"), src, *argv,
         "--json", str(tmp_path / "r.json")],
        capture_output=True, text=True, timeout=60, cwd=root,
        env={**os.environ, "HOME": str(tmp_path)},
    )
    assert proc.returncode == 0, proc.stderr
    code, counts = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    expected = TRACED_COUNTS[argv]
    assert {name: counts.get(name) for name in expected} == expected


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
            ("order_p_classes", lambda self: classes(self)[:1],
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
    assert report["params"] == {}
    checks = report["result"]["checks"]
    assert len(checks) == 14 and all(c["ok"] for c in checks)
    assert ("oracle |PSL(3,3)| = 5616, classes a and b of the table"
            in [c["check"] for c in checks])


REPORT_ARGVS = {
    "help-scan-psl2": ["help-scan", "--group", "psl2", "--p", "5"],
    "help-scan-psl33": ["help-scan", "--group", "psl33"],
    "chartab-psl2": ["chartab", "--group", "psl2", "--p", "13"],
    "chartab-psl33": ["chartab", "--group", "psl33"],
    "patterns-missing": ["patterns", "--p", "7", "--list-missing"],
    "construct-psl2-null": ["construct", "psl2", "--p", "7",
                            "--pattern", "1,2,4", "--verify"],
    "construct-psl2-elements": ["construct", "psl2", "--p", "7",
                                "--pattern", "1,2,4"],
    "construct-psl33": ["construct", "psl33", "--verify"],
    "oracle": ["oracle", "--group", "psl2", "--q", "9"],
    "invariants": ["invariants"],
    # exit 1: one element short of |PSL(2,9)|
    "oracle-fault": ["oracle", "--group", "psl2", "--q", "9"],
}
WALL_CLOCK = re.compile(r'^  "wall_clock_s": [0-9.e-]+,?$', re.M)


@pytest.mark.parametrize("name", REPORT_ARGVS)
def test_report_bytes(name, tmp_path, monkeypatch, capsys):
    argv = REPORT_ARGVS[name]
    if name == "oracle-fault":
        generate = PSL2.generate
        monkeypatch.setattr(PSL2, "generate", lambda self: generate(self)[1:])
    texts = []
    for run in "ab":
        out = tmp_path / f"{run}.json"
        code = main(argv + ["--json", str(out)])
        texts.append(out.read_text(encoding="utf-8"))
    assert code == (1 if name == "oracle-fault" else 0)
    capsys.readouterr()
    text = texts[0]
    # the bytes json itself writes for this report
    assert text == json.dumps(json.loads(text), indent=2,
                              sort_keys=True) + "\n"
    # two runs differ in the wall_clock_s line alone
    first, second = (t.splitlines() for t in texts)
    assert len(first) == len(second)
    assert all(WALL_CLOCK.match(line)
               for pair in zip(first, second) if pair[0] != pair[1]
               for line in pair)
    # without --json the same text ends stdout, after the summary line
    assert main(argv) == code
    summary = f"[{argv[0]}] ok={code == 0}\n"
    _head, found, tail = capsys.readouterr().out.partition(summary)
    assert found
    assert WALL_CLOCK.sub("", tail) == WALL_CLOCK.sub("", text)


@pytest.mark.parametrize("value", [
    {}, [], (), {"a": {}, "b": [], "c": [[], {}, ()]}, [[[]], {"x": {}}],
    None, True, False, [None, True, False], {"n": None, "t": True, "f": False},
    -1, 0, 2**64 + 1, -(2**70), [-5, 2**65, 0],
    0.0, 0.123, round(0.1 + 0.2, 3), round(-2 / 3, 3), [1.5, round(7.0, 3)],
    'say "hi"', "back\\slash", "tab\tnewline\ncr\rnul\x00us\x1fdel\x7f",
    "ζ₇ + μ ≠ 😀", {'q"uote': "\\", "é": "ü", "": ""},
    (1, "a", (None, [])), {"t": (2, (3,)), "l": [(), ("x",)]},
    {"b": 1, "a": {"d": [1, {"c": "2"}], "c": -3}},
])
def test_dumps_matches_json(value):
    assert _dumps(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [
    {1, 2}, Fraction(1, 2), {1: "a"}, {"a": [{2: 0}]}, [frozenset()],
    {True: 0}, {None: 0}, {(1, 2): 0}, b"bytes", 1j,
])
def test_dumps_refuses_what_a_report_never_holds(value):
    # json would write 1, True and None as keys "1", "true" and "null"
    with pytest.raises(TypeError):
        _dumps(value)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_dumps_refuses_a_non_finite_float(value):
    with pytest.raises(ValueError):
        _dumps({"x": [value]})


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
        (["construct", "psl2", "--p", "7", "--pattern", "1,2"],
         "--pattern 1,2: pattern must be a subset of 1..6 of size 3"),
        (["construct", "psl2", "--p", "5", "--pattern", "1,2,3"],
         "--pattern 1,2,3: pattern must be a subset of 1..4 of size 2"),
        (["construct", "psl2", "--p", "17", "--pattern", "1"],
         "--p 17: p capped at 13"),
        (["construct", "psl2", "--p", "9", "--pattern", "1,2,4,5"],
         "--p 9: p must be an odd prime"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
    for pattern, repeated in (("1,2,4,4", 4), ("1,1,2", 1)):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "psl2", "--p", "7", "--pattern", pattern])
        assert exc.value.code == 2
        assert (f"--pattern {pattern}: repeated entry {repeated}"
                in capsys.readouterr().err)
    # empty entries are errors, so ",,1" cannot pass as {1}
    for p, pattern in (("3", ",,1"), ("5", "1,,2"), ("5", "1,2,")):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "psl2", "--p", p, "--pattern", pattern])
        assert exc.value.code == 2
        assert (f"--pattern {pattern}: expected comma-separated integers"
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
    # a composite p below the cap reaches PSL2's primality test
    ["oracle", "--group", "psl2", "--q", "16"],
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
    # squares of 0, 1 and 2: the error names q, which the user gave
    ["oracle", "--group", "psl2", "--q", "0"],
    ["oracle", "--group", "psl2", "--q", "1"],
    ["oracle", "--group", "psl2", "--q", "2"],
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
    if argv[:4] == ["oracle", "--group", "psl2", "--q"]:
        q = argv[4]
        if q in ("121", str((2 ** 61 - 1) ** 2)):
            assert f"--q {q}: PSL(2,{q}) exceeds the enumeration cap" \
                in proc.stderr
        else:
            assert f"--q {q}: q = {q} is not the square of an odd prime" \
                in proc.stderr


def test_validation_failure_exit_code(tmp_path, monkeypatch):
    # a corrupted shipped table must surface as exit 1 via chartab
    monkeypatch.setenv("GRS_DATA_DIR",
                       str(table_faults.write("chi12-ab-swapped", tmp_path)))
    assert main(["chartab", "--group", "psl33"]) == 1


def _validation_failure(argv, edit, tmp_path):
    """Run `argv` in a subprocess on the table damaged by `edit`: it must
    exit 1 with a validation failure and no traceback."""
    proc = subprocess.run(
        [sys.executable, "-m", "grunits.cli", *argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "HOME": str(tmp_path),
             "GRS_DATA_DIR": str(table_faults.write(edit, tmp_path))},
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("validation failure: ")


@pytest.mark.parametrize("edit", table_faults.RENAMES)
@pytest.mark.parametrize("argv", [["construct", "psl33", "--verify"],
                                  ["invariants"]])
def test_table_without_separating_rows_is_a_validation_failure(
        argv, edit, tmp_path):
    # orthogonality still holds, so only the rows' lookup and the check
    # that they separate a and b can reject the table
    _validation_failure(argv, edit, tmp_path)


@pytest.mark.parametrize("damage", table_faults.LOAD_ERRORS)
@pytest.mark.parametrize("argv", [["chartab", "--group", "psl33"],
                                  ["help-scan", "--group", "psl33"],
                                  ["construct", "psl33", "--verify"],
                                  ["invariants"]],
                         ids=["chartab", "help-scan", "construct", "invariants"])
def test_damaged_table_is_a_validation_failure(argv, damage, tmp_path):
    _validation_failure(argv, damage, tmp_path)


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
    # an empty path is a path that cannot be opened, not "no --json"
    assert main(["chartab", "--group", "psl33", "--json", ""]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "grunits: error: : No such file or directory\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_failed_json_write_names_the_path(capsys):
    # open succeeds and the write fails at close, where the OS error carries
    # no file name
    assert main(["patterns", "--p", "7", "--json", "/dev/full"]) == 2
    assert capsys.readouterr().err == (
        "grunits: error: /dev/full: No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("with_json", [False, True])
def test_failed_stdout_write_names_stdout(tmp_path, with_json, unbuffered):
    # the write or final flush of stdout fails with an error that names no
    # file; the --json report, written before it, is complete and not to
    # blame.  Buffered, the failed bytes stay in the buffer, and the flush
    # at exit must not fail on them again.
    out = tmp_path / "r.json"
    argv = ["patterns", "--p", "7"]
    if with_json:
        argv += ["--json", str(out)]
    src = os.path.dirname(os.path.dirname(os.path.abspath(grunits.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "grunits.cli", *argv], stdout=full,
            stderr=subprocess.PIPE, text=True, timeout=60,
            env={**env, "PYTHONPATH": src},
        )
    assert proc.returncode == 2
    assert proc.stderr == "grunits: error: stdout: No space left on device\n"
    if with_json:
        assert _load(out)["ok"] is True


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
