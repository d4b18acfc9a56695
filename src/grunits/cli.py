"""Command-line front end: exact analyses with deterministic JSON reports.

Each command returns its (params, result, ok); `main` times it, wraps the
three in the one report envelope {command, params, result, ok,
wall_clock_s} and emits it.  A bad argument that only a lower layer can
judge raises a plain `ValueError` there (no layer defines a subclass),
which the command turns into a usage error.  Every report field is exact
(integers or "a/b" strings); the only non-deterministic field is
wall_clock_s, which callers comparing reports should drop.  Exit codes:
0 all verdicts pass / enumeration completed, 1 a verdict failed (the
report and its witness are printed), an input table or an internal check
failed (`ValidationError`, or the `AssertionError` of a check such as the
field check or the patterns' square-table premise check: `validation
failure: MSG` on stderr and no report), or the reader closed stdout
before the report was written (`| head`; nothing is printed), 2 usage
error, missing data file or a --json PATH that cannot be written.

The grammar is declared once, in `_COMMANDS`: each subcommand's help text,
handler and options, as the keyword arguments of argparse's
`add_argument`.  `main` first tries `_parse_exact`, which reads the same
table and takes only the exact spelling: the command name, then its own
`--option VALUE` pairs and flags spelled in full (plus `construct`'s one
positional), each value through `int()` or its choices, every required
option present.  Anything else (`-h`, an abbreviation, `--opt=value`, a
value starting with `-`, an unknown or missing token) goes to
`build_parser().parse_args`, so argparse alone writes help and error
text, and a well-formed command never imports argparse.

Start-up: each command runs in a fresh interpreter, which compiles every
grunits module it imports when bytecode is not cached.  Importing this
module loads `chardata`, `finitefield`, `helpengine` and `patterns`, which
the 1-3 ms `help-scan`, `patterns` and `chartab` runs use.  The unit-group
layer (`constructions`, `matrices`) and the oracle load on the first call
of one of the seven names bound by `_on_first_call`, so only `construct`,
`oracle` and `invariants` compile them.  `json` and `fractions` stay
eager.  Every report goes through json's C string escaper (`_escape`) and
a failed verdict's witness line through `json.dumps`, and every table
holds `Fraction`s, so deferring them would only move their import into
each run; perfbench/child.py also imports both just after its start-up
mark, where a deferral would show as a start-up saving that no command
gets.

Reports are written by `_dumps`, byte for byte as `json.dumps(report,
indent=2, sort_keys=True)` would write them, but in one direct pass:
with `indent` set, json skips its C encoder for a pure-Python one.
"""

from __future__ import annotations

import json
import os
import sys
import time
from importlib import import_module
from types import SimpleNamespace
from typing import NoReturn

from .chardata import (
    TableSlice,
    ValidationError,
    mixed_value_decomposition,
    psl2_slice,
    psl33_slice,
    validate_orthogonality,
)
from .finitefield import check_odd_prime, square_lines
from .helpengine import feasible_distributions
from .patterns import gap_report, group_patterns


def _on_first_call(layer: str, name: str):
    """Stand-in for `name` in grunits.`layer` that imports the layer when it
    is first called.  It is bound in this module, where the handlers look it
    up, so tests and tracers can still replace it here."""
    def call(*args):
        return getattr(import_module(f"grunits.{layer}"), name)(*args)
    return call


build_psl2_units = _on_first_call("constructions", "build_psl2_units")
build_psl33_units = _on_first_call("constructions", "build_psl33_units")
verify_unit_group = _on_first_call("constructions", "verify_unit_group")
valenti_search = _on_first_call("constructions", "valenti_search")
cached_group = _on_first_call("oracle", "cached_group")
check_square_criterion = _on_first_call("oracle", "check_square_criterion")
enumerate_group = _on_first_call("oracle", "enumerate_group")


_escape = json.encoder.encode_basestring_ascii


def _dumps(obj, indent: str = "\n") -> str:
    """The text of `json.dumps(obj, indent=2, sort_keys=True)`, in one
    recursive pass: with `indent` set, json runs its pure-Python encoder.
    Takes what a report holds (dicts with str keys, lists, tuples, str,
    int, finite float, bool, None) and raises TypeError on anything else,
    a non-str key included (`_escape` refuses it), where json would turn
    the key into a string.  The str and int leaves of a container are
    encoded inline, which is most of the speed."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        return "{" + inner + ("," + inner).join([
            _escape(key) + ": " + (
                _escape(value) if type(value) is str else int.__repr__(value)
                if type(value) is int else _dumps(value, inner))
            for key, value in sorted(obj.items())]) + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        return "[" + inner + ("," + inner).join([
            _escape(value) if type(value) is str else int.__repr__(value)
            if type(value) is int else _dumps(value, inner)
            for value in obj]) + indent + "]"
    if isinstance(obj, str):
        return _escape(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj - obj != 0:  # inf or nan, which JSON cannot spell
            raise ValueError(f"report float {obj!r} is not finite")
        return float.__repr__(obj)
    raise TypeError(f"{type(obj).__name__} {obj!r} is not JSON serializable")


def _emit(report: dict, json_path: str | None) -> int:
    text = _dumps(report)
    if json_path is not None:
        try:
            with open(json_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            # a failed write or close names no file
            exc.filename = json_path
            raise
    print(f"[{report['command']}] ok={report['ok']}")
    if not report["ok"]:
        witnesses = report["result"].get("witnesses") or report["result"].get(
            "problems"
        )
        if witnesses:
            print("witness:", json.dumps(witnesses[:3]))
    if json_path is None:
        print(text)
    return 0 if report["ok"] else 1


def _usage_error(message: str) -> NoReturn:
    build_parser().error(message)


def _parse_pattern(text: str) -> set[int]:
    try:
        entries = [int(tok) for tok in text.split(",")]
    except ValueError:
        _usage_error(
            f"--pattern {text}: expected comma-separated integers")
    members: set[int] = set()
    for entry in entries:
        if entry in members:
            _usage_error(f"--pattern {text}: repeated entry {entry}")
        members.add(entry)
    return members


def _reject_unused(flag: str, value, scope="--group psl2") -> None:
    if value is not None:
        _usage_error(f"{flag} {value}: {flag} applies only to {scope}")


def _table(args) -> TableSlice:
    if args.group == "psl33":
        _reject_unused("--p", args.p)
        return psl33_slice()
    if args.p is None:
        _usage_error("--p is required with --group psl2")
    try:
        return psl2_slice(args.p)
    except ValueError as exc:
        _usage_error(f"--p {args.p}: {exc}")


def cmd_chartab(args):
    table = _table(args)
    ortho = validate_orthogonality(table)
    result = {"table": table.to_json(), "orthogonality": ortho}
    return {"group": args.group, "p": args.p}, result, ortho["ok"]


def cmd_help_scan(args):
    table = _table(args)
    if args.group == "psl33":
        p, n, support, expected = 3, 3, ("a", "b"), []
    else:
        p, n, support, expected = args.p, 2, ("c", "d"), [(args.p + 1) // 2]
    result = feasible_distributions(list(table.chars), p, n, support)
    result["expected_feasible"] = expected
    print("feasible x:", result["feasible"])
    return ({"group": args.group, "p": args.p}, result,
            result["feasible"] == expected)


def cmd_construct(args):
    if args.kind == "psl33":
        _reject_unused("--p", args.p, "construct psl2")
        _reject_unused("--pattern", args.pattern, "construct psl2")
        ug = build_psl33_units()
        params = {"kind": "psl33"}
    else:
        if args.p is None or args.pattern is None:
            _usage_error("construct psl2 requires --p and --pattern")
        members = _parse_pattern(args.pattern)
        from .constructions import MAX_PRIME  # the build loads it anyway
        try:
            check_odd_prime(args.p, MAX_PRIME)
        except ValueError as exc:
            _usage_error(f"--p {args.p}: {exc}")
        try:
            ug = build_psl2_units(args.p, members)
        except ValueError as exc:
            _usage_error(f"--pattern {args.pattern}: {exc}")
        params = {"kind": "psl2", "p": args.p, "pattern": sorted(members)}
    result = verify_unit_group(ug)
    if not result["ok"]:
        # the full result, in either mode, so that its problems are printed
        return params, result, False
    if not args.verify:
        # enumeration-only view: keep the elements, drop the verdict fields
        return params, {key: result[key]
                        for key in ("group", "order", "elements")}, True
    if args.kind == "psl2":
        result["valenti_witness"] = valenti_search(
            frozenset(result["trace_pattern"]), args.p)
    return params, result, True


def cmd_patterns(args):
    try:
        result = gap_report(args.p, args.list_missing)
    except ValueError as exc:
        _usage_error(f"--p {args.p}: {exc}")
    return {"p": args.p, "list_missing": args.list_missing}, result, True


def cmd_oracle(args):
    if args.group == "psl3":
        _reject_unused("--q", args.q)
        group = enumerate_group("psl3", 3)
    else:
        if args.q is None:
            _usage_error("--q is required with --group psl2")
        try:
            group = enumerate_group("psl2", args.q)
        except ValueError as exc:
            _usage_error(f"--q {args.q}: {exc}")
    result = {"group": group.name, "order": group.order}
    # each fact against its closed form; the power walks below look every
    # power up in the list, so they run only on a whole group
    ok = group.order == group.expected_order
    if ok:
        exponent = group.exponent()
        sizes = sorted(size for _rep, size in group.order_p_classes())
        result["exponent"] = exponent
        result["order_p_classes"] = [{"size": size} for size in sizes]
        ok = (exponent == group.expected_exponent
              and sizes == group.expected_class_sizes)
    # --refresh has no effect, but stays in params so reports keep their keys
    return ({"group": args.group, "q": args.q, "refresh": args.refresh},
            result, ok)


def _invariant_checks() -> list[dict]:
    checks = [
        (f"psl2 orthogonality p={p}",
         validate_orthogonality(psl2_slice(p))["ok"])
        for p in (3, 5, 7, 11, 13)
    ]
    psl33 = psl33_slice()
    sizes = {c.id: c.class_size for c in psl33.classes}
    checks += [
        ("psl33 orthogonality", validate_orthogonality(psl33)["ok"]),
        ("psl33 degree decomposition", mixed_value_decomposition(
            psl33, "a", "b", "chi12", "chi16a")),
        ("square lines p=7", square_lines(7) == (4, 4)),
        ("oracle |PSL(2,9)| = 360", cached_group("psl2", 9).order == 360),
        # I + E_12 and I + E_12 + E_23 walk the table's classes a and b
        ("oracle |PSL(3,3)| = 5616, classes a and b of the table",
         (psl3 := cached_group("psl3", 3)).order == 5616
         and len(psl3.conjugacy_class((12, 3, 1))) == sizes["a"]
         and len(psl3.conjugacy_class((12, 4, 1))) == sizes["b"]),
        ("square-class conjugacy criterion p=3", check_square_criterion(3)),
        ("pattern normalization p=11",
         len(group_patterns(11)) == (11 * 11 - 1) // 4),
        ("construct psl2 p=5 {1,2}",
         verify_unit_group(build_psl2_units(5, {1, 2}))["ok"]),
        ("construct psl33", verify_unit_group(build_psl33_units())["ok"]),
    ]
    return [{"check": name, "ok": bool(ok)} for name, ok in checks]


def cmd_invariants(args):
    verdicts = _invariant_checks()
    for v in verdicts:
        print(f"  {'PASS' if v['ok'] else 'FAIL'}  {v['check']}")
    return {}, {"checks": verdicts}, all(v["ok"] for v in verdicts)


_COMMON = {"--json": {"metavar": "PATH",
                      "help": "write the full JSON report to PATH"}}
_GROUP = {"choices": ["psl2", "psl33"], "required": True}
_INT = {"type": int}
_FLAG = {"action": "store_true"}

# command -> (help, handler, {option: keyword arguments of add_argument})
_COMMANDS = {
    "chartab": ("character-table slice", cmd_chartab,
                {**_COMMON, "--group": _GROUP, "--p": _INT}),
    "help-scan": ("HeLP feasibility scan", cmd_help_scan,
                  {**_COMMON, "--group": _GROUP, "--p": _INT}),
    "construct": ("build and verify unit subgroups", cmd_construct,
                  {**_COMMON, "kind": {"choices": ["psl2", "psl33"]},
                   "--p": _INT, "--pattern": {"metavar": "a,b,c"},
                   "--verify": _FLAG}),
    "patterns": ("balanced vs realizable patterns", cmd_patterns,
                 {**_COMMON, "--p": {**_INT, "required": True},
                  "--list-missing": _FLAG}),
    "oracle": ("brute-force group enumeration", cmd_oracle,
               {**_COMMON,
                "--group": {"choices": ["psl2", "psl3"], "required": True},
                "--q": _INT,
                "--refresh": {**_FLAG,
                              "help": "no effect; there is no cache"}}),
    "invariants": ("cross-module coherence gate", cmd_invariants, _COMMON),
}


def build_parser():
    """The argparse parser for `_COMMANDS`: help, usage errors and every
    argv that `_parse_exact` refuses."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="grunits",
        description="Exact analyses of p-subgroups of units in rational "
        "group algebras of PSL(2,p^2) and PSL(3,3).",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, (help_text, func, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for option, kwargs in options.items():
            command.add_argument(option, **kwargs)
        command.set_defaults(func=func)
    return parser


def _parse_exact(argv: list[str]) -> SimpleNamespace | None:
    """The namespace `build_parser().parse_args(argv)` returns, when argv
    is a command name followed by its own options spelled in full, each
    valued one with a value not starting with `-`; None for anything else,
    including every argv that argparse would reject."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _help, func, options = _COMMANDS[argv[0]]
    values = {option: False if "action" in kwargs else None
              for option, kwargs in options.items()}
    positionals = [option for option in options if option[0] != "-"]
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):
            option, kwargs = token, options.get(token)
            if kwargs is None:
                return None
            if "action" in kwargs:
                values[option] = True
                continue
            token = next(tokens, "-")  # a missing value fails as a dash does
            if token.startswith("-"):
                return None
        elif positionals:
            option = positionals.pop()
            kwargs = options[option]
        else:
            return None
        if "type" in kwargs:
            try:
                token = kwargs["type"](token)
            except ValueError:
                return None
        if "choices" in kwargs and token not in kwargs["choices"]:
            return None
        values[option] = token
    if positionals or any(kwargs.get("required") and values[option] is None
                          for option, kwargs in options.items()):
        return None
    return SimpleNamespace(cmd=argv[0], func=func, **{
        option.lstrip("-").replace("-", "_"): value
        for option, value in values.items()})


def _drop_stdout() -> None:
    # after a failed write the bytes stay buffered: point stdout at devnull
    # so that the flush at exit cannot raise again (the recipe in Python's
    # `signal` docs)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_exact(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        params, result, ok = args.func(args)
        wall_clock_s = round(time.monotonic() - t0, 3)
        code = _emit({"command": args.cmd, "params": params, "result": result,
                      "ok": ok, "wall_clock_s": wall_clock_s}, args.json)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # the reader is gone
        _drop_stdout()
        return 1
    except (ValidationError, AssertionError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # a missing input is named as such; --json PATH gets the OS reason,
        # and so does stdout, whose failed write or flush names no file
        if isinstance(exc, FileNotFoundError) and exc.filename != args.json:
            print(f"grunits: error: missing file {exc.filename}",
                  file=sys.stderr)
        elif exc.filename is None:
            _drop_stdout()
            print(f"grunits: error: stdout: {exc.strerror}", file=sys.stderr)
        else:
            print(f"grunits: error: {exc.filename}: {exc.strerror}",
                  file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
