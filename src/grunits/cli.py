"""Command-line front end: exact analyses with deterministic JSON reports.

Every report field is exact (integers or "a/b" strings); the only
non-deterministic field is wall_clock_s, which callers comparing reports
should drop.  Exit codes: 0 all verdicts pass / enumeration completed,
1 a validation failed (the witness is printed), or the reader closed
stdout before the report was written (`| head`; nothing is printed),
2 usage error, missing data file or a --json PATH that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from math import isqrt

from .chardata import (
    ParseError,
    TableSlice,
    ValidationError,
    mixed_value_decomposition,
    psl2_slice,
    psl33_slice,
    validate_orthogonality,
)
from .constructions import (
    BadPattern,
    build_psl2_units,
    build_psl33_units,
    valenti_search,
    verify_unit_group,
)
from .finitefield import NotPrime, square_lines
from .helpengine import feasible_distributions
from .oracle import (TooLarge, cached_group, check_square_criterion,
                     enumerate_group)
from .patterns import gap_report, group_patterns


def _run_report(command: str, params: dict, result: dict, ok: bool,
                t0: float) -> dict:
    return {
        "command": command,
        "params": params,
        "result": result,
        "ok": ok,
        "wall_clock_s": round(time.monotonic() - t0, 3),
    }


def _emit(report: dict, json_path: str | None) -> int:
    text = json.dumps(report, indent=2, sort_keys=True)
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(f"[{report['command']}] ok={report['ok']}")
    if not report["ok"]:
        witnesses = report["result"].get("witnesses") or report["result"].get(
            "problems"
        )
        if witnesses:
            print("witness:", json.dumps(witnesses[:3]))
    if not json_path:
        print(text)
    return 0 if report["ok"] else 1


def _parse_pattern(text: str, parser) -> set[int]:
    try:
        entries = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        parser.error(f"bad --pattern {text!r}: expected comma-separated integers")
    members: set[int] = set()
    for entry in entries:
        if entry in members:
            parser.error(f"bad --pattern {text!r}: repeated entry {entry}")
        members.add(entry)
    return members


def _psl2_table(p: int | None, parser) -> TableSlice:
    if p is None:
        parser.error("--p is required with --group psl2")
    try:
        return psl2_slice(p)
    except ValueError as exc:
        parser.error(f"--p {p}: {exc}")


def _reject_unused(flag: str, value, parser, scope="--group psl2") -> None:
    if value is not None:
        parser.error(f"{flag} {value}: {flag} applies only to {scope}")


def cmd_chartab(args, parser) -> int:
    t0 = time.monotonic()
    if args.group == "psl33":
        _reject_unused("--p", args.p, parser)
        table = psl33_slice()
    else:
        table = _psl2_table(args.p, parser)
    ortho = validate_orthogonality(table)
    result = {"table": table.to_json(), "orthogonality": ortho}
    report = _run_report(
        "chartab", {"group": args.group, "p": args.p}, result, ortho["ok"], t0
    )
    return _emit(report, args.json)


def cmd_help_scan(args, parser) -> int:
    t0 = time.monotonic()
    if args.group == "psl33":
        _reject_unused("--p", args.p, parser)
        table = psl33_slice()
        result = feasible_distributions(list(table.chars), 3, 3, ("a", "b"))
        expected: list[int] = []
    else:
        table = _psl2_table(args.p, parser)
        result = feasible_distributions(list(table.chars), args.p, 2,
                                        ("c", "d"))
        expected = [(args.p + 1) // 2]
    result["expected_feasible"] = expected
    ok = result["feasible"] == expected
    print("feasible x:", result["feasible"])
    report = _run_report(
        "help-scan", {"group": args.group, "p": args.p}, result, ok, t0
    )
    return _emit(report, args.json)


def cmd_construct(args, parser) -> int:
    t0 = time.monotonic()
    if args.kind == "psl33":
        _reject_unused("--p", args.p, parser, "construct psl2")
        _reject_unused("--pattern", args.pattern, parser, "construct psl2")
        ug = build_psl33_units()
        params = {"kind": "psl33"}
    else:
        if args.p is None or args.pattern is None:
            parser.error("construct psl2 requires --p and --pattern")
        members = _parse_pattern(args.pattern, parser)
        try:
            ug = build_psl2_units(args.p, members)
        except (BadPattern, ValueError) as exc:
            parser.error(str(exc))
        params = {"kind": "psl2", "p": args.p, "pattern": sorted(members)}
    result = verify_unit_group(ug)
    if not args.verify:
        # enumeration-only view: keep the elements, drop the verdict fields
        result = {
            "group": result["group"],
            "order": result["order"],
            "elements": result["elements"],
        }
        ok = True
    else:
        ok = result["ok"]
        if args.kind == "psl2":
            result["valenti_witness"] = valenti_search(
                frozenset(result["trace_pattern"]), args.p)
    report = _run_report("construct", params, result, ok, t0)
    return _emit(report, args.json)


def cmd_patterns(args, parser) -> int:
    t0 = time.monotonic()
    try:
        result = gap_report(args.p)
    except (NotPrime, ValueError) as exc:
        parser.error(f"--p {args.p}: {exc}")
    if not args.list_missing:
        result.pop("missing", None)
    report = _run_report(
        "patterns", {"p": args.p, "list_missing": args.list_missing},
        result, True, t0,
    )
    return _emit(report, args.json)


def cmd_oracle(args, parser) -> int:
    t0 = time.monotonic()
    if args.group == "psl3":
        _reject_unused("--q", args.q, parser)
        group = enumerate_group("psl3", 3)
        p = 3
    else:
        if args.q is None:
            parser.error("--q is required with --group psl2")
        try:
            group = enumerate_group("psl2", args.q)
        except (ValueError, TooLarge) as exc:
            parser.error(f"--q {args.q}: {exc}")
        p = isqrt(args.q)
    result = {"group": group.name, "order": group.order}
    # the closed form q(q^2-1)/2 or 5616; the power walks below look every
    # power up in the list, so they run only on a whole group
    ok = group.order == group.expected_order
    if ok:
        classes = group.order_p_classes(p)
        result["exponent"] = group.exponent()
        result["order_p_classes"] = [
            {"size": size} for _rep, size in sorted(classes, key=lambda c: c[1])
        ]
    # --refresh has no effect, but stays in params so reports keep their keys
    report = _run_report(
        "oracle", {"group": args.group, "q": args.q, "refresh": args.refresh},
        result, ok, t0,
    )
    return _emit(report, args.json)


def _invariant_checks() -> list[dict]:
    checks = [
        (f"psl2 orthogonality p={p}",
         validate_orthogonality(psl2_slice(p))["ok"])
        for p in (3, 5, 7, 11, 13)
    ]
    checks += [
        ("psl33 orthogonality", validate_orthogonality(psl33_slice())["ok"]),
        ("psl33 degree decomposition", mixed_value_decomposition(
            psl33_slice(), "a", "b", "chi12", "chi16a")["ok"]),
        ("square lines p=7", square_lines(7) == (4, 4)),
        ("oracle |PSL(2,9)| = 360", cached_group("psl2", 9).order == 360),
        ("oracle |PSL(3,3)| = 5616", cached_group("psl3", 3).order == 5616),
        ("square-class conjugacy criterion p=3", check_square_criterion(3)),
        ("pattern normalization p=11",
         len(group_patterns(11)) == (11 * 11 - 1) // 4),
        ("construct psl2 p=5 {1,2}",
         verify_unit_group(build_psl2_units(5, {1, 2}))["ok"]),
        ("construct psl33", verify_unit_group(build_psl33_units())["ok"]),
    ]
    return [{"check": name, "ok": bool(ok)} for name, ok in checks]


def cmd_invariants(args, parser) -> int:
    t0 = time.monotonic()
    verdicts = _invariant_checks()
    ok = all(v["ok"] for v in verdicts)
    for v in verdicts:
        print(f"  {'PASS' if v['ok'] else 'FAIL'}  {v['check']}")
    report = _run_report(
        "invariants", {}, {"checks": verdicts}, ok, t0
    )
    return _emit(report, args.json)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", metavar="PATH",
                        help="write the full JSON report to PATH")
    parser = argparse.ArgumentParser(
        prog="grunits",
        description="Exact analyses of p-subgroups of units in rational "
        "group algebras of PSL(2,p^2) and PSL(3,3).",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add(*a, **kw):
        return sub.add_parser(*a, parents=[common], **kw)

    p_chartab = add("chartab", help="character-table slice")
    p_chartab.add_argument("--group", choices=["psl2", "psl33"], required=True)
    p_chartab.add_argument("--p", type=int, default=None)
    p_chartab.set_defaults(func=cmd_chartab)

    p_scan = add("help-scan", help="HeLP feasibility scan")
    p_scan.add_argument("--group", choices=["psl2", "psl33"], required=True)
    p_scan.add_argument("--p", type=int, default=None)
    p_scan.set_defaults(func=cmd_help_scan)

    p_con = add("construct", help="build and verify unit subgroups")
    p_con.add_argument("kind", choices=["psl2", "psl33"])
    p_con.add_argument("--p", type=int, default=None)
    p_con.add_argument("--pattern", metavar="a,b,c", default=None)
    p_con.add_argument("--verify", action="store_true")
    p_con.set_defaults(func=cmd_construct)

    p_pat = add("patterns", help="balanced vs realizable patterns")
    p_pat.add_argument("--p", type=int, required=True)
    p_pat.add_argument("--list-missing", action="store_true")
    p_pat.set_defaults(func=cmd_patterns)

    p_or = add("oracle", help="brute-force group enumeration")
    p_or.add_argument("--group", choices=["psl2", "psl3"], required=True)
    p_or.add_argument("--q", type=int, default=None)
    p_or.add_argument("--refresh", action="store_true",
                      help="no effect; there is no cache")
    p_or.set_defaults(func=cmd_oracle)

    p_inv = add("invariants", help="cross-module coherence gate")
    p_inv.set_defaults(func=cmd_invariants)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args, parser)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so that the flush at
        # exit cannot raise again (the recipe in Python's `signal` docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValidationError, ParseError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # a missing input is named as such; --json PATH gets the OS reason
        if isinstance(exc, FileNotFoundError) and exc.filename != args.json:
            print(f"grunits: error: missing file {exc.filename}",
                  file=sys.stderr)
        else:
            print(f"grunits: error: {exc.filename}: {exc.strerror}",
                  file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
