"""Command-line front end: exact analyses with deterministic JSON reports.

Each command returns its (params, result, ok); `main` times it, wraps the
three in the one report envelope {command, params, result, ok,
wall_clock_s} and emits it.  A bad argument that only a lower layer can
judge raises a plain `ValueError` there (no layer defines a subclass),
which the command turns into a usage error.  Every report field is exact
(integers or "a/b" strings); the only non-deterministic field is
wall_clock_s, which callers comparing reports should drop.  Exit codes:
0 all verdicts pass / enumeration completed, 1 a validation failed (the
witness is printed), or the reader closed stdout before the report was
written (`| head`; nothing is printed), 2 usage error, missing data file
or a --json PATH that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .chardata import (
    TableSlice,
    ValidationError,
    mixed_value_decomposition,
    psl2_slice,
    psl33_slice,
    validate_orthogonality,
)
from .constructions import (
    build_psl2_units,
    build_psl33_units,
    valenti_search,
    verify_unit_group,
)
from .finitefield import square_lines
from .helpengine import feasible_distributions
from .oracle import cached_group, check_square_criterion, enumerate_group
from .patterns import gap_report, group_patterns


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


def _reject_unused(flag: str, value, parser, scope="--group psl2") -> None:
    if value is not None:
        parser.error(f"{flag} {value}: {flag} applies only to {scope}")


def _table(args, parser) -> TableSlice:
    if args.group == "psl33":
        _reject_unused("--p", args.p, parser)
        return psl33_slice()
    if args.p is None:
        parser.error("--p is required with --group psl2")
    try:
        return psl2_slice(args.p)
    except ValueError as exc:
        parser.error(f"--p {args.p}: {exc}")


def cmd_chartab(args, parser):
    table = _table(args, parser)
    ortho = validate_orthogonality(table)
    result = {"table": table.to_json(), "orthogonality": ortho}
    return {"group": args.group, "p": args.p}, result, ortho["ok"]


def cmd_help_scan(args, parser):
    table = _table(args, parser)
    if args.group == "psl33":
        p, n, support, expected = 3, 3, ("a", "b"), []
    else:
        p, n, support, expected = args.p, 2, ("c", "d"), [(args.p + 1) // 2]
    result = feasible_distributions(list(table.chars), p, n, support)
    result["expected_feasible"] = expected
    print("feasible x:", result["feasible"])
    return ({"group": args.group, "p": args.p}, result,
            result["feasible"] == expected)


def cmd_construct(args, parser):
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
        except ValueError as exc:
            parser.error(str(exc))
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


def cmd_patterns(args, parser):
    try:
        result = gap_report(args.p, args.list_missing)
    except ValueError as exc:
        parser.error(f"--p {args.p}: {exc}")
    return {"p": args.p, "list_missing": args.list_missing}, result, True


def cmd_oracle(args, parser):
    if args.group == "psl3":
        _reject_unused("--q", args.q, parser)
        group = enumerate_group("psl3", 3)
    else:
        if args.q is None:
            parser.error("--q is required with --group psl2")
        try:
            group = enumerate_group("psl2", args.q)
        except ValueError as exc:
            parser.error(f"--q {args.q}: {exc}")
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
    checks += [
        ("psl33 orthogonality", validate_orthogonality(psl33_slice())["ok"]),
        ("psl33 degree decomposition", mixed_value_decomposition(
            psl33_slice(), "a", "b", "chi12", "chi16a")),
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


def cmd_invariants(args, parser):
    verdicts = _invariant_checks()
    for v in verdicts:
        print(f"  {'PASS' if v['ok'] else 'FAIL'}  {v['check']}")
    return {}, {"checks": verdicts}, all(v["ok"] for v in verdicts)


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
    t0 = time.monotonic()
    try:
        params, result, ok = args.func(args, parser)
        wall_clock_s = round(time.monotonic() - t0, 3)
        code = _emit({"command": args.cmd, "params": params, "result": result,
                      "ok": ok, "wall_clock_s": wall_clock_s}, args.json)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so that the flush at
        # exit cannot raise again (the recipe in Python's `signal` docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except ValidationError as exc:
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
