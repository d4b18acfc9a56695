"""Benchmark inputs and the verdicts each command must report.

Everything here is derived without importing the program under test: the
realizable patterns come from an independent recount over F_(p^2), and the
group facts from closed forms or the ATLAS of Finite Groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, lcm

MISSING = object()  # the report must not contain this field


@dataclass(frozen=True)
class Op:
    """One CLI command, the latency sum it belongs to and its verdicts.

    Each `expect` key is a dotted path into the report's `result`; a path
    segment `#` takes the length of the list reached so far.
    """

    argv: tuple[str, ...]
    metric: str
    expect: dict


def _nonresidue(p: int) -> int:
    return next(t for t in range(2, p) if pow(t, (p - 1) // 2, p) == p - 1)


def realizable_patterns(p: int) -> set[frozenset[int]]:
    """Patterns {i : 1 + i*mu is a square} over the non-squares mu of F_(p^2).

    F_(p^2) = F_p(w) with w^2 = t a non-residue.  a + b*w is a square of
    F_(p^2)^* exactly when its norm a^2 - t*b^2 is a square of F_p^*, since
    x^((p^2-1)/2) = (x^(p+1))^((p-1)/2).  This is a different test from the
    program's exponentiation in F_(p^2).
    """
    t = _nonresidue(p)

    def square(a: int, b: int) -> bool:
        return pow((a * a - t * b * b) % p, (p - 1) // 2, p) == 1

    nonsquares = [
        (a, b) for a in range(p) for b in range(p)
        if (a, b) != (0, 0) and not square(a, b)
    ]
    found = {
        frozenset(i for i in range(1, p) if square(1 + i * a, i * b))
        for a, b in nonsquares
    }
    if len(found) != (p * p - 1) // 4 or any(
        len(s) != (p - 1) // 2 for s in found
    ):
        raise AssertionError(f"pattern recount at p={p} is not (p^2-1)/4 "
                             "balanced sets")
    return found


def balanced_patterns(p: int) -> set[frozenset[int]]:
    return {frozenset(c) for c in combinations(range(1, p), (p - 1) // 2)}


def _csv(pattern) -> str:
    return ",".join(map(str, sorted(pattern)))


def construct_psl2(p: int, pattern, verify: bool) -> Op:
    argv = ("construct", "psl2", "--p", str(p), "--pattern", _csv(pattern))
    expect = {"order": p * p, "elements.#": p * p - 1}
    if not verify:
        return Op(argv, "construct_s",
                  {**expect, "valenti_witness": MISSING, "counts": MISSING})
    half = (p * p - 1) // 2
    expect.update({
        "counts": {"c": half, "d": half, "other": 0},
        "pattern": sorted(pattern),
        "trace_pattern": sorted(pattern),
        "faithful": True,
        "all_integral": True,
        "problems": [],
    })
    if frozenset(pattern) in realizable_patterns(p):
        expect["valenti_witness.pattern"] = sorted(pattern)
    else:
        expect["valenti_witness"] = None
    return Op(argv + ("--verify",), "construct_s", expect)


def construct_psl33() -> Op:
    return Op(("construct", "psl33", "--verify"), "construct_s",
              {"order": 27, "elements.#": 26, "faithful": True,
               "all_integral": True, "problems": []})


def help_scan_psl2(p: int) -> Op:
    return Op(("help-scan", "--group", "psl2", "--p", str(p)), "scan_s",
              {"feasible": [(p + 1) // 2]})


def help_scan_psl33() -> Op:
    return Op(("help-scan", "--group", "psl33"), "scan_s", {"feasible": []})


def patterns(p: int, list_missing: bool) -> Op:
    argv = ("patterns", "--p", str(p))
    realizable = realizable_patterns(p)
    balanced = comb(p - 1, (p - 1) // 2)
    bound = (p * p - 1) // 2
    expect = {
        "balanced": balanced,
        "realizable": len(realizable),
        "pair_count_bound": bound,
        "counting_gap": balanced > bound,
        "gap": balanced > len(realizable),
        "missing": MISSING,
    }
    if list_missing:
        argv += ("--list-missing",)
        expect["missing"] = sorted(
            sorted(s) for s in balanced_patterns(p) - realizable
        )
    return Op(argv, "patterns_s", expect)


def psl2_order(q: int) -> int:
    return q * (q * q - 1) // 2


# |PSL(3,3)| = 3^3 (3^2-1)(3^3-1); element orders 1,2,3,4,6,8,13 and the
# order-3 classes 3A, 3B with centralizers of order 54 and 9 (ATLAS).
PSL33_ORDER = 5616
PSL33_EXPONENT = lcm(2, 3, 4, 6, 8, 13)
PSL33_ORDER3_CLASSES = [PSL33_ORDER // 54, PSL33_ORDER // 9]


def chartab(group: str, p: int | None = None) -> Op:
    if group == "psl33":
        return Op(("chartab", "--group", "psl33"), "chartab_s",
                  {"table.order": PSL33_ORDER, "orthogonality.ok": True})
    return Op(("chartab", "--group", "psl2", "--p", str(p)), "chartab_s",
              {"table.order": psl2_order(p * p), "orthogonality.ok": True})


def oracle(group: str, q: int | None, refresh: bool) -> Op:
    if group == "psl3":
        argv = ("oracle", "--group", "psl3")
        expect = {"order": PSL33_ORDER, "exponent": PSL33_EXPONENT,
                  "order_p_classes": [{"size": s} for s in PSL33_ORDER3_CLASSES]}
    else:
        p = round(q ** 0.5)
        argv = ("oracle", "--group", "psl2", "--q", str(q))
        # unipotents of order p fall into two classes of (q^2-1)/2 each;
        # the other element orders divide (q-1)/2 or (q+1)/2
        expect = {"order": psl2_order(q),
                  "exponent": lcm(p, (q - 1) // 2, (q + 1) // 2),
                  "order_p_classes": [{"size": (q * q - 1) // 2}] * 2}
    if refresh:
        return Op(argv + ("--refresh",), "oracle_cold_s", expect)
    return Op(argv, "oracle_warm_s", expect)


def invariants() -> Op:
    # `ok` covers each check's verdict; the count catches a dropped check
    return Op(("invariants",), "invariants_s", {"checks.#": 14})


def _dig(result, path: str):
    cur = result
    for part in path.split("."):
        if part == "#" and isinstance(cur, list):
            cur = len(cur)
        elif isinstance(cur, dict) and part in cur:
            cur = cur[part]
        else:
            return MISSING
    return cur


def check(op: Op, rc, report) -> list[str]:
    """Problems with one command's exit code and report; empty when correct."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    if not isinstance(report, dict) or not isinstance(report.get("result"), dict):
        return problems + ["no JSON report"]
    if report.get("ok") is not True:
        problems.append(f"ok = {report.get('ok')!r}")
    for path, want in op.expect.items():
        got = _dig(report["result"], path)
        if got is not want and got != want:
            shown = "absent" if got is MISSING else repr(got)[:80]
            problems.append(f"{path}: got {shown}")
    return problems
