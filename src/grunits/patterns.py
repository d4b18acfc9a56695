"""Group-side realizability of mixed-class patterns in PSL(2,p^2).

A Sylow p-subgroup is modeled as the additive group of F_(p^2); an
order-p element with parameter lambda lies in the class c exactly when
lambda is a square of F_(p^2)^* (validated against brute-force conjugacy
in the enumerated group for small p).  A pair (g, h) with g of square and
h of non-square parameter realizes the pattern {i : g + i*h has square
parameter}.  Square scaling leaves the pattern invariant, so g may be
normalized to 1; the full (lambda, mu) enumeration is kept as an internal
cross-check, read one line lambda + F_p*mu at a time (O(p^4) square
look-ups).  p is capped at MAX_PRIME, the largest prime at which the test
suite checks the pattern count (p^2-1)/4.
"""

from __future__ import annotations

from math import comb
from itertools import combinations

from .finitefield import fq_make

MAX_PRIME = 23
# balanced patterns --list-missing may list: C(12,6) = 924 at p = 13 fit
MAX_MISSING = 4096


def _pattern_of(f, lam, mu) -> frozenset[int]:
    """{i in 1..p-1 : lam + i*mu is a square}, read off `f.squares`."""
    p, squares = f.p, f.squares
    a, b = lam
    c, d = mu
    return frozenset(
        i for i in range(1, p)
        if ((a + i * c) % p, (b + i * d) % p) in squares
    )


def _all_pair_patterns(f, nonsquares) -> set[frozenset[int]]:
    """{_pattern_of(f, lam, mu)} over every square lam and non-square mu,
    one line lam + F_p*mu at a time.

    A non-square mu = (c, d) has d != 0, because every element of F_p is a
    square in F_(p^2); so each line with direction mu meets F_p in a single
    point (a, 0), and j -> (a, 0) + j*mu walks it.  Bit j of `line` says
    whether that point is a square.  For the square lam = (a, 0) + j*mu,
    lam + i*mu is point j + i, so the pattern is `line` rotated right by j
    with bit 0 (lam itself) cleared.  Patterns stay bit masks until the
    distinct ones are turned into sets.
    """
    p, squares = f.p, f.squares
    keep = (1 << p) - 2  # bits 1 .. p-1
    masks = set()
    for c, d in nonsquares:
        for a in range(p):
            line = sum(1 << j for j in range(p)
                       if ((a + j * c) % p, j * d % p) in squares)
            for j in range(p):
                if line >> j & 1:
                    masks.add(((line >> j) | (line << (p - j))) & keep)
    return {frozenset(i for i in range(1, p) if mask >> i & 1)
            for mask in masks}


def group_patterns(p: int) -> set[frozenset[int]]:
    """All patterns realized by pairs (g, h), g square class, h non-square."""
    if p > MAX_PRIME:
        raise ValueError(f"p capped at {MAX_PRIME}")
    f = fq_make(p)
    nonsquares = [e for e in f.elements() if e != f.zero and not f.is_square(e)]
    normalized = {_pattern_of(f, f.one, mu) for mu in nonsquares}
    if _all_pair_patterns(f, nonsquares) != normalized:
        raise AssertionError("square-scaling normalization failed")
    return normalized


def balanced_patterns(p: int) -> list[frozenset[int]]:
    half = (p - 1) // 2
    return [frozenset(c) for c in combinations(range(1, p), half)]


def gap_report(p: int, list_missing: bool) -> dict:
    """Count balanced patterns against realizable ones and certify any gap;
    with `list_missing`, list the balanced patterns no pair realizes."""
    realizable = group_patterns(p)  # first, as it rejects p above the cap
    half = (p - 1) // 2
    n_balanced = comb(p - 1, half)
    if list_missing and n_balanced > MAX_MISSING:
        raise ValueError(f"--list-missing lists at most {MAX_MISSING} "
                         f"balanced patterns, and there are {n_balanced}")
    bound = (p * p - 1) // 2
    report = {
        "p": p,
        "balanced": n_balanced,
        "realizable": len(realizable),
        "pair_count_bound": bound,
        "counting_gap": n_balanced > bound,
        "gap": n_balanced > len(realizable),
    }
    if list_missing:
        report["missing"] = sorted(
            sorted(s) for s in set(balanced_patterns(p)) - realizable
        )
    return report
