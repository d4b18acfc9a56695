"""Group-side realizability of mixed-class patterns in PSL(2,p^2).

A Sylow p-subgroup is modeled as the additive group of F_(p^2); an
order-p element with parameter lambda lies in the class c exactly when
lambda is a square of F_(p^2)^* (validated against brute-force conjugacy
in the enumerated group for small p).  A pair (g, h) with g of square and
h of non-square parameter realizes the pattern {i : g + i*h has square
parameter}.  Square scaling leaves the pattern invariant, so g may be
normalized to 1: `realizers` scans the non-squares mu once and keeps, per
pattern, the first mu in field order realizing it with g = 1.  That one
table answers every realizability question (`group_patterns`,
`gap_report`, the Valenti search), and it is returned only after the full
(lambda, mu) enumeration agrees with its patterns; that cross-check reads
each line of F_(p^2) once per slope class of directions, not once per
direction (O(p^3) square look-ups).  p is capped at MAX_PRIME, the largest
prime at which the tests check the count.
"""

from __future__ import annotations

from math import comb
from itertools import combinations

from .finitefield import check_odd_prime, fq_make

MAX_PRIME = 23
# balanced patterns --list-missing may list: C(12,6) = 924 at p = 13 fit
MAX_MISSING = 4096


def _pattern_of(f, lam, mu) -> frozenset[int]:
    """{i in 1..p-1 : lam + i*mu is a square}, read off `f.squares`
    while stepping lam + i*mu by mu."""
    (a, b), (c, d), p, squares = lam, mu, f.p, f.squares
    pattern = []
    for i in range(1, p):
        a, b = (a + c) % p, (b + d) % p
        if (a, b) in squares:
            pattern.append(i)
    return frozenset(pattern)


def _all_pair_patterns(f, nonsquares) -> set[frozenset[int]]:
    """{_pattern_of(f, lam, mu)} over every square lam and listed mu, one
    slope class at a time: mu = (c, d) is k*m for k = d, m = (c/d, 1), or
    k = c, m = (1, 0) if d = 0; the mu of one m = (s, t) share the lines
    (a*t, a - a*t) + F_p*m.  Bit y of `line` says whether point y is a
    square; the square there has pattern `line` rotated right by y, bit 0
    cleared, against m, and k^-1 times it against k*m, expanded once per
    orbit when the k of m are closed under products."""
    p, squares = f.p, f.squares
    keep = (1 << p) - 2  # bits 1 .. p-1
    inverse = {x: y for x in range(1, p) for y in range(1, p) if x * y % p == 1}
    scales = {}  # m -> the k with k*m listed
    for c, d in nonsquares:
        scales.setdefault((c * inverse[d or c] % p, d and 1), set()).add(d or c)
    rotated = {}  # a set of k -> the patterns against every m it scales
    for (s, t), ks in scales.items():
        masks = rotated.setdefault(frozenset(ks), set())
        for a in range(p):
            # step (u, v) by m along the line; t is 0 or 1, so v (a or y)
            # stays below p
            u, v, line = a * t, a - a * t, 0
            for y in range(p):
                if (u % p, v) in squares:
                    line |= 1 << y
                u, v = u + s, v + t
            line |= line << p  # bits y .. y+p-1 are the line rotated by y
            for y in range(p):
                if line >> y & 1:
                    masks.add(line >> y & keep)
    out = set()
    for ks, masks in rotated.items():
        closed, orbits = all(a * b % p in ks for a in ks for b in ks), set()
        for mask in masks:
            pattern = frozenset(i for i in range(1, p) if mask >> i & 1)
            if not (closed and pattern in orbits):
                orbits.update(frozenset(i * inverse[k] % p for i in pattern) for k in ks)
        out |= orbits
    return out


def realizers(p: int) -> dict[frozenset[int], tuple[int, int]]:
    """Each pattern realized by a pair (g, h), g square class, h non-square,
    with the first non-square mu in field order whose pair (1, mu) realizes
    it; the patterns are checked against every (lambda, mu) pair first."""
    check_odd_prime(p, MAX_PRIME)
    f = fq_make(p)
    nonsquares = [e for e in f.elements() if e != f.zero and not f.is_square(e)]
    table = {}
    for mu in nonsquares:
        table.setdefault(_pattern_of(f, f.one, mu), mu)
    if _all_pair_patterns(f, nonsquares) != table.keys():
        raise AssertionError("square-scaling normalization failed")
    return table


def group_patterns(p: int) -> set[frozenset[int]]:
    """All patterns realized by pairs (g, h), g square class, h non-square."""
    return set(realizers(p))


def balanced_patterns(p: int) -> list[frozenset[int]]:
    return [frozenset(c) for c in combinations(range(1, p), (p - 1) // 2)]


def gap_report(p: int, list_missing: bool) -> dict:
    """Count balanced patterns against realizable ones and certify any gap;
    with `list_missing`, list the balanced patterns no pair realizes."""
    realizable = group_patterns(p)  # first, as it rejects p above the cap
    n_balanced = comb(p - 1, (p - 1) // 2)
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
            sorted(s) for s in set(balanced_patterns(p)) - realizable)
    return report
