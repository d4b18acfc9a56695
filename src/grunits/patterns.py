"""Group-side realizability of mixed-class patterns in PSL(2,p^2).

A Sylow p-subgroup is modeled as the additive group of F_(p^2); an
order-p element with parameter lambda lies in the class c exactly when
lambda is a square of F_(p^2)^* (validated against brute-force conjugacy
in the enumerated group for small p).  A pair (g, h) with g of square and
h of non-square parameter realizes the pattern {i : g + i*h has square
parameter}.  g may be normalized to 1, by a two-line lemma:

    lambda + i*mu = lambda * (1 + i*mu/lambda), and the squares form a
    subgroup of index 2 of F_(p^2)^*; so for a square lambda,
    lambda + i*mu is a square exactly when 1 + i*mu/lambda is, and
    mu/lambda runs over the non-squares as mu does.

Hence pattern(lambda, mu) = pattern(1, mu/lambda).  Half of the
non-squares then suffice, by a second lemma:

    Frobenius x -> x^p is a field automorphism fixing F_p, so it maps the
    squares onto themselves and 1 + i*mu to 1 + i*mu^p; mu and mu^p
    realize one pattern.  Every element of F_p is a square of F_(p^2)
    (p - 1 divides (q-1)/2), so a non-square mu = c + d*w has d != 0;
    and w^p = w*t^((p-1)/2) = -w, as w^2 = t is a non-residue, so
    mu^p = c - d*w.  Of the pair, the one with 2d < p comes first in
    field order.

`realizers` scans the non-squares mu = c + d*w with 2d < p once and keeps,
per pattern, the first mu in field order realizing it with g = 1: the
table a scan of every non-square keeps.  That one table answers every
realizability question (`group_patterns`, `gap_report`, the Valenti
search), and it is built only after both lemmas' premise is checked on
the square table it reads, by `finitefield.Fq.check_squares`: the table is
exactly the subgroup of squares.  p is capped at MAX_PRIME, the largest
prime at which the tests check the count.
"""

from __future__ import annotations

from math import comb
from itertools import combinations, product

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


def realizers(p: int) -> dict[frozenset[int], tuple[int, int]]:
    """Each pattern realized by a pair (g, h), g square class, h non-square,
    with the first non-square mu in field order whose pair (1, mu) realizes
    it; `Fq.check_squares` first certifies the square table as exactly the
    squares, the premise of normalizing g to 1 and of scanning only
    mu = c + d*w with 2d < p, each the earlier of its Frobenius pair
    {mu, mu^p}."""
    check_odd_prime(p, MAX_PRIME)
    f = fq_make(p)
    f.check_squares()
    squares = f.squares
    table = {}
    for mu in product(range(p), range(1, (p + 1) // 2)):
        if mu not in squares:
            table.setdefault(_pattern_of(f, f.one, mu), mu)
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
