"""Character-restriction constraints on hypothesized elementary-abelian units.

A hypothesized subgroup U = C_p^k of normalized units assigns each of its
(p^k-1)/(p-1) cyclic subgroups to one of the two order-p classes of G.
Restricting a character theta of G to U must decompose into linear
characters of U with non-negative integer multiplicities; scanning the
class distributions for which that holds is the feasibility question.

All multiplicities are computed exactly, from the closed form obtained by
summing the direct definition

    <theta|_U, chi> = (1/p^k) sum_{w in U} theta(class(w)) conj(chi(w))

over each cyclic subgroup first (the root-of-unity sum over a line is p-1
on the kernel and -1 off it): p^k <theta|_U, chi> = deg - s + p * (the sum
of theta over the subgroups in ker chi), s the sum over all subgroups.
The test suite keeps the direct definition over Q(zeta_p) as a reference
and pins the closed form against it.

In the closed form a linear character's multiplicity depends only on the
count x of first-class subgroups and on how many of them its kernel
holds (see :func:`_num`), so a scan turns the rows into one allowed set of
intersection counts per x and tests an assignment, held as a bit mask, by
the intersection count with each kernel mask; at rank 3 a pruned search
(:func:`_meets`) looks for one passing assignment of count x.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

from .chardata import CharSlice, format_rational
from .finitefield import check_odd_prime

Point = tuple[int, ...]


def subgroup_points(p: int, rank: int) -> list[Point]:
    """Canonical generators of the cyclic subgroups of C_p^rank.

    Normalized so the first nonzero coordinate is 1; lexicographic order,
    so the points whose leading 1 lies furthest right come first.
    """
    return [(0,) * k + (1,) + tail for k in reversed(range(rank))
            for tail in itertools.product(range(p), repeat=rank - 1 - k)]


def hyperplane_table(p: int, rank: int) -> list[tuple[Point, frozenset[int]]]:
    """For each normalized nonzero functional e, the point indices it kills.

    Rank 2 or 3: points and functionals are padded with leading zeros to
    three coordinates, so each incidence is one integer dot product.
    """
    points = subgroup_points(p, rank)  # dual space points, same normalization
    padded = [(0,) * (3 - rank) + v for v in points]
    return [(e, frozenset(i for i, (v0, v1, v2) in enumerate(padded)
                          if (e0 * v0 + e1 * v1 + e2 * v2) % p == 0))
            for e, (e0, e1, e2) in zip(points, padded)]


def _int_rows(theta_set: list[CharSlice], class_ids) -> list[tuple[str, int, int, int]]:
    """(name, degree, value on first class, value on second class), one row
    per distinct (degree, value, value) triple, named after the first row
    that has it.  Rows with equal triples pass or fail every test together,
    so the first failing row of the full slice is the witness."""
    rows: dict[tuple[int, int, int], str] = {}
    for theta in theta_set:
        triple = (theta.degree, theta.values[class_ids[0]],
                  theta.values[class_ids[1]])
        rows.setdefault(triple, theta.name)
    return [(name, *triple) for triple, name in rows.items()]


def _num(row, p: int, n: int, x: int, m: int, line: int) -> int:
    """p^k times the multiplicity of a linear character in row's restriction.

    x of the n subgroups carry the first class, and the character's kernel
    holds `line` subgroups, m of them first-class:
    deg - x*va - (n-x)*vb + p*(m*va + (line-m)*vb).  The trivial
    character's kernel is all of U, so it is m = x, line = n.
    """
    _name, deg, va, vb = row
    return deg - x * va - (n - x) * vb + p * (m * va + (line - m) * vb)


def _first_failure(rows, p: int, n: int, x: int, size: int, tests):
    """First (row name, chi, multiplicity) whose multiplicity is negative or
    not an integer, rows outer and tests (chi, m, line) inner, else None."""
    for row in rows:
        for chi, m, line in tests:
            num = _num(row, p, n, x, m, line)
            if num < 0 or num % size:
                return row[0], chi, Fraction(num, size)
    return None


def _meets(lines, allowed, x: int, left: int, chosen: int = 0,
           count: int = 0, i: int = 0) -> bool:
    """Whether some count-x mask, equal to `chosen` off the undecided
    points `left`, meets every line from lines[i] on in a count from
    `allowed`: depth first, each line's undecided points take a submask
    that gives the line an allowed count, and a branch is cut where the
    count passes x or can no longer reach it."""
    if i == len(lines):
        return True  # every line passed, and the count can still reach x
    line = lines[i]
    free, left = line & left, left & ~line
    seen, spare, sub = (chosen & line).bit_count(), left.bit_count(), free
    while True:
        k = sub.bit_count()
        if (seen + k in allowed and k <= x - count <= k + spare
                and _meets(lines, allowed, x, left, chosen | sub,
                           count + k, i + 1)):
            return True
        if not sub:
            return False
        sub = (sub - 1) & free


def feasible_distributions(theta_set: list[CharSlice], p: int, rank: int,
                           class_ids: tuple[str, str]) -> dict:
    """Scan class-distribution counts x for HeLP feasibility; the report.

    x counts the cyclic subgroups assigned to class_ids[0].  The trivial-
    character multiplicities depend on x alone and are tested once per x.
    A kernel character's multiplicity depends on x and on m, the number of
    first-class subgroups in its kernel, alone, so the kernel rows reduce
    to one allowed set A(x) of counts m per x.  An assignment is a bit mask
    over the subgroups, and it passes the kernels when every kernel mask
    meets it in a count from A(x).
    For rank 2 each of the p+1 kernels contains exactly one cyclic subgroup
    and each subgroup lies in exactly one kernel (checked per run: the
    kernel masks are the n single bits), so the kernel multiplicities are
    the multiset of the subgroups' values, which depends on x alone, and
    one representative per x is the only candidate.
    For rank 3 that symmetry genuinely fails: kernel hyperplanes see the
    geometry of the assigned point set, so :func:`_meets` searches the
    count-x assignments for one that passes; `assignments_checked`, given
    only where none does, counts the comb(n, x) it ruled out.
    The report lists A(x) by x as `allowed_intersections` at rank 3 only
    (at rank 2 it is a subset of {0, 1}).
    x is feasible when its count passes and some candidate passes the
    kernels; the witness of an infeasible x is its count-level failure,
    else the first failing kernel of the first candidate (1 << x) - 1.
    """
    check_odd_prime(p)
    if rank not in (2, 3):
        raise ValueError("rank must be 2 or 3")
    rows = _int_rows(theta_set, class_ids)
    kernels = [("ker=" + ",".join(map(str, e)), sum(1 << i for i in inside))
               for e, inside in hyperplane_table(p, rank)]
    lines = [line for _chi, line in kernels]
    n = len(kernels)  # as many kernels as cyclic subgroups
    size = p ** rank
    line_size = (p ** (rank - 1) - 1) // (p - 1)  # subgroups per kernel
    exhaustive = rank == 3
    if exhaustive:
        notes = ["rank 3: the multiplicity of a kernel character sees "
                 "which subgroups its hyperplane contains, not just the "
                 "counts, so surviving counts are settled by exhausting "
                 "all assignments with that count"]
    else:
        if sorted(lines) != [1 << i for i in range(n)]:
            raise AssertionError("count symmetry failed for rank 2")
        notes = ["rank 2: representative assignments suffice "
                 "(count symmetry verified this run)"]
    feasible: list[int] = []
    feasible_kernel: list[int] = []
    witnesses: list[dict] = []
    allowed_by_x: list[list[int]] = []

    for x in range(n + 1):
        count_fail = _first_failure(rows, p, n, x, size, [("trivial", x, n)])
        allowed = [m for m in range(line_size + 1)
                   if _first_failure(rows, p, n, x, size,
                                     [("", m, line_size)]) is None]
        allowed_by_x.append(allowed)
        first = (1 << x) - 1
        kernel_ok = (_meets(lines, allowed, x, (1 << n) - 1) if exhaustive
                     else all((first & line).bit_count() in allowed
                              for line in lines))
        if kernel_ok:
            feasible_kernel.append(x)
            if count_fail is None:
                feasible.append(x)
                continue
        name, chi, m = count_fail or _first_failure(
            rows, p, n, x, size,
            [(chi, (first & line).bit_count(), line_size)
             for chi, line in kernels])
        entry = {"x": x, "theta": name, "chi": chi,
                 "multiplicity": format_rational(m)}
        if exhaustive and count_fail is None:
            entry["mode"] = "exhaustive"
            entry["assignments_checked"] = comb(n, x)
        witnesses.append(entry)

    if feasible != feasible_kernel:
        notes.append(
            f"full filter {feasible} is strictly stronger than the "
            f"kernel-character filter {feasible_kernel}"
        )
    report = {"p": p, "rank": rank, "classes": list(class_ids),
              "feasible": feasible, "feasible_kernel_only": feasible_kernel,
              "witnesses": witnesses, "notes": notes}
    if exhaustive:
        report["allowed_intersections"] = allowed_by_x
    return report
