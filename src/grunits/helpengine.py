"""Character-restriction constraints on hypothesized elementary-abelian units.

A hypothesized subgroup U = C_p^k of normalized units assigns each of its
(p^k-1)/(p-1) cyclic subgroups to one of the two order-p classes of G.
Restricting a character theta of G to U must decompose into linear
characters of U with non-negative integer multiplicities; scanning the
class distributions for which that holds is the feasibility question.

All multiplicities are computed exactly.  The direct definition

    <theta|_U, chi> = (1/p^k) sum_{w in U} theta(class(w)) conj(chi(w))

is implemented verbatim in :func:`multiplicity`; scans use the equivalent
closed form obtained by summing each cyclic subgroup first (the root-of-
unity sum over a line is p-1 on the kernel and -1 off it), which keeps the
largest scans instant.  Tests pin :func:`multiplicity` against that
closed form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .chardata import CharSlice, format_rational
from .cyclotomic import Cyclotomic, cyclo


class UnassignedClass(Exception):
    pass


Point = tuple[int, ...]


def subgroup_points(p: int, rank: int) -> list[Point]:
    """Canonical generators of the cyclic subgroups of C_p^rank.

    Normalized so the first nonzero coordinate is 1; lexicographic order.
    """
    points = []
    for v in itertools.product(range(p), repeat=rank):
        if any(v):
            lead = next(c for c in v if c)
            if lead == 1:
                points.append(v)
    return points


def hyperplane_table(p: int, rank: int) -> list[tuple[Point, frozenset[int]]]:
    """For each normalized nonzero functional e, the point indices it kills."""
    points = subgroup_points(p, rank)
    table = []
    for e in points:  # dual space points, same normalization
        inside = frozenset(
            i
            for i, v in enumerate(points)
            if sum(a * b for a, b in zip(e, v)) % p == 0
        )
        table.append((e, inside))
    return table


@dataclass(frozen=True)
class Assignment:
    """Map from each cyclic subgroup of U = C_p^rank to an order-p class id."""

    p: int
    rank: int
    subgroup_classes: dict[Point, str]

    def class_of(self, w: Point) -> str:
        lead = next(c for c in w if c)
        inv = pow(lead, -1, self.p)
        point = tuple(c * inv % self.p for c in w)
        try:
            return self.subgroup_classes[point]
        except KeyError as exc:
            raise UnassignedClass(f"no class assigned to subgroup {point}") from exc


def linear_characters(p: int, rank: int) -> list[Point]:
    return list(itertools.product(range(p), repeat=rank))


def multiplicity(theta: CharSlice, a: Assignment, chi: Point) -> Cyclotomic:
    """Exact inner product of theta restricted to U with the linear character chi.

    chi is given by its exponent vector: chi(w) = zeta_p^(chi . w).
    """
    p, rank = a.p, a.rank
    total = Cyclotomic.from_rational(0, p)
    for w in itertools.product(range(p), repeat=rank):
        if any(w):
            value = theta.values[a.class_of(w)]
        else:
            value = Fraction(theta.degree)
        e = sum(c * x for c, x in zip(chi, w)) % p
        total = total + cyclo(p, -e) * value
    return total * Fraction(1, p ** rank)


def _int_rows(theta_set: list[CharSlice], class_ids) -> list[tuple[str, int, int, int]]:
    """(name, degree, value on first class, value on second class) as ints,
    one row per distinct (degree, value, value) triple, named after the
    first row that has it.  Rows with equal triples pass or fail every test
    together, so the first failing row of the full slice is the witness."""
    rows: dict[tuple[int, int, int], str] = {}
    for theta in theta_set:
        va, vb = theta.values[class_ids[0]], theta.values[class_ids[1]]
        if va.denominator != 1 or vb.denominator != 1:
            raise ValueError("scan requires integer-valued slice rows")
        rows.setdefault((int(theta.degree), int(va), int(vb)), theta.name)
    return [(name, *triple) for triple, name in rows.items()]


@dataclass
class ScanResult:
    p: int
    rank: int
    class_ids: tuple[str, str]
    feasible: list[int]
    feasible_kernel_only: list[int]
    witnesses: list[dict]
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "rank": self.rank,
            "classes": list(self.class_ids),
            "feasible": self.feasible,
            "feasible_kernel_only": self.feasible_kernel_only,
            "witnesses": self.witnesses,
            "notes": self.notes,
        }


def _check_flags(rows, flags, p: int, size: int, hyperplanes):
    """First failing kernel character (theta, chi, value) for the 0/1 class
    flags, else None.

    flags[i] is 1 when cyclic subgroup i carries the first class.
    """
    n = len(flags)
    x = sum(flags)
    for name, deg, va, vb in rows:
        s = x * va + (n - x) * vb
        for e, inside in hyperplanes:
            k = sum(va if flags[i] else vb for i in inside)
            num = deg - s + p * k
            if num % size or num < 0:
                return name, "ker=" + ",".join(map(str, e)), Fraction(num, size)
    return None


def feasible_distributions(theta_set: list[CharSlice], p: int, rank: int,
                           class_ids: tuple[str, str]) -> ScanResult:
    """Scan class-distribution counts x for HeLP feasibility.

    x counts the cyclic subgroups assigned to class_ids[0].  The trivial-
    character multiplicities depend on x alone and are tested once per x;
    the kernel characters are tested over the candidate assignments with
    that count.  For rank 2 each of the p+1 kernels contains exactly one
    cyclic subgroup and each subgroup lies in exactly one kernel (checked
    per run on the hyperplane table), so the kernel multiplicities are the
    multiset of the subgroups' values, which depends on x alone, and one
    representative per x is the only candidate.
    For rank 3 that symmetry genuinely fails: kernel hyperplanes see the
    geometry of the assigned point set, so every assignment with count x is
    a candidate.  x is feasible when its count passes and some candidate
    passes the kernels; the witness of an infeasible x is its count-level
    failure, else the first candidate's kernel failure.
    """
    if p == 2:
        raise ValueError("p must be an odd prime")
    if rank not in (2, 3):
        raise ValueError("rank must be 2 or 3")
    points = subgroup_points(p, rank)
    hyperplanes = hyperplane_table(p, rank)
    rows = _int_rows(theta_set, class_ids)
    n = len(points)
    size = p ** rank
    exhaustive = rank == 3
    if exhaustive:
        notes = ["rank 3: the multiplicity of a kernel character sees "
                 "which subgroups its hyperplane contains, not just the "
                 "counts, so surviving counts are settled by exhausting "
                 "all assignments with that count"]
    else:
        incidence = sorted(sorted(inside) for _e, inside in hyperplanes)
        if incidence != [[i] for i in range(n)]:
            raise AssertionError("count symmetry failed for rank 2")
        notes = ["rank 2: representative assignments suffice "
                 "(count symmetry verified this run)"]
    feasible: list[int] = []
    feasible_kernel: list[int] = []
    witnesses: list[dict] = []

    for x in range(n + 1):
        # trivial-character multiplicities depend on the count alone
        count_fail = None
        for name, deg, va, vb in rows:
            num = deg + (p - 1) * (x * va + (n - x) * vb)
            if num % size or num < 0:
                count_fail = (name, "trivial", Fraction(num, size))
                break
        candidates = (itertools.combinations(range(n), x) if exhaustive
                      else [range(x)])
        kernel_ok = False
        first_fail = None
        for checked, subset in enumerate(candidates, 1):
            flags = [0] * n
            for i in subset:
                flags[i] = 1
            fail = _check_flags(rows, flags, p, size, hyperplanes)
            if fail is None:
                kernel_ok = True
                break
            first_fail = first_fail or fail
        if kernel_ok:
            feasible_kernel.append(x)
            if count_fail is None:
                feasible.append(x)
                continue
        name, chi, m = count_fail or first_fail
        entry = {"x": x, "theta": name, "chi": chi,
                 "multiplicity": format_rational(m)}
        if exhaustive and count_fail is None:
            entry["mode"] = "exhaustive"
            entry["assignments_checked"] = checked
        witnesses.append(entry)

    if feasible != feasible_kernel:
        notes.append(
            f"full filter {feasible} is strictly stronger than the "
            f"kernel-character filter {feasible_kernel}"
        )
    return ScanResult(p, rank, class_ids, feasible, feasible_kernel,
                      witnesses, notes)
