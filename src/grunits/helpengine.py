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
unity sum over a line is p-1 on the kernel and -1 off it).  Tests pin
:func:`multiplicity` against that closed form.

In the closed form a kernel character's multiplicity depends only on the
count x of first-class subgroups and on how many of them its kernel
holds, so a scan turns the rows into one allowed set of intersection
counts per x and tests an assignment, held as a bit mask, by the
intersection count with each kernel mask.  :func:`_check_flags` keeps the
row-by-row test and names the witness of an infeasible count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

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
    # A(x) by x: the kernel counts m every row allows (see _allowed_counts)
    allowed_intersections: list[list[int]] = field(default_factory=list)

    def to_json(self) -> dict:
        out = {
            "p": self.p,
            "rank": self.rank,
            "classes": list(self.class_ids),
            "feasible": self.feasible,
            "feasible_kernel_only": self.feasible_kernel_only,
            "witnesses": self.witnesses,
            "notes": self.notes,
        }
        if self.rank == 3:
            # at rank 2 each kernel holds one subgroup, so A(x) is a
            # subset of {0, 1} and its report leaves the key out
            out["allowed_intersections"] = self.allowed_intersections
        return out


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


def _allowed_counts(rows, p: int, size: int, n: int, line_size: int,
                    x: int) -> list[int]:
    """A(x): the counts m of first-class subgroups that a kernel may hold.

    With x of the n subgroups on the first class, a kernel holding m of them
    gives row (deg, va, vb) the multiplicity (deg - s + p*k) / size, where
    s = x*va + (n-x)*vb and k = m*va + (line_size-m)*vb; m is allowed when
    that is a non-negative integer for every row.
    """
    def passes(deg: int, va: int, vb: int, m: int) -> bool:
        num = deg - x * va - (n - x) * vb + p * (m * va + (line_size - m) * vb)
        return num >= 0 and num % size == 0

    return [m for m in range(line_size + 1)
            if all(passes(deg, va, vb, m) for _name, deg, va, vb in rows)]


def feasible_distributions(theta_set: list[CharSlice], p: int, rank: int,
                           class_ids: tuple[str, str]) -> ScanResult:
    """Scan class-distribution counts x for HeLP feasibility.

    x counts the cyclic subgroups assigned to class_ids[0].  The trivial-
    character multiplicities depend on x alone and are tested once per x.
    A kernel character's multiplicity depends on x and on m, the number of
    first-class subgroups in its kernel, alone, so the kernel rows reduce
    to one allowed set A(x) of counts m per x.  An assignment is a bit mask
    over the subgroups, and it passes the kernels when every kernel mask
    meets it in a count from A(x).
    For rank 2 each of the p+1 kernels contains exactly one cyclic subgroup
    and each subgroup lies in exactly one kernel (checked per run on the
    hyperplane table), so the kernel multiplicities are the multiset of the
    subgroups' values, which depends on x alone, and one representative
    per x is the only candidate.
    For rank 3 that symmetry genuinely fails: kernel hyperplanes see the
    geometry of the assigned point set, so every assignment with count x is
    a candidate; when A(x) is empty none can pass and none is enumerated.
    x is feasible when its count passes and some candidate passes the
    kernels; the witness of an infeasible x is its count-level failure,
    else the first candidate's kernel failure.
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
    line_size = (p ** (rank - 1) - 1) // (p - 1)  # subgroups per kernel
    lines = [sum(1 << i for i in inside) for _e, inside in hyperplanes]
    bits = [1 << i for i in range(n)]
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
    allowed_by_x: list[list[int]] = []

    for x in range(n + 1):
        # trivial-character multiplicities depend on the count alone
        count_fail = None
        for name, deg, va, vb in rows:
            num = deg + (p - 1) * (x * va + (n - x) * vb)
            if num % size or num < 0:
                count_fail = (name, "trivial", Fraction(num, size))
                break
        allowed = _allowed_counts(rows, p, size, n, line_size, x)
        allowed_by_x.append(allowed)
        kernel_ok = False
        checked = comb(n, x)
        if allowed:
            candidates = (map(sum, itertools.combinations(bits, x))
                          if exhaustive else [sum(bits[:x])])
            for checked, mask in enumerate(candidates, 1):
                if all((mask & line).bit_count() in allowed for line in lines):
                    kernel_ok = True
                    break
        if kernel_ok:
            feasible_kernel.append(x)
            if count_fail is None:
                feasible.append(x)
                continue
        first = [1] * x + [0] * (n - x)  # the first candidate's flags
        name, chi, m = count_fail or _check_flags(rows, first, p, size,
                                                  hyperplanes)
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
                      witnesses, notes, allowed_by_x)
