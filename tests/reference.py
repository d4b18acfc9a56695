"""Direct references the HeLP scan and the group oracle are tested against.

:func:`multiplicity` is the definition

    <theta|_U, chi> = (1/p^k) sum_{w in U} theta(class(w)) conj(chi(w))

computed verbatim over Q(zeta_p), and :func:`_check_flags` is the
row-by-row kernel test on a 0/1 flag list.  The scan in
`grunits.helpengine` uses neither: it works from the closed form on bit
masks, and the tests pin it against these.  :func:`normalized_points` and
:func:`incidence_table` are the subgroup points filtered out of all of
C_p^rank and the kernel incidences by a generic dot product, which the
scan's direct listing and padded integer dot products are pinned against.
:func:`closure` finds a group by breadth-first closure under its
generators; the oracle lists it from its definition instead, and is
pinned against this.
:func:`conjugation_orbits` splits a union of an oracle group's classes into
orbits with `mul` alone, and :func:`full_class_partition` a whole group;
the oracle walks its orbits on listing positions with the conjugation
inlined, and is pinned against these.  :func:`fq_pow` (the Euler
criterion's power), :func:`matrix_pow` and :func:`block_trace` are the
square-and-multiply powers and the block trace that no command needs.
:func:`element_blocks` assembles a unit group's element as block-diagonal
matrices from its power tables; the unit group itself names elements by
keys and never builds them.
:func:`fraction_traces` and :func:`fraction_invert_profile` are the
partial-augmentation solve in `Fraction`s throughout, which the integer
solve in `grunits.constructions` is pinned against.
:func:`direction_line_patterns` is every (lambda, mu) pair's pattern,
walked once per direction, which the normalized scan in `grunits.patterns`
(pairs (1, mu) only, on the premise that its square table is exactly the
squares) is pinned against; :func:`full_scan_realizers` is that scan over
every non-square mu, which its scan of one mu per Frobenius pair is
pinned against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from grunits.chardata import CharSlice
from grunits.constructions import Inconsistent
from grunits.cyclotomic import Cyclotomic, cyclo
from grunits.helpengine import Point
from grunits.matrices import BlockDiag, QMatrix


class UnassignedClass(Exception):
    pass


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


def normalized_points(p: int, rank: int) -> list[Point]:
    """The nonzero vectors of C_p^rank whose first nonzero coordinate is 1,
    in lexicographic order."""
    return [v for v in itertools.product(range(p), repeat=rank)
            if any(v) and next(c for c in v if c) == 1]


def incidence_table(p: int, rank: int) -> list[tuple[Point, frozenset[int]]]:
    """For each normalized functional e, the indices of the normalized
    points v with e . v = 0 mod p."""
    points = normalized_points(p, rank)
    return [(e, frozenset(i for i, v in enumerate(points)
                          if sum(a * b for a, b in zip(e, v)) % p == 0))
            for e in points]


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


def closure(group) -> list[tuple]:
    """The elements reached from `group.identity` by right multiplication
    with `group.generators`, in increasing order."""
    seen = {group.identity}
    frontier = [group.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in group.generators:
                y = group.mul(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(seen)


def conjugation_orbits(group, among) -> list[tuple]:
    """(minimal representative, orbit) for each conjugacy class in
    `among`, a union of classes of an enumerated oracle group, in
    increasing order of representative.  The orbits use `mul` alone: each
    generator's inverse is found by search, not as a power, and an orbit is
    closed under conjugation by every generator and its inverse."""
    mul, conjugators = group.mul, []
    for g in group.generators:
        ginv = next(x for x in group.elements if mul(g, x) == group.identity)
        conjugators += [(ginv, g), (g, ginv)]
    remaining, orbits = set(among), []
    while remaining:
        rep = min(remaining)
        orbit, frontier = {rep}, [rep]
        while frontier:
            y = frontier.pop()
            for hinv, h in conjugators:
                z = mul(mul(hinv, y), h)
                if z not in orbit:
                    orbit.add(z)
                    frontier.append(z)
        orbits.append((rep, orbit))
        remaining -= orbit
    return orbits


def full_class_partition(group) -> list[tuple]:
    """(minimal representative, class size) for every conjugacy class of
    an enumerated oracle group, in increasing order of representative."""
    return [(rep, len(orbit))
            for rep, orbit in conjugation_orbits(group, group.elements)]


def fq_pow(f, x, k: int):
    """x^k in the field f, for k >= 0, by square and multiply."""
    result, base = f.one, x
    while k:
        if k & 1:
            result = f.mul(result, base)
        base = f.mul(base, base)
        k >>= 1
    return result


def matrix_pow(m: QMatrix, k: int) -> QMatrix:
    """m^k for k >= 0, by square and multiply."""
    result, base = QMatrix.identity(m.dim), m
    while k:
        if k & 1:
            result = result * base
        base = base * base
        k >>= 1
    return result


def block_trace(b: BlockDiag) -> Fraction:
    """The trace of a block diagonal: the sum of its blocks' traces."""
    return sum(block.trace() for block in b.blocks)


def element_blocks(ug, exps: tuple[int, ...]) -> dict[str, BlockDiag]:
    """The element's blocks per component, taken from the power tables."""
    return {
        c: BlockDiag(ug.powers[b][k] for b, k in zip(ug.bases[c], ks))
        for c, ks in ug.block_exponents(exps).items()
    }


def fraction_traces(ug, exps: tuple[int, ...]) -> dict[str, Fraction]:
    """The element's per-component traces, as `Fraction` sums of its
    blocks' `QMatrix` traces."""
    return {c: block_trace(m) for c, m in element_blocks(ug, exps).items()}


def fraction_invert_profile(rows, traces, support):
    """(eps_x, eps_y) as `Fraction`s: augmentation one and the first row
    separating x and y, then every row checked exactly."""
    x, y = support
    sep = next(ch for ch in rows if ch.values[x] != ch.values[y])
    ex = ((Fraction(traces[sep.name]) - sep.values[y])
          / (sep.values[x] - sep.values[y]))
    ey = 1 - ex
    for ch in rows:
        if ex * ch.values[x] + ey * ch.values[y] != traces[ch.name]:
            raise Inconsistent(f"row {ch.name} contradicts eps = ({ex}, {ey})")
    return ex, ey


def direction_line_patterns(f, nonsquares) -> set[frozenset[int]]:
    """{pattern(lam, mu)} over every square lam and non-square mu, one line
    lam + F_p*mu at a time, for every listed mu in turn: O(p^4) look-ups.

    A non-square mu = (c, d) has d != 0, because every element of F_p is a
    square in F_(p^2); so each line with direction mu meets F_p in a single
    point (a, 0), and j -> (a, 0) + j*mu walks it.  Bit j of `line` says
    whether that point is a square.  For the square lam = (a, 0) + j*mu,
    lam + i*mu is point j + i, so the pattern is `line` rotated right by j
    with bit 0 (lam itself) cleared.
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


def full_scan_realizers(f) -> dict[frozenset[int], tuple[int, int]]:
    """Per pattern {i : 1 + i*mu is a square}, the first non-square mu of
    F_(p^2) in field order realizing it, over every non-square, by field
    arithmetic."""
    table = {}
    for mu in f.elements():
        if mu != f.zero and mu not in f.squares:
            pattern = frozenset(
                i for i in range(1, f.p)
                if f.add(f.one, f.mul((i, 0), mu)) in f.squares)
            table.setdefault(pattern, mu)
    return table
