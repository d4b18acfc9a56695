"""Direct references the HeLP scan and the group oracle are tested against.

:func:`multiplicity` is the definition

    <theta|_U, chi> = (1/p^k) sum_{w in U} theta(class(w)) conj(chi(w))

computed verbatim over Q(zeta_p), and :func:`_check_flags` is the
row-by-row kernel test on a 0/1 flag list.  The scan in
`grunits.helpengine` uses neither: it works from the closed form on bit
masks, and the tests pin it against these.  :func:`closure` finds a
group by breadth-first closure under its generators; the oracle lists it
from its definition instead, and is pinned against this.
:func:`full_class_partition` splits a whole oracle group into conjugacy
classes.  :func:`fq_pow` (the Euler criterion's power), :func:`matrix_pow`
and :func:`block_trace` are the square-and-multiply powers and the block
trace that no command needs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from grunits.chardata import CharSlice
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


def full_class_partition(group) -> list[tuple]:
    """(minimal representative, class size) for every conjugacy class of
    an enumerated oracle group, in increasing order of representative."""
    remaining, classes = set(group.elements), []
    while remaining:
        rep = min(remaining)
        orbit = group.conjugacy_class(rep)
        classes.append((rep, len(orbit)))
        remaining -= orbit
    return classes


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
