"""Partial-augmentation vectors and their interplay with character values.

A unit u of augmentation one with support on the order-p classes satisfies
chi(u) = sum_x eps_x(u) chi(x) for every irreducible chi.  Inverting that
overdetermined linear system recovers the partial augmentations from a
character profile; the Marciniak-Ritter-Sehgal-Weiss criterion then reads
rational conjugacy to a group element off their signs.

Every character value on the slices this package uses is rational, and so
is the trace of an exact rational matrix, so profiles, systems and
solutions are ``Fraction`` throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .chardata import TableSlice, format_rational


class Inconsistent(Exception):
    """The character profile admits no exact augmentation solution."""


class Underdetermined(Exception):
    """The support is too large for the available character rows."""


@dataclass(frozen=True)
class AugVector:
    support: tuple[str, ...]
    values: dict[str, Fraction]

    def __post_init__(self):
        if sum(self.values[x] for x in self.support) != 1:
            raise ValueError("partial augmentations must sum to 1")

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for v in self.values.values())

    def as_tuple(self) -> tuple[Fraction, ...]:
        return tuple(self.values[x] for x in self.support)

    def to_json(self) -> dict[str, str]:
        return {x: format_rational(self.values[x]) for x in self.support}


@dataclass(frozen=True)
class CharProfile:
    table: TableSlice
    values: dict[str, Fraction] = field(default_factory=dict)


def _solve_exact(rows: list[list[Fraction]], rhs: list[Fraction], n: int):
    """Solve an overdetermined rational system exactly.

    Uses the first rows that increase rank, then checks every remaining row.
    """
    basis: list[tuple[int, list[Fraction], Fraction]] = []
    for row, r in zip(rows, rhs):
        row = [Fraction(a) for a in row]
        r = Fraction(r)
        for pcol, brow, br in basis:
            f = row[pcol]
            if f:
                row = [a - f * b for a, b in zip(row, brow)]
                r = r - f * br
        pivot = next((j for j, a in enumerate(row) if a), None)
        if pivot is None:
            if r != 0:
                raise Inconsistent("zero row with nonzero residual")
            continue
        inv = Fraction(1) / row[pivot]
        basis.append((pivot, [a * inv for a in row], r * inv))
    if len(basis) < n:
        raise Underdetermined(f"rank {len(basis)} < {n} unknowns")
    # back-substitute: eliminate later pivots from earlier basis rows
    for i in range(len(basis) - 1, -1, -1):
        pcol, prow, pr = basis[i]
        for j in range(i):
            qcol, qrow, qr = basis[j]
            f = qrow[pcol]
            if f:
                basis[j] = (
                    qcol,
                    [a - f * b for a, b in zip(qrow, prow)],
                    qr - f * pr,
                )
    sol = [Fraction(0)] * n
    for pcol, _row, r in basis:
        sol[pcol] = r
    # final exact verification of every input row
    for row, r in zip(rows, rhs):
        if sum(a * s for a, s in zip(row, sol)) != r:
            raise Inconsistent("solved subsystem contradicts a remaining row")
    return sol


def invert_profile(profile: CharProfile, support: list[str]) -> AugVector:
    """Recover partial augmentations on `support` from a character profile.

    The identity class is excluded from the support (a nontrivial torsion
    unit has partial augmentation 0 there); the augmentation-one row is
    solved together with one equation per character row, and every row must
    hold exactly.
    """
    table = profile.table
    if "1" in support:
        raise ValueError("support must exclude the identity class")
    missing = [ch.name for ch in table.chars if ch.name not in profile.values]
    if missing:
        raise ValueError(f"profile misses rows: {missing}")
    n = len(support)
    rows: list[list[Fraction]] = [[Fraction(1)] * n]
    rhs: list[Fraction] = [Fraction(1)]
    for ch in table.chars:
        rows.append([ch.values[x] for x in support])
        rhs.append(Fraction(profile.values[ch.name]))
    sol = _solve_exact(rows, rhs, n)
    return AugVector(tuple(support), dict(zip(support, sol)))


def synthesize_profile(table: TableSlice, aug: AugVector) -> CharProfile:
    """Character profile of a hypothetical unit with the given augmentations."""
    values = {
        ch.name: sum(aug.values[x] * ch.values[x] for x in aug.support)
        for ch in table.chars
    }
    return CharProfile(table, values)


def mrsw_conjugate_to_group_element(a: AugVector) -> bool:
    """True iff all partial augmentations are non-negative."""
    return all(a.values[x] >= 0 for x in a.support)


def admissible_subgroup(order: int, exponent: int,
                        g_order: int, g_exponent: int) -> bool:
    """Order and exponent of a finite unit subgroup must divide those of G."""
    if min(order, exponent, g_order, g_exponent) < 1:
        raise ValueError("all arguments must be positive")
    return g_order % order == 0 and g_exponent % exponent == 0
