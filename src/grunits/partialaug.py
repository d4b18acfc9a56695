"""Partial-augmentation vectors and their interplay with character values.

A unit u of augmentation one with support on the order-p classes satisfies
chi(u) = sum_x eps_x(u) chi(x) for every irreducible chi.  Every group in
scope has exactly two such classes (c, d in PSL(2,p^2); a, b in PSL(3,3)),
so augmentation one and a single row separating them give the partial
augmentations in closed form, and the other rows are checked against that
solution.  The Marciniak-Ritter-Sehgal-Weiss criterion then reads rational
conjugacy to a group element off their signs.

Every character value on the slices this package uses is rational, and so
is the trace of an exact rational matrix, so profiles and solutions are
``Fraction`` throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .chardata import TableSlice, format_rational


class Inconsistent(Exception):
    """The character profile admits no exact augmentation solution."""


class Underdetermined(Exception):
    """No character row separates the two support classes."""


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


def invert_profile(profile: CharProfile, support: list[str]) -> AugVector:
    """Recover the partial augmentations on a two-class support from a
    character profile.

    The identity class is excluded from the support (a nontrivial torsion
    unit has partial augmentation 0 there).  Augmentation one gives
    eps_x + eps_y = 1, so the first row chi with chi(x) != chi(y) gives
    eps_x = (chi(u) - chi(y)) / (chi(x) - chi(y)); every row must then hold
    exactly.
    """
    table = profile.table
    if "1" in support:
        raise ValueError("support must exclude the identity class")
    if len(support) != 2:
        raise ValueError(f"support must be two classes, not {support}")
    missing = [ch.name for ch in table.chars if ch.name not in profile.values]
    if missing:
        raise ValueError(f"profile misses rows: {missing}")
    x, y = support
    sep = next((ch for ch in table.chars if ch.values[x] != ch.values[y]), None)
    if sep is None:
        raise Underdetermined(f"no row separates classes {x} and {y}")
    ex = ((Fraction(profile.values[sep.name]) - sep.values[y])
          / (sep.values[x] - sep.values[y]))
    ey = 1 - ex
    for ch in table.chars:
        if ex * ch.values[x] + ey * ch.values[y] != profile.values[ch.name]:
            raise Inconsistent(f"row {ch.name} contradicts eps = ({ex}, {ey})")
    return AugVector((x, y), {x: ex, y: ey})


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

