"""Exact arithmetic in the cyclotomic field Q(zeta_p), p prime.

Every unit this package studies has prime order p, so the multiplicities of
a character restricted to it lie in Q(zeta_p).  A :class:`Cyclotomic` holds
Fraction coefficients of zeta^0 .. zeta^(p-2).  The only relation among the
p powers of zeta is 1 + zeta + ... + zeta^(p-1) = 0, so a sum over all p
powers is reduced by subtracting the coefficient of zeta^(p-1) from the
others, and equal values have identical coefficients.  Two fields Q(zeta_p)
and Q(zeta_l) share only the rationals: values of different orders are
equal only when both are the same rational, and arithmetic mixing two
orders raises ``ValueError``.
"""

from __future__ import annotations

from fractions import Fraction

from .finitefield import is_prime


class NotRational(Exception):
    """The cyclotomic number does not lie in Q."""


def _check_order(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"order {p} is not prime")


class Cyclotomic:
    """An element of Q(zeta_p) by its coefficients of zeta^0 .. zeta^(p-2)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs) -> None:
        _check_order(order)
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) > order - 1:
            raise ValueError("too many coefficients; use from_exponents for raw input")
        self.order = order
        self.coeffs = tuple(coeffs + [Fraction(0)] * (order - 1 - len(coeffs)))

    @staticmethod
    def _reduce(p: int, slots: list[Fraction]) -> "Cyclotomic":
        """The value sum_k slots[k] * zeta^k over all p powers of zeta."""
        return Cyclotomic(p, [c - slots[-1] for c in slots[:-1]])

    @classmethod
    def from_exponents(cls, p: int, terms: dict[int, Fraction]) -> "Cyclotomic":
        """Sum of coeff * zeta_p^exp with arbitrary integer exponents."""
        _check_order(p)
        slots = [Fraction(0)] * p
        for exp, coeff in terms.items():
            slots[exp % p] += coeff
        return cls._reduce(p, slots)

    @classmethod
    def from_rational(cls, x: int | Fraction, order: int) -> "Cyclotomic":
        return cls(order, [x])

    def _same_order(self, other) -> "Cyclotomic":
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.order, [other])
        if other.order != self.order:
            raise ValueError(f"cannot mix orders {self.order} and {other.order}")
        return other

    def __add__(self, other):
        other = self._same_order(other)
        return Cyclotomic(
            self.order, [x + y for x, y in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return Cyclotomic(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._same_order(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.order, [c * other for c in self.coeffs])
        other = self._same_order(other)
        p = self.order
        slots = [Fraction(0)] * p
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    slots[(i + j) % p] += a * b
        return Cyclotomic._reduce(p, slots)

    def inv(self) -> "Cyclotomic":
        """Product of the conjugates zeta -> zeta^s, 1 < s < p, over the norm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic")
        p = self.order
        others = Cyclotomic(p, [1])
        for s in range(2, p):
            others = others * Cyclotomic.from_exponents(
                p, {i * s: c for i, c in enumerate(self.coeffs)})
        return others * (1 / (self * others).as_rational())

    def is_zero(self) -> bool:
        return all(not c for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(not c for c in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise NotRational(f"{self!r} has nonzero higher coefficients")
        return self.coeffs[0]

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        if other.order != self.order:
            return other.is_rational() and self == other.coeffs[0]
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        terms = [f"{c}*z{self.order}^{i}" for i, c in enumerate(self.coeffs) if c]
        return " + ".join(terms) or "0"


def cyclo(n: int, k: int) -> Cyclotomic:
    """The root of unity zeta_n^k, reduced; n must be prime."""
    return Cyclotomic.from_exponents(n, {k: Fraction(1)})
