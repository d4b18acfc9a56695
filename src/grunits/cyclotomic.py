"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Rational scalars are ``fractions.Fraction`` (always reduced, positive
denominator).  A :class:`Cyclotomic` is a Q-linear combination of powers
zeta_n^0 .. zeta_n^(phi(n)-1), kept reduced modulo the n-th cyclotomic
polynomial, so equal values always have identical coefficient vectors.
Operands of different order are compared and combined through the
embedding into Q(zeta_lcm).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd


class NotRational(Exception):
    """The cyclotomic number does not lie in Q."""


RationalLike = int | Fraction


def format_rational(x: Fraction | int) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s: str) -> Fraction:
    return Fraction(s.strip())


def euler_phi(n: int) -> int:
    result = n
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            result -= result // d
        d += 1
    if m > 1:
        result -= result // m
    return result


def _poly_divmod_exact(num: list[int], den: list[int]) -> list[int]:
    """Quotient of integer polynomials known to divide exactly (ascending coeffs)."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1] // den[-1]
        q[i] = c
        for j, d in enumerate(den):
            num[i + j] -= c * d
    assert all(c == 0 for c in num)
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending, monic."""
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            num = _poly_divmod_exact(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


@lru_cache(maxsize=None)
def _power_basis(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """Row k (0 <= k < n): coefficients of zeta_n^k in the power basis."""
    phi = euler_phi(n)
    poly = cyclotomic_polynomial(n)
    # zeta^phi = -(c_0 + c_1 zeta + ... + c_{phi-1} zeta^{phi-1})
    rows: list[tuple[Fraction, ...]] = []
    for k in range(phi):
        rows.append(tuple(Fraction(1 if i == k else 0) for i in range(phi)))
    for k in range(phi, n):
        prev = rows[k - 1]
        shifted = [Fraction(0)] + list(prev[:-1])
        lead = prev[-1]
        if lead:
            for i in range(phi):
                shifted[i] -= lead * poly[i]
        rows.append(tuple(shifted))
    return tuple(rows)


class Cyclotomic:
    """An element of Q(zeta_n) in reduced power-basis form."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs) -> None:
        if order < 1:
            raise ValueError("order must be positive")
        phi = euler_phi(order)
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) > phi:
            raise ValueError("too many coefficients; use from_exponents for raw input")
        coeffs += [Fraction(0)] * (phi - len(coeffs))
        self.order = order
        self.coeffs = tuple(coeffs)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_exponents(cls, order: int, terms: dict[int, Fraction]) -> "Cyclotomic":
        """Sum of coeff * zeta_order^exp with arbitrary integer exponents."""
        basis = _power_basis(order)
        phi = euler_phi(order)
        acc = [Fraction(0)] * phi
        for exp, coeff in terms.items():
            if not coeff:
                continue
            row = basis[exp % order]
            for i in range(phi):
                acc[i] += coeff * row[i]
        return cls(order, acc)

    @classmethod
    def from_rational(cls, x: RationalLike, order: int = 1) -> "Cyclotomic":
        return cls(order, [Fraction(x)])

    # -- order coercion ---------------------------------------------------

    def embed(self, order: int) -> "Cyclotomic":
        """Image under Q(zeta_n) -> Q(zeta_m), zeta_n |-> zeta_m^(m/n)."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError(f"cannot embed order {self.order} into {order}")
        step = order // self.order
        return Cyclotomic.from_exponents(
            order, {j * step: c for j, c in enumerate(self.coeffs)}
        )

    @staticmethod
    def _coerce_pair(a: "Cyclotomic", b: "Cyclotomic"):
        if a.order == b.order:
            return a, b
        m = a.order * b.order // gcd(a.order, b.order)
        return a.embed(m), b.embed(m)

    @staticmethod
    def _as_cyclo(x, order: int) -> "Cyclotomic":
        if isinstance(x, Cyclotomic):
            return x
        return Cyclotomic.from_rational(Fraction(x), order)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = Cyclotomic._as_cyclo(other, self.order)
        a, b = Cyclotomic._coerce_pair(self, other)
        return Cyclotomic(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-Cyclotomic._as_cyclo(other, self.order))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.order, [c * other for c in self.coeffs])
        a, b = Cyclotomic._coerce_pair(self, other)
        terms: dict[int, Fraction] = {}
        for i, ci in enumerate(a.coeffs):
            if not ci:
                continue
            for j, cj in enumerate(b.coeffs):
                if not cj:
                    continue
                terms[i + j] = terms.get(i + j, Fraction(0)) + ci * cj
        return Cyclotomic.from_exponents(a.order, terms)

    __rmul__ = __mul__

    def inv(self) -> "Cyclotomic":
        """Multiplicative inverse via the extended Euclidean algorithm mod Phi_n."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic")
        phi_poly = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        # gcd(self, Phi_n) = 1 in Q[x]; track Bezout coefficient of self.
        r0, r1 = phi_poly, list(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while any(r1):
            while r1 and not r1[-1]:
                r1.pop()
            q, rem = _qpoly_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _qpoly_sub(s0, _qpoly_mul(q, s1))
        while r0 and not r0[-1]:
            r0.pop()
        assert len(r0) == 1  # gcd is a nonzero constant
        c = r0[0]
        return Cyclotomic.from_exponents(
            self.order, {i: s / c for i, s in enumerate(s0)}
        )

    def __truediv__(self, other):
        other = Cyclotomic._as_cyclo(other, self.order)
        return self * other.inv()

    def __pow__(self, k: int) -> "Cyclotomic":
        if k < 0:
            return self.inv() ** (-k)
        result = Cyclotomic.from_rational(1, self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conj(self) -> "Cyclotomic":
        """Complex conjugation, zeta_n |-> zeta_n^(-1)."""
        return Cyclotomic.from_exponents(
            self.order, {-j % self.order: c for j, c in enumerate(self.coeffs)}
        )

    # -- predicates and conversion -----------------------------------------

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
        a, b = Cyclotomic._coerce_pair(self, other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.order, self.coeffs))

    def __repr__(self) -> str:
        terms = [
            f"{format_rational(c)}*z{self.order}^{i}"
            for i, c in enumerate(self.coeffs)
            if c
        ]
        return " + ".join(terms) if terms else "0"

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "coeffs": [format_rational(c) for c in self.coeffs],
        }


def _qpoly_divmod(num: list[Fraction], den: list[Fraction]):
    num = list(num)
    den = list(den)
    while den and not den[-1]:
        den.pop()
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    for i in range(len(q) - 1, -1, -1):
        if num[i + len(den) - 1] == 0:
            continue
        c = num[i + len(den) - 1] / den[-1]
        q[i] = c
        for j, d in enumerate(den):
            num[i + j] -= c * d
    return q, num[: len(den) - 1] or [Fraction(0)]


def _qpoly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _qpoly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def cyclo(n: int, k: int) -> Cyclotomic:
    """The root of unity zeta_n^k, reduced."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Cyclotomic.from_exponents(n, {k % n: Fraction(1)})
