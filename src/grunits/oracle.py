"""Brute-force ground truth for the groups in scope.

PSL(2,9), PSL(2,25), PSL(2,49) and PSL(3,3) are listed by determinant, not
by closure under generators: every canonical projective matrix of
determinant 1 over the finite field, in increasing order.  (The tests keep
the closure as the reference for that list.)  Orders, exponents and
conjugacy classes computed here are the oracle against which character
slices and the square-class model of the Sylow subgroup are validated.

Each group is one class, `PSL2` or `PSL3`, holding its canonical product,
identity, generators, closed-form order and the listing `generate`.  An
element is the flat tuple of its matrix entries: (a0, a1, b0, b1, c0, c1,
d0, d1) for [[a, b], [c, d]] over F_(p^2), and the row-major 9-tuple over
F_3.

Element orders are found once per cyclic subgroup: the powers x, x^2, ...,
x^k = 1 of an element whose order is not yet known are walked once, and
x^j is recorded with order k / gcd(j, k).  The exponent and the order-p
classes read that list.
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import product
from math import gcd, isqrt, lcm

from .finitefield import fq_make, is_prime


ORDER_CAP = 100_000


class GroupOracle:
    """An enumerated finite matrix group with canonical representatives.

    A subclass describes one group: `name`, modulus `p`, the closed forms
    `expected_order`, `expected_exponent` and `expected_class_sizes` (of
    the order-p classes, in increasing order), `identity`, `generators`
    (which the conjugacy orbits walk), the product `mul`, which returns
    the canonical representative, and `generate`, which lists the group in
    increasing order.
    """

    def __init__(self) -> None:
        self.elements: list[tuple] = []
        self._index: dict = {}
        self._orders: list[int] | None = None

    def enumerate(self) -> "GroupOracle":
        self.elements = self.generate()
        self._index = {e: i for i, e in enumerate(self.elements)}
        self._orders = None
        return self

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_order(self, x) -> int:
        """The order of x by multiplying until the identity; the reference
        for `orders`."""
        k, acc = 1, x
        while acc != self.identity:
            acc = self.mul(acc, x)
            k += 1
        return k

    def orders(self) -> list[int]:
        """The order of each element, in the order of `elements`."""
        if self._orders is None:
            index, identity = self._index, self.identity
            orders = [0] * len(self.elements)
            for i, x in enumerate(self.elements):
                if orders[i]:
                    continue
                powers = [i]
                acc = x
                while acc != identity:
                    acc = self.mul(acc, x)
                    powers.append(index[acc])
                k = len(powers)
                for j, at in enumerate(powers, 1):
                    orders[at] = k // gcd(j, k)
            self._orders = orders
        return self._orders

    def exponent(self) -> int:
        return lcm(*set(self.orders()))

    def conjugacy_class(self, x) -> set:
        # g^-1 is a power of g, so the generators alone give the whole orbit;
        # it is the last power of g before the identity
        conjugators = []
        for g in self.generators:
            ginv = g
            while (nxt := self.mul(ginv, g)) != self.identity:
                ginv = nxt
            conjugators.append((ginv, g))
        orbit = {x}
        frontier = [x]
        while frontier:
            nxt = []
            for y in frontier:
                for ginv, g in conjugators:
                    z = self.mul(self.mul(ginv, y), g)
                    if z not in orbit:
                        orbit.add(z)
                        nxt.append(z)
            frontier = nxt
        return orbit

    def _classes_of(self, remaining: set) -> list[tuple]:
        """(minimal representative, class size) for each class in
        `remaining`, a union of classes that this empties."""
        classes = []
        while remaining:
            rep = min(remaining)
            orbit = self.conjugacy_class(rep)
            classes.append((rep, len(orbit)))
            remaining -= orbit
        return classes

    def order_p_classes(self) -> list[tuple]:
        """(representative, class size) for each class of elements whose
        order is the group's own modulus `p`."""
        return self._classes_of(
            {x for x, k in zip(self.elements, self.orders()) if k == self.p})

    def full_class_partition(self) -> list[tuple]:
        return self._classes_of(set(self.elements))


class PSL2(GroupOracle):
    """PSL(2, p^2) via canonical +/- representatives of SL(2, p^2); entries
    are a0 + a1*w with w^2 = t, the field's non-residue."""

    identity = (1, 0, 0, 0, 0, 0, 1, 0)
    generators = [(1, 0, 1, 0, 0, 0, 1, 0), (1, 0, 0, 1, 0, 0, 1, 0),
                  (1, 0, 0, 0, 1, 0, 1, 0), (1, 0, 0, 0, 0, 1, 1, 0)]

    def __init__(self, p: int) -> None:
        super().__init__()
        q = p * p
        self.name, self.p = f"PSL(2,{q})", p
        self.expected_order = q * (q * q - 1) // 2
        # orders p, the divisors of (q-1)/2 (split torus) and of (q+1)/2
        # (non-split torus); two unipotent classes of (q^2-1)/2 each
        self.expected_exponent = lcm(p, (q - 1) // 2, (q + 1) // 2)
        self.expected_class_sizes = [(q * q - 1) // 2] * 2
        if self.expected_order > ORDER_CAP:
            raise ValueError(f"PSL(2,{q}) exceeds the enumeration cap")
        if not is_prime(p):
            raise ValueError(f"q = {q} is not the square of an odd prime")
        self.t = fq_make(p).t

    def mul(self, x, y):
        p, t = self.p, self.t
        a0, a1, b0, b1, c0, c1, d0, d1 = x
        e0, e1, g0, g1, h0, h1, i0, i1 = y
        return self.canon((
            (a0 * e0 + b0 * h0 + t * (a1 * e1 + b1 * h1)) % p,
            (a0 * e1 + a1 * e0 + b0 * h1 + b1 * h0) % p,
            (a0 * g0 + b0 * i0 + t * (a1 * g1 + b1 * i1)) % p,
            (a0 * g1 + a1 * g0 + b0 * i1 + b1 * i0) % p,
            (c0 * e0 + d0 * h0 + t * (c1 * e1 + d1 * h1)) % p,
            (c0 * e1 + c1 * e0 + d0 * h1 + d1 * h0) % p,
            (c0 * g0 + d0 * i0 + t * (c1 * g1 + d1 * i1)) % p,
            (c0 * g1 + c1 * g0 + d0 * i1 + d1 * i0) % p,
        ))

    def canon(self, x):
        # the smaller of x and -x: they first differ at the first nonzero
        # entry v, and x is the smaller when v < p - v
        p = self.p
        a0, a1, b0, b1, c0, c1, d0, d1 = x
        if 2 * (a0 or a1 or b0 or b1 or c0 or c1 or d0 or d1) < p:
            return x
        return (-a0 % p, -a1 % p, -b0 % p, -b1 % p,
                -c0 % p, -c1 % p, -d0 % p, -d1 % p)

    def generate(self) -> list[tuple]:
        # A first row (a, b) is nonzero, so it holds the first nonzero entry
        # v, and the matrix is canonical when 2v < p.  Each such row has q
        # second rows (c, d) with ad - bc = 1: d = (1 + bc)/a for each c
        # when a != 0, and c = -1/b with d free when a = 0.  Listing c, or
        # d, in field order keeps the whole list increasing.
        p, t = self.p, self.t
        field = list(product(range(p), repeat=2))
        out = []
        for a0, a1, b0, b1 in product(range(p), repeat=4):
            v = a0 or a1 or b0 or b1
            if not v or 2 * v >= p:
                continue
            if a0 or a1:
                n = pow(a0 * a0 - t * a1 * a1, -1, p)  # 1 / norm(a)
                i0, i1 = a0 * n % p, -a1 * n % p  # 1/a
                for c0, c1 in field:
                    s0 = 1 + b0 * c0 + t * b1 * c1
                    s1 = b0 * c1 + b1 * c0
                    out.append((a0, a1, b0, b1, c0, c1,
                                (s0 * i0 + t * s1 * i1) % p,
                                (s0 * i1 + s1 * i0) % p))
            else:
                n = pow(b0 * b0 - t * b1 * b1, -1, p)
                c0, c1 = -b0 * n % p, b1 * n % p  # -1/b
                out.extend((0, 0, b0, b1, c0, c1, d0, d1) for d0, d1 in field)
        return out

    def unipotent(self, lam) -> tuple:
        """Canonical representative of the upper unipotent with parameter
        lam, an element of F_(p^2)."""
        return self.canon((1, 0, *lam, 0, 0, 1, 0))


class PSL3(GroupOracle):
    """PSL(3,3) = SL(3,3), whose centre is trivial."""

    name, p, expected_order = "PSL(3,3)", 3, 5616
    # 312 = lcm(13, 8, 6, 3); the order-3 classes are the transvections and
    # the regular unipotents
    expected_exponent, expected_class_sizes = 312, [104, 624]
    identity = (1, 0, 0, 0, 1, 0, 0, 0, 1)
    # the elementary transvections I + E_ij, i != j
    generators = [tuple(int(k in (0, 4, 8, 3 * i + j)) for k in range(9))
                  for i in range(3) for j in range(3) if i != j]

    def mul(self, x, y):
        a, b, c, d, e, f_, g, h, i = x
        j, k, l_, m, n, o, r, s, u = y
        return (
            (a * j + b * m + c * r) % 3, (a * k + b * n + c * s) % 3,
            (a * l_ + b * o + c * u) % 3,
            (d * j + e * m + f_ * r) % 3, (d * k + e * n + f_ * s) % 3,
            (d * l_ + e * o + f_ * u) % 3,
            (g * j + h * m + i * r) % 3, (g * k + h * n + i * s) % 3,
            (g * l_ + h * o + i * u) % 3,
        )

    def det_is_one(self, x) -> bool:
        a, b, c, d, e, f_, g, h, i = x
        return (a * (e * i - f_ * h) - b * (d * i - f_ * g)
                + c * (d * h - e * g)) % 3 == 1

    def generate(self) -> list[tuple]:
        return [x for x in product(range(3), repeat=9) if self.det_is_one(x)]


# -- construction -------------------------------------------------------------


def cache_dir() -> str:
    # The oracle caches nothing; only perfbench/child.py still calls this.
    return os.path.join(os.path.expanduser("~"), ".cache", "grunits")


def enumerate_group(kind: str, q: int = 3) -> GroupOracle:
    """Enumerate PSL(2,q) (q = p^2) or PSL(3,3) from its definition."""
    if kind == "psl2":
        p = isqrt(q) if q >= 1 else 0
        if p * p != q or p == 2:
            raise ValueError(f"q = {q} is not the square of an odd prime")
        group = PSL2(p)  # tests the order cap before primality
    elif kind == "psl3":
        if q != 3:
            raise ValueError("only PSL(3,3) is supported")
        group = PSL3()
    else:
        raise ValueError(f"unknown group kind {kind!r}")
    return group.enumerate()


@lru_cache(maxsize=None)
def cached_group(kind: str, q: int = 3) -> GroupOracle:
    return enumerate_group(kind, q)


def check_square_criterion(p: int) -> bool:
    """Unipotents with parameters lam, mu are conjugate in PSL(2,p^2)
    exactly when mu/lam is a square of F_(p^2)."""
    if p not in (3, 5, 7):
        raise ValueError("exhaustive conjugacy check is limited to p in "
                         "{3, 5, 7}")
    f = fq_make(p)
    group = cached_group("psl2", p * p)
    nonzero = [e for e in f.elements() if e != f.zero]
    mu0 = next(e for e in nonzero if not f.is_square(e))
    c1 = group.conjugacy_class(group.unipotent(f.one))
    ct = group.conjugacy_class(group.unipotent(mu0))
    for lam in nonzero:
        u = group.unipotent(lam)
        if (u in c1) == (u in ct):
            return False  # unipotents must split into exactly these two classes
    for lam in nonzero:
        for mu in nonzero:
            same = (group.unipotent(lam) in c1) == (group.unipotent(mu) in c1)
            if same != f.is_square(f.mul(mu, f.inv(lam))):
                return False
    return True
