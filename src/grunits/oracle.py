"""Brute-force ground truth for the groups in scope.

PSL(2,9), PSL(2,25), PSL(2,49) and PSL(3,3) are listed from their
definition, not by closure under generators: every canonical projective
matrix of determinant 1 over the finite field, in increasing order.  (The
tests keep the closure as the reference for that list.)  Orders, exponents
and conjugacy classes computed here are the oracle against which character
slices and the square-class model of the Sylow subgroup are validated.

Each group is one class, `PSL2` or `PSL3`, holding its canonical product,
identity, generators, closed-form order and the listing `generate`.  A
PSL(2,p^2) element is the 4-tuple (a, b, c, d) of field codes of
[[a, b], [c, d]]: F_(p^2) is numbered code(a0 + a1*w) = a0*p + a1, and
sums, products, negatives and inverses are look-ups in tables built once
per group from `fq_make(p)`.  Code order is the order of the (a0, a1)
pairs, so the 4-tuples sort as the flat tuples of matrix entries would.  A
PSL(3,3) element is the row-major 9-tuple of its entries over F_3.

Element orders are found once per cyclic subgroup: the powers x, x^2, ...,
x^k = 1 of an element whose order is not yet known are walked once, and
x^j is recorded with order k / gcd(j, k).  The exponent and the order-p
classes read that list.  Conjugacy orbits walk a small generating set: the
unipotents x(1), x(w) and y(1) for PSL(2,p^2), and I + E_12 with the
3-cycle permutation matrix for PSL(3,3).
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
    (a generating set, which the conjugacy orbits walk), the product
    `mul`, which returns the canonical representative, and `generate`,
    which lists the group in increasing order.
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
            index, identity, mul = self._index, self.identity, self.mul
            orders = [0] * len(self.elements)
            for i, x in enumerate(self.elements):
                if orders[i]:
                    continue
                powers, acc = [i], x
                while acc != identity:
                    acc = mul(acc, x)
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
        mul, conjugators = self.mul, []
        for g in self.generators:
            ginv = g
            while (nxt := mul(ginv, g)) != self.identity:
                ginv = nxt
            conjugators.append((ginv, g))
        orbit, frontier = {x}, [x]
        while frontier:
            nxt = []
            for y in frontier:
                for ginv, g in conjugators:
                    z = mul(mul(ginv, y), g)
                    if z not in orbit:
                        orbit.add(z)
                        nxt.append(z)
            frontier = nxt
        return orbit

    def order_p_classes(self) -> list[tuple]:
        """(minimal representative, class size) for each class of elements
        whose order is the group's own modulus `p`, in increasing order."""
        remaining = {x for x, k in zip(self.elements, self.orders())
                     if k == self.p}
        classes = []
        while remaining:
            rep = min(remaining)
            orbit = self.conjugacy_class(rep)
            classes.append((rep, len(orbit)))
            remaining -= orbit
        return classes


class PSL2(GroupOracle):
    """PSL(2, p^2) via canonical +/- representatives of SL(2, p^2), as
    4-tuples of field codes; of x and -x the smaller is canonical."""

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
        f = fq_make(p)
        field = list(f.elements())  # (a0, a1) pairs, in code order
        code = {e: i for i, e in enumerate(field)}
        self._prod = [[code[f.mul(x, y)] for y in field] for x in field]
        self._sum = [[code[f.add(x, y)] for y in field] for x in field]
        self._neg = [code[f.neg(x)] for x in field]
        # zero has no inverse; its slot is never read
        self._inv = [0] + [code[f.inv(x)] for x in field[1:]]
        one = code[f.one]
        self.identity = (one, 0, 0, one)
        # x(1), x(w) and y(1); y(w) is not needed
        self.generators = [(one, one, 0, one), (one, 1, 0, one),
                           (one, 0, one, one)]

    def mul(self, x, y):
        prod, s = self._prod, self._sum
        a, b, c, d = x
        e, g, h, i = y
        pa, pb, pc, pd = prod[a], prod[b], prod[c], prod[d]
        return self.canon((s[pa[e]][pb[h]], s[pa[g]][pb[i]],
                           s[pc[e]][pd[h]], s[pc[g]][pd[i]]))

    def canon(self, x):
        # the smaller of x and -x: they first differ at the first nonzero
        # entry v, and x is the smaller when v < -v in code order
        neg = self._neg
        a, b, c, d = x
        v = a or b or c or d
        if v < neg[v]:
            return x
        return (neg[a], neg[b], neg[c], neg[d])

    def generate(self) -> list[tuple]:
        # A first row (a, b) is nonzero, so it holds the first nonzero entry
        # v, and the matrix is canonical when v < -v.  Each such row has q
        # second rows (c, d) with ad - bc = 1: d = (1 + bc)/a for each c
        # when a != 0, and c = -1/b with d free when a = 0.  Listing c, or
        # d, in code order keeps the whole list increasing.
        prod, neg, inv = self._prod, self._neg, self._inv
        plus_one = self._sum[self.identity[0]]
        codes = range(len(neg))
        out = []
        for a, b in product(codes, repeat=2):
            v = a or b
            if not v or v > neg[v]:
                continue
            if a:
                by_b, over_a = prod[b], prod[inv[a]]
                out.extend((a, b, c, over_a[plus_one[by_b[c]]])
                           for c in codes)
            else:
                out.extend((0, b, neg[inv[b]], d) for d in codes)
        return out

    def unipotent(self, lam) -> tuple:
        """The upper unipotent with parameter lam, an (a0, a1) pair of
        F_(p^2); its first nonzero entry is 1, so it is canonical."""
        one = self.identity[0]
        return (one, lam[0] * self.p + lam[1], 0, one)


class PSL3(GroupOracle):
    """PSL(3,3) = SL(3,3), whose centre is trivial."""

    name, p, expected_order = "PSL(3,3)", 3, 5616
    # 312 = lcm(13, 8, 6, 3); the order-3 classes are the transvections and
    # the regular unipotents
    expected_exponent, expected_class_sizes = 312, [104, 624]
    identity = (1, 0, 0, 0, 1, 0, 0, 0, 1)
    # I + E_12 and the 3-cycle permutation matrix; their conjugates
    # I + E_23 and I + E_31 have every other transvection as a commutator
    generators = [(1, 1, 0, 0, 1, 0, 0, 0, 1), (0, 1, 0, 0, 0, 1, 1, 0, 0)]

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

    def generate(self) -> list[tuple]:
        # det [r1; r2; r3] = r3 . (r1 x r2), so each pair of first rows takes
        # the third rows r3 with r3 . n = 1 for n = r1 x r2, none when n = 0;
        # rows in product order keep the whole list increasing
        rows = list(product(range(3), repeat=3))
        thirds = {n: [r for r in rows
                      if (r[0] * n[0] + r[1] * n[1] + r[2] * n[2]) % 3 == 1]
                  for n in rows}
        out = []
        for r1, r2 in product(rows, repeat=2):
            (a, b, c), (d, e, f_) = r1, r2
            n = ((b * f_ - c * e) % 3, (c * d - a * f_) % 3,
                 (a * e - b * d) % 3)
            out.extend(r1 + r2 + r3 for r3 in thirds[n])
        return out


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
    in_c1 = {lam: group.unipotent(lam) in c1 for lam in nonzero}
    for lam in nonzero:
        if in_c1[lam] == (group.unipotent(lam) in ct):
            return False  # unipotents must split into exactly these two classes
    for lam in nonzero:
        for mu in nonzero:
            same = in_c1[lam] == in_c1[mu]
            if same != f.is_square(f.mul(mu, f.inv(lam))):
                return False
    return True
