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
per group from `fq_make(p)`; the product picks its sign itself.  A
PSL(3,3) element is the triple of its row codes 9a + 3b + c, and a product
row is one integer dot product with the other factor's rows spread into
base-13 fields, reduced mod 3 by look-up.  Both codes keep order, so the
tuples sort as the flat tuples of matrix entries would.

Element orders are found once per cyclic subgroup: the powers x, x^2, ...,
x^k = 1 of an element whose order is not yet known are walked once, and
x^j is recorded with order k / gcd(j, k), read from one list per k.  Each
group walks its powers itself (`power_positions`): the product acc * x is
`mul` inlined, with x's product rows (PSL(2,p^2)) or spread rows
(PSL(3,3)) bound once per walk, and the tests pin it to repeated `mul`.
The walk reads each power's position off the listing's own layout, which
`generate` records in the loop that lists the elements: the start of each
first row's block in PSL(2,p^2), where c (or d when a = 0) is the offset,
and in PSL(3,3) the start of each pair of first rows' block with the rank
of each third row among those of determinant 1.  A row the listing never
holds is UNLISTED, and a PSL(2,p^2) power is listed only when its other
entry matches the element at its place, so membership stays exact; no
tuple is built per step.  The exponent and the order-p classes read the
list of orders.
Conjugacy orbits are lists of positions too (`orbit_positions`), walked
breadth first under conjugation by two generators: x(1) and y(1 + w) for
PSL(2,p^2), I + E_12 and the 3-cycle permutation matrix for PSL(3,3).
Each pair (g^-1, g) is found once per group: g^-1 is the power of g just
before the identity, read off g's own power walk.  Each conjugate
g^-1 y g is `mul` inlined, with the pair's rows bound once, and its
position is read off the layout, so a conjugate outside the listing raises
an AssertionError naming y.  Every power walk stops after the group order
steps, and the order walk also at a power outside the listing: a faulty
product raises an AssertionError naming the element instead of looping
for ever.

`check_square_criterion` tests the square-class model (u(lam) and u(mu)
conjugate exactly when mu/lam is a square) once per lam, not per pair,
on the square table `Fq.check_squares` certifies as the subgroup of index
2.  It runs wherever the group fits under ORDER_CAP: p <= 7.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from functools import cached_property, lru_cache
from itertools import product
from math import gcd, isqrt, lcm

from .finitefield import check_odd_prime, fq_make


ORDER_CAP = 100_000
# the layout's mark for a row that leads no listed element: any offset added
# to it stays below every position, and below -ORDER_CAP
UNLISTED = -2 * ORDER_CAP


class GroupOracle:
    """An enumerated finite matrix group with canonical representatives.

    A subclass describes one group: `name`, modulus `p`, the closed forms
    `expected_order`, `expected_exponent` and `expected_class_sizes` (of
    the order-p classes, in increasing order), `identity`, `generators`
    (two elements that generate the group, the conjugators of every
    orbit), the product `mul`, which returns the canonical representative
    and is the reference the tests pin the walks below to,
    `generate`, which lists the group in increasing order and records its
    layout, `power_positions(x)`, the positions in `elements` of x, x^2,
    ..., up to the identity, read off that layout: the `_no_identity(x)`
    error when a power is not listed or after the group order steps, and
    `orbit_positions(i)`, the positions of the class of the element at
    position i in breadth-first order: the `_left_listing(y)` error when a
    conjugate of y is not listed.
    """

    def __init__(self) -> None:
        self.elements: list[tuple] = []
        self._orders: list[int] | None = None

    def enumerate(self) -> "GroupOracle":
        self.elements = self.generate()
        self._orders = None
        return self

    @property
    def order(self) -> int:
        return len(self.elements)

    def _no_identity(self, x) -> AssertionError:
        # the powers of x leave the group or outlast its order: `mul` is at
        # fault, and a walk without this bound would never end
        return AssertionError(f"{self.name}: the powers of {x} miss the "
                              f"identity within the group order "
                              f"{self.expected_order}")

    def element_order(self, x) -> int:
        """The order of x by multiplying until the identity; the reference
        for `orders`."""
        acc = x
        for k in range(1, self.expected_order + 1):
            if acc == self.identity:
                return k
            acc = self.mul(acc, x)
        raise self._no_identity(x)

    def orders(self) -> list[int]:
        """The order of each element, in the order of `elements`."""
        if self._orders is None:
            walk, orders = self.power_positions, [0] * len(self.elements)
            by_length = {}  # k -> [k // gcd(j, k) for j = 1, ..., k]
            for i, x in enumerate(self.elements):
                if orders[i]:
                    continue
                powers = walk(x)
                k = len(powers)
                if k not in by_length:
                    by_length[k] = [k // gcd(j, k) for j in range(1, k + 1)]
                for at, order in zip(powers, by_length[k]):
                    orders[at] = order
            self._orders = orders
        return self._orders

    def exponent(self) -> int:
        return lcm(*set(self.orders()))

    @cached_property
    def _conjugators(self) -> list[tuple]:
        # (g^-1, g) per generator, found once per group, so the generators
        # alone give the whole orbit: g^-1 is the power of g just before the
        # identity, read off g's own power walk, which names g when a faulty
        # product keeps its powers from the identity
        listed = self.elements
        return [(listed[self.power_positions(g)[-2]], g)
                for g in self.generators]

    def _left_listing(self, x) -> AssertionError:
        return AssertionError(f"{self.name}: a conjugate of {x} is unlisted")

    def conjugacy_class(self, x) -> set:
        listed = self.elements
        i = bisect_left(listed, x)
        if listed[i:i + 1] != [x]:
            raise ValueError(f"{self.name}: {x} is not listed")
        return {listed[at] for at in self.orbit_positions(i)}

    def order_p_classes(self) -> list[tuple]:
        """(minimal representative, class size) for each class of elements
        whose order is the group's own modulus `p`, in increasing order."""
        flags = bytearray(map(self.p.__eq__, self.orders()))
        classes, i = [], flags.find(1)
        while i >= 0:
            orbit = self.orbit_positions(i)
            classes.append((self.elements[i], len(orbit)))
            for at in orbit:
                flags[at] = 0
            i = flags.find(1, i)
        return classes


class PSL2(GroupOracle):
    """PSL(2, p^2) via canonical +/- representatives of SL(2, p^2), as
    4-tuples of field codes; of x and -x the smaller is canonical, and `mul`
    applies that rule to the entries it computes."""

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
        try:
            check_odd_prime(p)
        except ValueError:  # the caller gave q, not p
            raise ValueError(f"q = {q} is not the square of an odd prime") \
                from None
        f = fq_make(p)
        field = list(f.elements())  # (a0, a1) pairs, in code order
        code = {e: i for i, e in enumerate(field)}
        self._prod = [[code[f.mul(x, y)] for y in field] for x in field]
        self._sum = [[code[f.add(x, y)] for y in field] for x in field]
        self._neg = [code[f.neg(x)] for x in field]
        # v may lead a canonical element: v < -v (never zero)
        self._leads = [v < n for v, n in enumerate(self._neg)]
        # zero has no inverse; its slot is never read
        self._inv = [0] + [code[f.inv(x)] for x in field[1:]]
        one = code[f.one]
        self.identity = (one, 0, 0, one)
        # x(1) and y(1 + w), code(1 + w) = p + 1; with y(w) in its place
        # they would generate only A_5 at q = 9
        self.generators = [(one, one, 0, one), (one, 0, one + 1, one)]

    def mul(self, x, y):
        prod, s = self._prod, self._sum
        a, b, c, d = x
        e, g, h, i = y
        pa, pb, pc, pd = prod[a], prod[b], prod[c], prod[d]
        a, b = s[pa[e]][pb[h]], s[pa[g]][pb[i]]
        c, d = s[pc[e]][pd[h]], s[pc[g]][pd[i]]
        if self._leads[a or b or c or d]:
            return (a, b, c, d)
        neg = self._neg
        return (neg[a], neg[b], neg[c], neg[d])

    def power_positions(self, x) -> list[int]:
        # `mul(acc, x)` inlined, with x's product rows bound once: the field
        # commutes, so prod[a][e] is prod[e][a].  (a, b, c, d) is listed at
        # its first row's start plus c, or plus d when a = 0, exactly when
        # the listed element there has its other entry
        s, leads, neg = self._sum, self._leads, self._neg
        start, listed, q = self._start, self.elements, len(neg)
        prod, (e, g, h, i) = self._prod, x
        pe, pg, ph, pi = prod[e], prod[g], prod[h], prod[i]
        # the identity (1, 0, 0, 1) opens its row's block
        home, (a, b, c, d) = start[self.identity[0] * q], x
        positions = []
        try:
            for _ in range(self.expected_order):
                if a:
                    at = start[a * q + b] + c
                    if listed[at][3] != d:
                        break
                else:
                    at = start[b] + d
                    if listed[at][2] != c:
                        break
                positions.append(at)
                if at == home:
                    return positions
                a, b = s[pe[a]][ph[b]], s[pg[a]][pi[b]]
                c, d = s[pe[c]][ph[d]], s[pg[c]][pi[d]]
                if not leads[a or b or c or d]:
                    a, b, c, d = neg[a], neg[b], neg[c], neg[d]
        except IndexError:  # an UNLISTED first row
            pass
        raise self._no_identity(x)

    def orbit_positions(self, i: int) -> list[int]:
        # g^-1 y g is `mul` inlined twice, with the conjugator's eight product
        # rows bound once; -t g = -(t g), so the sign rule applies once, at
        # the end.  The position is read as in `power_positions`, and holds
        # the conjugate only when the element listed there is equal to it
        s, leads, neg, prod = self._sum, self._leads, self._neg, self._prod
        start, listed, q = self._start, self.elements, len(neg)
        rows = [[prod[v] for v in ginv + g] for ginv, g in self._conjugators]
        seen, orbit = bytearray(len(listed)), [i]
        seen[i] = 1
        for y in orbit:
            a, b, c, d = x = listed[y]
            for pa, pb, pc, pd, pe, pg, ph, pi in rows:
                t1, t2 = s[pa[a]][pb[c]], s[pa[b]][pb[d]]
                t3, t4 = s[pc[a]][pd[c]], s[pc[b]][pd[d]]
                z1, z2 = s[pe[t1]][ph[t2]], s[pg[t1]][pi[t2]]
                z3, z4 = s[pe[t3]][ph[t4]], s[pg[t3]][pi[t4]]
                if not leads[z1 or z2 or z3 or z4]:
                    z1, z2, z3, z4 = neg[z1], neg[z2], neg[z3], neg[z4]
                at = start[z1 * q + z2] + z3 if z1 else start[z2] + z4
                if at < 0 or listed[at] != (z1, z2, z3, z4):
                    raise self._left_listing(x)
                if not seen[at]:
                    seen[at] = 1
                    orbit.append(at)
        return orbit

    def generate(self) -> list[tuple]:
        # A first row (a, b) is nonzero, so it holds the first nonzero entry
        # v, and the matrix is canonical when v < -v.  Each such row has q
        # second rows (c, d) with ad - bc = 1: d = (1 + bc)/a for each c
        # when a != 0, and c = -1/b with d free when a = 0.  Listing c, or
        # d, in code order keeps the whole list increasing.  The layout
        # `_start` holds each first row's block start, or UNLISTED.
        prod, neg, inv = self._prod, self._neg, self._inv
        plus_one = self._sum[self.identity[0]]
        codes = range(len(neg))
        out, self._start = [], []
        start = self._start
        for a, b in product(codes, repeat=2):
            v = a or b
            if not v or v > neg[v]:
                start.append(UNLISTED)
                continue
            start.append(len(out))
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
    """PSL(3,3) = SL(3,3), whose centre is trivial, as triples of row codes
    9a + 3b + c of rows (a, b, c) over F_3."""

    name, p, expected_order = "PSL(3,3)", 3, 5616
    # 312 = lcm(13, 8, 6, 3); the order-3 classes are the transvections and
    # the regular unipotents
    expected_exponent, expected_class_sizes = 312, [104, 624]
    identity = (9, 3, 1)
    # I + E_12 and the 3-cycle permutation matrix; their conjugates
    # I + E_23 and I + E_31 have every other transvection as a commutator
    generators = [(12, 3, 1), (3, 1, 9)]

    def __init__(self) -> None:
        super().__init__()
        # rows by code, and spread into base-13 fields: each field of a row
        # a.Y1 + b.Y2 + c.Y3 of x.y is at most 12; `_mod3` reduces them mod 3
        self._rows = rows = list(product(range(3), repeat=3))
        self._spread = [169 * a + 13 * b + c for a, b, c in rows]
        self._mod3 = [9 * a + 3 * b + c
                      for a, b, c in product([0, 1, 2] * 4 + [0], repeat=3)]

    def mul(self, x, y):
        rows, spread, mod3 = self._rows, self._spread, self._mod3
        (x1, x2, x3), (y1, y2, y3) = x, y
        u, v, w = spread[y1], spread[y2], spread[y3]
        (a, b, c), (d, e, f_), (g, h, i) = rows[x1], rows[x2], rows[x3]
        return (mod3[a * u + b * v + c * w], mod3[d * u + e * v + f_ * w],
                mod3[g * u + h * v + i * w])

    def power_positions(self, x) -> list[int]:
        # `mul(acc, x)` inlined, with x's spread rows bound once; a power is
        # at its first two rows' block start plus its third row's rank, which
        # is UNLISTED unless the determinant is 1
        rows, spread, mod3 = self._rows, self._spread, self._mod3
        start, rank = self._start, self._rank
        (i1, i2, i3), (x1, x2, x3) = self.identity, x
        home = start[27 * i1 + i2] + rank[27 * i1 + i2][i3]
        u, v, w = spread[x1], spread[x2], spread[x3]
        positions = []
        for _ in range(self.expected_order):
            pair = 27 * x1 + x2
            at = start[pair] + rank[pair][x3]
            if at < 0:
                break
            positions.append(at)
            if at == home:
                return positions
            (a, b, c), (d, e, f_), (g, h, i) = rows[x1], rows[x2], rows[x3]
            x1, x2, x3 = (mod3[a * u + b * v + c * w],
                          mod3[d * u + e * v + f_ * w],
                          mod3[g * u + h * v + i * w])
        raise self._no_identity(x)

    def orbit_positions(self, i: int) -> list[int]:
        # g^-1 y g: g^-1's rows times y's spread rows, then "times g" as a
        # map on the 27 rows.  Positions as in `power_positions`
        rows, spread, mod3 = self._rows, self._spread, self._mod3
        start, rank, listed = self._start, self._rank, self.elements
        maps = []
        for ginv, (g1, g2, g3) in self._conjugators:
            u, v, w = spread[g1], spread[g2], spread[g3]
            maps.append((*(rows[r] for r in ginv),
                         [mod3[a * u + b * v + c * w] for a, b, c in rows]))
        seen, orbit = bytearray(len(listed)), [i]
        seen[i] = 1
        for y in orbit:
            x = x1, x2, x3 = listed[y]
            u, v, w = spread[x1], spread[x2], spread[x3]
            for (a, b, c), (d, e, f_), (g, h, k), times in maps:
                z1 = times[mod3[a * u + b * v + c * w]]
                z2 = times[mod3[d * u + e * v + f_ * w]]
                z3 = times[mod3[g * u + h * v + k * w]]
                at = start[27 * z1 + z2] + rank[27 * z1 + z2][z3]
                if at < 0:
                    raise self._left_listing(x)
                if not seen[at]:
                    seen[at] = 1
                    orbit.append(at)
        return orbit

    def generate(self) -> list[tuple]:
        # det [r1; r2; r3] = r3 . (r1 x r2), so each pair of first rows takes
        # the third rows r3 with r3 . n = 1 for n = r1 x r2, none when n = 0;
        # rows in code order keep the whole list increasing.  The layout
        # holds each pair's block start and, per n, each r3's rank among
        # those rows, or UNLISTED.
        rows = list(enumerate(self._rows))
        thirds = [[r for r, (a, b, c) in rows if (a * k + b * l_ + c * m) % 3
                   == 1] for _n, (k, l_, m) in rows]
        ranks = [[t.index(r) if r in t else UNLISTED for r, _row in rows]
                 for t in thirds]
        out, self._start, self._rank = [], [], []
        start, rank = self._start, self._rank
        for (r1, (a, b, c)), (r2, (d, e, f_)) in product(rows, repeat=2):
            n = 9 * ((b * f_ - c * e) % 3) + 3 * ((c * d - a * f_) % 3) + (
                a * e - b * d) % 3
            start.append(len(out))
            rank.append(ranks[n])
            out.extend((r1, r2, r3) for r3 in thirds[n])
        return out


# -- construction -------------------------------------------------------------


def cache_dir() -> str:
    # The oracle caches nothing; only perfbench/child.py still calls this.
    return os.path.join(os.path.expanduser("~"), ".cache", "grunits")


def enumerate_group(kind: str, q: int = 3) -> GroupOracle:
    """Enumerate PSL(2,q) (q = p^2) or PSL(3,3) from its definition.  A q
    that is not the square of an odd prime is a `ValueError` naming q,
    after the order cap when q is a square."""
    if kind == "psl2":
        p = isqrt(q) if q >= 1 else 0
        if p * p != q:
            raise ValueError(f"q = {q} is not the square of an odd prime")
        group = PSL2(p)  # tests the order cap, then p
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
    exactly when mu/lam is a square of F_(p^2).

    Tested per lam: u(lam) is in u(1)'s class exactly when lam is a square
    and in u(mu0)'s, mu0 a non-square, exactly when it is not.  The square
    table is first certified as the subgroup of index 2, so mu/lam is a
    square exactly when lam and mu share a status, and the two statements
    are the same: the unipotents split into these two classes, and u(lam),
    u(mu) share one exactly when lam, mu share a status."""
    f = fq_make(p)
    f.check_squares()
    group = cached_group("psl2", p * p)
    nonzero = [e for e in f.elements() if e != f.zero]
    mu0 = next(e for e in nonzero if not f.is_square(e))
    c1 = group.conjugacy_class(group.unipotent(f.one))
    ct = group.conjugacy_class(group.unipotent(mu0))
    # (u in c1) == square != (u in ct): in c1 exactly when lam is a square,
    # in ct exactly when it is not
    return all((group.unipotent(lam) in c1) == f.is_square(lam)
               != (group.unipotent(lam) in ct) for lam in nonzero)
