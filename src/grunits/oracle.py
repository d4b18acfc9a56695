"""Brute-force ground truth for the three groups in scope.

PSL(2,9), PSL(2,25) and PSL(3,3) are enumerated as canonical projective
matrices over their finite fields, by closure from transvection
generators.  Orders, exponents and conjugacy classes computed here are the
oracle against which character slices and the square-class model of the
Sylow subgroup are validated.  Enumerations are cached as text, one
canonical matrix per line; a cache is trusted only when it holds exactly
the group's closed-form order of well-formed elements, and is rebuilt
otherwise.
"""

from __future__ import annotations

import os
import sys
from functools import lru_cache
from math import lcm

from .finitefield import Fq, fq_make, is_prime


class TooLarge(Exception):
    pass


ORDER_CAP = 100_000


class GroupOracle:
    """An enumerated finite matrix group with canonical representatives."""

    def __init__(self, name: str, identity, generators, mul, inv, canon):
        self.name = name
        self.identity = canon(identity)
        self.generators = [canon(g) for g in generators]
        self._mul = mul
        self._inv = inv
        self._canon = canon
        self.elements: list = []
        self._index: dict = {}

    # -- group operations on canonical representatives ----------------------

    def mul(self, x, y):
        return self._canon(self._mul(x, y))

    def inv(self, x):
        return self._canon(self._inv(x))

    def enumerate(self, cap: int = ORDER_CAP) -> "GroupOracle":
        seen = {self.identity}
        frontier = [self.identity]
        while frontier:
            nxt = []
            for x in frontier:
                for g in self.generators:
                    y = self.mul(x, g)
                    if y not in seen:
                        if len(seen) >= cap:
                            raise TooLarge(f"closure exceeded {cap}")
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        self._set_elements(seen)
        return self

    def _set_elements(self, seen):
        self.elements = sorted(seen)
        self._index = {e: i for i, e in enumerate(self.elements)}

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_order(self, x) -> int:
        k, acc = 1, x
        while acc != self.identity:
            acc = self.mul(acc, x)
            k += 1
        return k

    def exponent(self) -> int:
        return lcm(*(self.element_order(x) for x in self.elements))

    def conjugacy_class(self, x) -> set:
        gens = self.generators + [self.inv(g) for g in self.generators]
        orbit = {x}
        frontier = [x]
        while frontier:
            nxt = []
            for y in frontier:
                for g in gens:
                    z = self.mul(self.mul(self.inv(g), y), g)
                    if z not in orbit:
                        orbit.add(z)
                        nxt.append(z)
            frontier = nxt
        return orbit

    def order_p_classes(self, p: int) -> list[tuple]:
        """(representative, class size) for each class of order-p elements."""
        remaining = {x for x in self.elements if self.element_order(x) == p}
        classes = []
        while remaining:
            rep = min(remaining)
            orbit = self.conjugacy_class(rep)
            classes.append((rep, len(orbit)))
            remaining -= orbit
        return classes

    def full_class_partition(self) -> list[tuple]:
        remaining = set(self.elements)
        classes = []
        while remaining:
            rep = min(remaining)
            orbit = self.conjugacy_class(rep)
            classes.append((rep, len(orbit)))
            remaining -= orbit
        return classes


# -- PSL(2, p^2) ------------------------------------------------------------


def _psl2_ops(f: Fq):
    zero, one = f.zero, f.one

    def mul(x, y):
        a, b, c, d = x
        e, g, h, i = y
        return (
            f.add(f.mul(a, e), f.mul(b, h)),
            f.add(f.mul(a, g), f.mul(b, i)),
            f.add(f.mul(c, e), f.mul(d, h)),
            f.add(f.mul(c, g), f.mul(d, i)),
        )

    def inv(x):
        a, b, c, d = x
        return (d, f.neg(b), f.neg(c), a)

    def canon(x):
        negx = tuple(f.neg(e) for e in x)
        return min(x, negx)

    identity = (one, zero, zero, one)
    return identity, mul, inv, canon


def psl2_oracle(p: int) -> GroupOracle:
    """PSL(2, p^2) via canonical +/- representatives of SL(2, p^2)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    q = p * p
    if q * (q * q - 1) // 2 > ORDER_CAP:
        raise TooLarge(f"PSL(2,{q}) exceeds the enumeration cap")
    f = fq_make(p)
    identity, mul, inv, canon = _psl2_ops(f)
    zero, one = f.zero, f.one
    w = (0, 1)
    gens = [
        (one, one, zero, one),
        (one, w, zero, one),
        (one, zero, one, one),
        (one, zero, w, one),
    ]
    return GroupOracle(f"PSL(2,{q})", identity, gens, mul, inv, canon)


def psl2_unipotent(p: int, lam) -> tuple:
    """Canonical representative of the upper unipotent with parameter lam."""
    f = fq_make(p)
    identity, _mul, _inv, canon = _psl2_ops(f)
    return canon((f.one, lam, f.zero, f.one))


# -- PSL(3, 3) ----------------------------------------------------------------


def _psl3_ops():
    def mul(x, y):
        out = [0] * 9
        for i in range(3):
            for j in range(3):
                out[3 * i + j] = (
                    x[3 * i] * y[j]
                    + x[3 * i + 1] * y[3 + j]
                    + x[3 * i + 2] * y[6 + j]
                ) % 3
        return tuple(out)

    def inv(x):
        # adjugate; det = 1 for SL(3,3)
        a, b, c, d, e, f_, g, h, i = x
        adj = (
            e * i - f_ * h, c * h - b * i, b * f_ - c * e,
            f_ * g - d * i, a * i - c * g, c * d - a * f_,
            d * h - e * g, b * g - a * h, a * e - b * d,
        )
        return tuple(v % 3 for v in adj)

    def canon(x):
        return x  # SL(3,3) has trivial center

    identity = (1, 0, 0, 0, 1, 0, 0, 0, 1)
    return identity, mul, inv, canon


def psl3_oracle() -> GroupOracle:
    identity, mul, inv, canon = _psl3_ops()
    gens = []
    for i in range(3):
        for j in range(3):
            if i != j:
                m = list(identity)
                m[3 * i + j] = 1
                gens.append(tuple(m))
    return GroupOracle("PSL(3,3)", identity, gens, mul, inv, canon)


# -- construction, caching ----------------------------------------------------


def cache_dir() -> str:
    env = os.environ.get("GRS_DATA_DIR")
    base = env if env else os.path.join(os.path.expanduser("~"), ".cache", "grunits")
    os.makedirs(base, exist_ok=True)
    return base


def _flatten(elem) -> list[int]:
    out = []
    for entry in elem:
        if isinstance(entry, tuple):
            out.extend(entry)
        else:
            out.append(entry)
    return out


def _unflatten_psl2(values: list[int]) -> tuple:
    pairs = [(values[i], values[i + 1]) for i in range(0, 8, 2)]
    return tuple(pairs)


def enumerate_group(kind: str, q: int = 3, refresh: bool = False) -> GroupOracle:
    """Enumerate PSL(2,q) (q = p^2) or PSL(3,3), using the text cache."""
    if kind == "psl2":
        p = int(round(q ** 0.5))
        if p * p != q or not is_prime(p):
            raise ValueError(f"q = {q} is not the square of a prime")
        oracle = psl2_oracle(p)
        order = q * (q * q - 1) // 2
        key = f"psl2_{q}"
        width = 8
        unflatten = _unflatten_psl2
    elif kind == "psl3":
        if q != 3:
            raise ValueError("only PSL(3,3) is supported")
        oracle = psl3_oracle()
        order = 5616
        key = "psl3_3"
        width = 9
        unflatten = tuple
    else:
        raise ValueError(f"unknown group kind {kind!r}")

    path = os.path.join(cache_dir(), key + ".txt")
    if not refresh and os.path.exists(path):
        elements = set()
        try:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    values = [int(v) for v in line.split()]
                    if len(values) != width:
                        raise ValueError(f"corrupt line {line.strip()!r}")
                    elements.add(unflatten(values))
            if len(elements) != order:
                raise ValueError(f"{len(elements)} elements, expected {order}")
        except ValueError as exc:
            print(f"grunits: rebuilding {path}: {exc}", file=sys.stderr)
        else:
            oracle._set_elements(elements)
            return oracle

    oracle.enumerate()
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        for e in oracle.elements:
            fh.write(" ".join(map(str, _flatten(e))) + "\n")
    os.replace(tmp, path)
    return oracle


@lru_cache(maxsize=None)
def cached_group(kind: str, q: int = 3) -> GroupOracle:
    return enumerate_group(kind, q)


def check_square_criterion(p: int) -> bool:
    """Unipotents with parameters lam, mu are conjugate in PSL(2,p^2)
    exactly when mu/lam is a square of F_(p^2)."""
    if p not in (3, 5):
        raise ValueError("exhaustive conjugacy check is limited to p in {3, 5}")
    f = fq_make(p)
    group = cached_group("psl2", p * p)
    nonzero = [e for e in f.elements() if e != f.zero]
    mu0 = next(e for e in nonzero if not f.is_square(e))
    c1 = group.conjugacy_class(psl2_unipotent(p, f.one))
    ct = group.conjugacy_class(psl2_unipotent(p, mu0))
    for lam in nonzero:
        u = psl2_unipotent(p, lam)
        if (u in c1) == (u in ct):
            return False  # unipotents must split into exactly these two classes
    for lam in nonzero:
        for mu in nonzero:
            same = (psl2_unipotent(p, lam) in c1) == (psl2_unipotent(p, mu) in c1)
            if same != f.is_square(f.mul(mu, f.inv(lam))):
                return False
    return True
