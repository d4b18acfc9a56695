"""Arithmetic in F_p and its quadratic extension F_(p^2).

Elements of the quadratic extension are pairs (a, b) of residues mod p,
meaning a + b*w where w is a root of x^2 - t for t the smallest quadratic
non-residue mod p.  The deterministic choice of t keeps every serialized
report reproducible.

Square status is a membership test in `Fq.squares`, the set {y*y : y != 0}
built once per field when the field is made (`fq_make` caches one field per
p).  No Euler criterion is involved; the tests keep the power with
exponent (q-1)/2 as the reference they compare against.
"""

from __future__ import annotations

from functools import lru_cache


class ZeroElement(Exception):
    pass


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


Elem = tuple[int, int]


class Fq:
    """The field F_(p^2) = F_p[w] / (w^2 - t), p an odd prime."""

    def __init__(self, p: int) -> None:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p == 2:
            raise ValueError("p = 2 is excluded; the quadratic-residue "
                             "combinatorics degenerates there")
        self.p = p
        self.q = p * p
        self.t = self._smallest_nonresidue(p)
        self.zero: Elem = (0, 0)
        self.one: Elem = (1, 0)
        self.squares: frozenset[Elem] = frozenset(
            self.mul(y, y) for y in self.elements() if y != self.zero)

    @staticmethod
    def _smallest_nonresidue(p: int) -> int:
        residues = {pow(x, 2, p) for x in range(1, p)}
        for t in range(2, p):
            if t not in residues:
                return t
        raise AssertionError("odd prime must have a non-residue")

    # -- arithmetic on (a, b) pairs ----------------------------------------

    def add(self, x: Elem, y: Elem) -> Elem:
        p = self.p
        return ((x[0] + y[0]) % p, (x[1] + y[1]) % p)

    def neg(self, x: Elem) -> Elem:
        p = self.p
        return (-x[0] % p, -x[1] % p)

    def mul(self, x: Elem, y: Elem) -> Elem:
        p, t = self.p, self.t
        a, b = x
        c, d = y
        return ((a * c + b * d * t) % p, (a * d + b * c) % p)

    def inv(self, x: Elem) -> Elem:
        if x == self.zero:
            raise ZeroElement("inverse of zero")
        p, t = self.p, self.t
        a, b = x
        # norm a^2 - t b^2 lies in F_p and is nonzero
        n = (a * a - t * b * b) % p
        ninv = pow(n, p - 2, p)
        return ((a * ninv) % p, (-b * ninv) % p)

    def scalar(self, c: int) -> Elem:
        return (c % self.p, 0)

    def elements(self):
        for a in range(self.p):
            for b in range(self.p):
                yield (a, b)

    # -- residue structure ---------------------------------------------------

    def is_square(self, x: Elem) -> bool:
        if x == self.zero:
            raise ZeroElement("square status of zero is undefined")
        return x in self.squares

    def format(self, x: Elem) -> str:
        return f"{x[0]}+{x[1]}*w"

    def __repr__(self) -> str:
        return f"Fq(p={self.p}, w^2={self.t})"


@lru_cache(maxsize=None)
def fq_make(p: int) -> Fq:
    return Fq(p)


def square_lines(p: int) -> tuple[int, int]:
    """Partition the p+1 lines (1-dim F_p-subspaces) of F_(p^2) by square status.

    Every line is homogeneous because F_p^* consists of squares of F_(p^2);
    a mixed line would be a genuine failure and raises.
    """
    f = fq_make(p)
    reps: list[Elem] = [(1, 0)] + [(a, 1) for a in range(p)]
    n_square = 0
    for v in reps:
        statuses = {f.is_square(f.mul(f.scalar(c), v)) for c in range(1, p)}
        if len(statuses) != 1:
            raise AssertionError(f"line through {v} is not homogeneous")
        if statuses.pop():
            n_square += 1
    return n_square, (p + 1) - n_square
