"""Arithmetic in F_p and its quadratic extension F_(p^2).

Elements of the quadratic extension are pairs (a, b) of residues mod p,
meaning a + b*w where w is a root of x^2 - t for t the smallest quadratic
non-residue mod p.  The deterministic choice of t keeps every serialized
report reproducible.

Square status is a membership test in `Fq.squares`, the set {y*y : y != 0}
built once per field when the field is made (`fq_make` caches one field per
p).  No Euler criterion is involved; the tests keep the power with
exponent (q-1)/2 as the reference they compare against.  The field checks
on construction that the table holds (q-1)/2 squares, which is true
exactly when w^2 - t is irreducible, so a square t fails at once.

Every reader of the square-class model checks its one premise on the
table it reads, with `Fq.check_squares`: the table holds (q-1)/2 elements
and every y*y, y != 0, so it is the subgroup of index 2 of F_(p^2)^*.
`square_lines` here, `patterns.realizers` and
`oracle.check_square_criterion` call it first, so a table altered after
the field was made fails there rather than answering from wrong squares.

`check_odd_prime` is the one statement of the rule on p that every layer
taking p applies, with the layer's cap: p must be an odd prime, since at
p = 2 the quadratic-residue combinatorics degenerates.
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


def check_odd_prime(p: int, cap: int | None = None) -> None:
    """Raise `ValueError` unless p is an odd prime, at most `cap` if given.

    The cap is tested first, so a huge p fails before trial division.
    """
    if cap is not None and p > cap:
        raise ValueError(f"p capped at {cap}")
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")


Elem = tuple[int, int]


class Fq:
    """The field F_(p^2) = F_p[w] / (w^2 - t), p an odd prime."""

    def __init__(self, p: int) -> None:
        check_odd_prime(p)
        self.p = p
        self.q = p * p
        self.t = self._smallest_nonresidue(p)
        self.zero: Elem = (0, 0)
        self.one: Elem = (1, 0)
        self.squares: frozenset[Elem] = frozenset(self._square_list())
        # exactly half the units are squares exactly when w^2 - t is
        # irreducible; over F_p x F_p the count is (p-1)(p+3)/4
        if len(self.squares) != (self.q - 1) // 2:
            raise AssertionError(f"w^2 - {self.t} is reducible over F_{p}: "
                                 f"F_p[w] is not a field")

    def _square_list(self) -> list[Elem]:
        """y*y for every y = a + b*w != 0, computed afresh."""
        p, t, r = self.p, self.t, range(self.p)
        return [((a * a + t * b * b) % p, 2 * a * b % p)
                for a in r for b in r if a or b]

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

    def elements(self):
        for a in range(self.p):
            for b in range(self.p):
                yield (a, b)

    # -- residue structure ---------------------------------------------------

    def is_square(self, x: Elem) -> bool:
        if x == self.zero:
            raise ZeroElement("square status of zero is undefined")
        return x in self.squares

    def check_squares(self) -> None:
        """Raise unless `squares` is the subgroup of index 2 of F_(p^2)^*:
        it holds (q-1)/2 elements and every y*y, y != 0, and a field has
        exactly (q-1)/2 such squares."""
        squares = self.squares
        if len(squares) != (self.q - 1) // 2 or not squares.issuperset(
                self._square_list()):
            raise AssertionError(f"square table is not the subgroup of "
                                 f"squares of F_{self.q}^*")

    def format(self, x: Elem) -> str:
        return f"{x[0]}+{x[1]}*w"

    def __repr__(self) -> str:
        return f"Fq(p={self.p}, w^2={self.t})"


@lru_cache(maxsize=None)
def fq_make(p: int) -> Fq:
    return Fq(p)


def square_lines(p: int) -> tuple[int, int]:
    """Partition the p+1 lines (1-dim F_p-subspaces) of F_(p^2) by square status.

    Every line is homogeneous: F_p^* has order p-1, which divides (q-1)/2,
    so it lies in the subgroup of squares that `check_squares` certifies,
    and c*v has the status of v for c in F_p^*.  Each line is therefore
    counted by its representative, (1, 0) or (a, 1).
    """
    f = fq_make(p)
    f.check_squares()
    n_square = sum(map(f.is_square, [(1, 0)] + [(a, 1) for a in range(p)]))
    return n_square, (p + 1) - n_square
