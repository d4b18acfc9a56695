"""Exact rational matrices and block-diagonal assemblies.

Dimensions stay small: a unit group's blocks are (p-1)x(p-1), at most
12x12 at `constructions.MAX_PRIME` = 13, so multiplication is the naive
cubic algorithm over ``Fraction`` entries.
"""

from __future__ import annotations

from fractions import Fraction

from .finitefield import is_prime


class SignatureMismatch(Exception):
    pass


class QMatrix:
    """A square matrix with exact rational entries."""

    __slots__ = ("dim", "rows", "_hash")

    def __init__(self, rows) -> None:
        rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        self.dim = n
        self.rows = rows
        self._hash = None

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __mul__(self, other: "QMatrix") -> "QMatrix":
        if self.dim != other.dim:
            raise SignatureMismatch("dimension mismatch")
        cols = list(zip(*other.rows))
        return QMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows]
        )

    def trace(self) -> Fraction:
        return sum(self.rows[i][i] for i in range(self.dim))

    def is_identity(self) -> bool:
        return self == QMatrix.identity(self.dim)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        # entries never change, and hashing every Fraction is not cheap
        if self._hash is None:
            self._hash = hash(self.rows)
        return self._hash

    def __repr__(self) -> str:
        return f"QMatrix({self.dim}x{self.dim})"


def companion_cyclotomic(p: int) -> QMatrix:
    """Companion matrix of 1 + x + ... + x^(p-1); it has multiplicative order p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    n = p - 1
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = Fraction(1)
    for i in range(n):
        rows[i][n - 1] = Fraction(-1)
    return QMatrix(rows)


class BlockDiag:
    """Block-diagonal matrix; products require identical block signatures.
    No command builds one; the tests' reference and the benchmark use it."""

    __slots__ = ("blocks",)

    def __init__(self, blocks) -> None:
        self.blocks = tuple(blocks)

    @property
    def signature(self) -> tuple[int, ...]:
        return tuple(b.dim for b in self.blocks)

    def __mul__(self, other: "BlockDiag") -> "BlockDiag":
        if not isinstance(other, BlockDiag):
            return NotImplemented
        if self.signature != other.signature:
            raise SignatureMismatch(
                f"signatures differ: {self.signature} vs {other.signature}"
            )
        return BlockDiag(a * b for a, b in zip(self.blocks, other.blocks))

    def is_identity(self) -> bool:
        return all(b.is_identity() for b in self.blocks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BlockDiag):
            return NotImplemented
        return self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)
