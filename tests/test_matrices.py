import random

import pytest

from grunits.matrices import (
    BlockDiag,
    QMatrix,
    SignatureMismatch,
    companion_cyclotomic,
)


def test_companion_p3():
    a = companion_cyclotomic(3)
    assert a == QMatrix([[0, -1], [1, -1]])
    assert (a ** 3).is_identity()
    assert a.trace() == -1


def test_companion_p5_order():
    m = companion_cyclotomic(5)
    assert (m ** 5).is_identity()
    assert not m.is_identity()


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_companion_trace_and_order(p):
    a = companion_cyclotomic(p)
    assert (a ** p).is_identity()
    # a^k for 0 < k < p has trace -1, not p - 1, so is not the identity
    for k in range(1, p):
        assert (a ** k).trace() == -1
    assert (a ** p).trace() == p - 1


def test_block_trace_example_p7():
    a = companion_cyclotomic(7)
    x = BlockDiag([
        QMatrix.identity(1),
        QMatrix.identity(6),
        a ** 6, a ** 5, a ** 3,
    ])
    assert x.trace() == 4  # 1 + 6 + 3*(-1) = (p+1)/2


def test_signature_mismatch():
    x = BlockDiag([QMatrix.identity(2), QMatrix.identity(3)])
    y = BlockDiag([QMatrix.identity(3), QMatrix.identity(2)])
    with pytest.raises(SignatureMismatch):
        x * y


def test_power_blocks_commute():
    rng = random.Random(7)
    a = companion_cyclotomic(7)
    pows = [QMatrix.identity(6)] + [a ** k for k in range(1, 7)]
    for _ in range(10):
        x = BlockDiag([rng.choice(pows) for _ in range(3)])
        y = BlockDiag([rng.choice(pows) for _ in range(3)])
        assert x * y == y * x


def test_trace_linear_and_conjugation_invariant():
    a = companion_cyclotomic(5)
    b = a ** 2
    assert (a * b).trace() == (b * a).trace()
    s = a ** 3
    sinv = a ** 2  # a^5 = identity
    assert (s * b * sinv).trace() == b.trace()
