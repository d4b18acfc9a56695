import re

import pytest

from grunits import finitefield
from grunits.finitefield import (
    Fq,
    ZeroElement,
    check_odd_prime,
    fq_make,
    is_prime,
    square_lines,
)
from reference import fq_pow


def test_fq_make_orders():
    assert len(list(fq_make(3).elements())) == 9
    assert len(list(fq_make(7).elements())) == 49
    with pytest.raises(ValueError, match="must be an odd prime"):
        fq_make(4)


def test_check_odd_prime():
    for p in (3, 5, 101):
        check_odd_prime(p, cap=101)
    for p in (-3, 0, 1, 2, 9, 15):
        with pytest.raises(ValueError, match="^p must be an odd prime$"):
            check_odd_prime(p)
    # the cap comes first: trial division would not settle 2^61 - 1 promptly
    with pytest.raises(ValueError, match="^p capped at 101$"):
        check_odd_prime(2 ** 61 - 1, cap=101)
    with pytest.raises(ValueError, match="^p capped at 101$"):
        check_odd_prime(102, cap=101)


def test_is_prime_small():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_prime_subfield_squares_p7():
    f = fq_make(7)
    for a in range(1, 7):
        assert f.is_square((a, 0))


def test_square_count_q49():
    f = fq_make(7)
    squares = [e for e in f.elements() if e != f.zero and f.is_square(e)]
    assert len(squares) == 24
    # brute-force cross-check against the squaring table
    table = {f.mul(e, e) for e in f.elements() if e != f.zero}
    assert set(squares) == table


def test_is_square_zero_raises():
    f = fq_make(5)
    with pytest.raises(ZeroElement):
        f.is_square(f.zero)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_square_xnor_multiplicativity(p):
    f = fq_make(p)
    nonzero = [e for e in f.elements() if e != f.zero]
    sample = nonzero[::3] or nonzero
    for e in sample:
        for g in sample:
            assert f.is_square(f.mul(e, g)) == (f.is_square(e) == f.is_square(g))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_unit_group_order_and_frobenius(p):
    f = fq_make(p)
    q = p * p
    fixed = []
    for e in f.elements():
        if e != f.zero:
            assert fq_pow(f, e, q - 1) == f.one
        if fq_pow(f, e, p) == e:
            fixed.append(e)
    assert sorted(fixed) == sorted((a, 0) for a in range(p))
    # Frobenius x -> x^p is multiplicative
    a, b = (1, 1), (2, 1)
    assert fq_pow(f, f.mul(a, b), p) == f.mul(fq_pow(f, a, p),
                                              fq_pow(f, b, p))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
def test_square_table_matches_euler_and_norm(p):
    f = fq_make(p)
    q = p * p
    assert len(f.squares) == (q - 1) // 2
    for a, b in f.elements():
        x = (a, b)
        if x == f.zero:
            continue
        euler = fq_pow(f, x, (q - 1) // 2) == f.one
        # x is a square of F_(p^2) iff its norm a^2 - t b^2 is a square of F_p
        norm = pow((a * a - f.t * b * b) % p, (p - 1) // 2, p) == 1
        assert f.is_square(x) == euler == norm, x
    with pytest.raises(ZeroElement):
        f.is_square(f.zero)


@pytest.mark.parametrize("p,expected", [(3, (2, 2)), (7, (4, 4)), (11, (6, 6))])
def test_square_lines_examples(p, expected):
    assert square_lines(p) == expected


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_square_lines_balanced(p):
    assert square_lines(p) == ((p + 1) // 2, (p + 1) // 2)


@pytest.mark.parametrize("p", [3, 7])
def test_square_lines_reject_a_table_that_is_not_the_squares(p, monkeypatch):
    # 2 is a square of F_(p^2) but no line's representative, so only the
    # premise check sees it missing
    broken = Fq(p)
    broken.squares = broken.squares - {(2, 0)}
    monkeypatch.setattr(finitefield, "fq_make", lambda p: broken)
    with pytest.raises(AssertionError, match=re.escape(
            f"square table is not the subgroup of squares of F_{p * p}^*")):
        square_lines(p)


def test_encode_roundtrip_and_format():
    f = fq_make(5)
    assert f.format((2, 3)) == "2+3*w"
