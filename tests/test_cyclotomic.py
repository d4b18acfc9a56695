import itertools
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from grunits.chardata import format_rational
from grunits.cyclotomic import Cyclotomic, NotRational, cyclo


def test_cyclo_examples():
    assert cyclo(3, 2).coeffs == (Fraction(-1), Fraction(-1))
    assert cyclo(2, 1) == -1
    assert cyclo(5, 0) == 1


def test_root_of_unity_sums():
    for p in (3, 5, 7):
        total = Cyclotomic.from_rational(0, p)
        for k in range(p):
            total = total + cyclo(p, k)
        assert total.is_zero()
    # twisted sums for prime p
    for j in range(1, 7):
        total = Cyclotomic.from_rational(0, 7)
        for k in range(7):
            total = total + cyclo(7, (j * k) % 7)
        assert total.is_zero()


def test_mul_inverse_examples():
    assert cyclo(3, 1) * cyclo(3, 2) == 1
    assert cyclo(3, 1).inv() == cyclo(3, 2)
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.from_rational(0, 3).inv()


def test_as_rational():
    assert cyclo(2, 1).as_rational() == -1
    s = Cyclotomic.from_rational(1, 3) + cyclo(3, 1) + cyclo(3, 2)
    assert s.as_rational() == 0
    with pytest.raises(NotRational):
        cyclo(3, 1).as_rational()


def test_canonical_reduction_paths():
    # zeta_3^2 built two ways gives identical coefficients
    a = cyclo(3, 2)
    b = cyclo(3, 1) * cyclo(3, 1)
    assert a.order == b.order and a.coeffs == b.coeffs


def test_rational_strings():
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(-5)) == "-5"


def test_non_prime_order_is_rejected():
    with pytest.raises(ValueError):
        Cyclotomic(4, [1, 2])
    with pytest.raises(ValueError):
        cyclo(6, 1)


def test_mixed_orders_do_not_combine():
    with pytest.raises(ValueError):
        cyclo(3, 1) + cyclo(5, 1)


def test_equality_across_orders_only_for_rationals():
    assert cyclo(3, 0) == cyclo(5, 0)
    assert cyclo(3, 1) != cyclo(5, 1)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_inverse_at_every_small_prime(p):
    rng = random.Random(1000 + p)
    for _ in range(20):
        a = Cyclotomic(p, [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                           for _ in range(p - 1)])
        if not a.is_zero():
            assert a * a.inv() == 1


def test_construct_path_does_not_import_cyclotomic():
    """No command imports the Q(zeta_p) model: exact scalars in the package
    are Fraction, and only the tests' reference multiplicity needs it."""
    code = ("import sys, grunits.cli; "
            "print(sorted(m for m in sys.modules if 'cyclotomic' in m))")
    proc = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True)
    assert proc.stdout.strip() == "[]"


def _rational(rng):
    # |a/b| <= 5 with denominator b <= 6
    b = rng.randint(1, 6)
    return Fraction(rng.randint(-5 * b, 5 * b), b)


def _element(rng, p):
    return Cyclotomic(p, [_rational(rng) for _ in range(p - 1)])


def _edge_elements(p):
    """Zero and the elements whose coefficients sit at the range's ends."""
    return [Cyclotomic(p, [Fraction(c)] * (p - 1)) for c in (0, 5, -5)] + [
        Cyclotomic(p, [Fraction(5 * (-1) ** i) for i in range(p - 1)])]


def _check_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if not a.is_zero():
        assert a * a.inv() == 1


def test_field_axioms():
    rng = random.Random(2024)
    for _ in range(60):
        p = rng.choice([2, 3, 5, 7])
        _check_field_axioms(*(_element(rng, p) for _ in range(3)))
    for p in (2, 3, 5, 7):
        for triple in itertools.product(_edge_elements(p), repeat=3):
            _check_field_axioms(*triple)


def test_additive_inverse():
    rng = random.Random(2025)
    samples = [_element(rng, rng.choice([3, 5, 7])) for _ in range(40)]
    samples += [a for p in (3, 5, 7) for a in _edge_elements(p)]
    for a in samples:
        assert (a + (-a)).is_zero()
