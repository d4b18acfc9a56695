import re
from math import comb

import pytest

from grunits import patterns
from grunits.finitefield import Fq, fq_make
from grunits.patterns import (
    _pattern_of,
    balanced_patterns,
    gap_report,
    group_patterns,
    realizers,
)
from reference import direction_line_patterns, fq_pow, full_scan_realizers


def _euler_is_square(f, x):
    return fq_pow(f, x, (f.q - 1) // 2) == f.one


def _euler_pattern_of(f, lam, mu):
    """Reference pattern loop: field operations and one Euler
    exponentiation per member, no square table."""
    out = []
    for i in range(1, f.p):
        v = f.add(lam, f.mul((i, 0), mu))
        if _euler_is_square(f, v):
            out.append(i)
    return frozenset(out)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
def test_group_patterns_are_balanced(p):
    pats = group_patterns(p)
    assert all(len(s) == (p - 1) // 2 for s in pats)
    # mu and mu^p give one pattern, and no non-square lies in F_p, so the
    # (p^2-1)/2 non-squares fall into (p^2-1)/4 Frobenius pairs; every pair
    # gives its own pattern at each p measured
    assert len(pats) == (p * p - 1) // 4


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17])
def test_group_patterns_match_euler_reference(p):
    f = fq_make(p)
    nonsquares = [e for e in f.elements()
                  if e != f.zero and not _euler_is_square(f, e)]
    assert group_patterns(p) == {
        _euler_pattern_of(f, f.one, mu) for mu in nonsquares}


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_realizers_keep_the_first_mu_in_field_order(p):
    f = fq_make(p)
    nonsquares = [e for e in f.elements()
                  if e != f.zero and not _euler_is_square(f, e)]
    for pattern, mu in realizers(p).items():
        assert mu == next(nu for nu in nonsquares
                          if _euler_pattern_of(f, f.one, nu) == pattern)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
def test_realizers_equal_the_scan_of_every_non_square(p):
    # one mu per Frobenius pair {mu, mu^p}: the same patterns, the same
    # first mu for each, in the same order
    assert list(realizers(p).items()) == \
        list(full_scan_realizers(fq_make(p)).items())


@pytest.mark.parametrize("p", [3, 5, 7])
def test_pattern_of_matches_euler_reference_for_every_pair(p):
    f = fq_make(p)
    nonzero = [e for e in f.elements() if e != f.zero]
    squares = [e for e in nonzero if _euler_is_square(f, e)]
    nonsquares = [e for e in nonzero if not _euler_is_square(f, e)]
    for lam in squares:
        for mu in nonsquares:
            assert _pattern_of(f, lam, mu) == _euler_pattern_of(f, lam, mu)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_line_walk_matches_every_pair(p):
    f = fq_make(p)
    nonzero = [e for e in f.elements() if e != f.zero]
    squares = [e for e in nonzero if e in f.squares]
    nonsquares = [e for e in nonzero if e not in f.squares]
    # the normalized scan gives every pattern of every (lam, mu) pair
    assert group_patterns(p) == {
        _pattern_of(f, lam, mu) for lam in squares for mu in nonsquares}


def _split(f):
    nonzero = [e for e in f.elements() if e != f.zero]
    return ([e for e in nonzero if e in f.squares],
            [e for e in nonzero if e not in f.squares])


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
def test_slope_classes_match_the_direction_walk(p):
    f = fq_make(p)
    _, nonsquares = _split(f)
    assert group_patterns(p) == direction_line_patterns(f, nonsquares)


def _broken_tables(p):
    """Square tables at p that are not {y*y : y != 0}: each (0, y) and
    (2, 0) dropped, one non-square added, and one square swapped for a
    non-square, which keeps the size (q-1)/2."""
    f = fq_make(p)
    squares = f.squares
    _, nonsquares = _split(f)
    # every element of F_p, 2 included, is a square of F_(p^2), and at
    # p = 3 (mod 4) so is every (0, y)
    dropped = [(0, y) for y in range(1, p)] + [(2, 0)]
    assert all(e in squares for e in dropped)
    yield from (squares - {e} for e in dropped)
    yield squares | {nonsquares[0]}
    yield (squares - {f.one}) | {nonsquares[0]}


@pytest.mark.parametrize("p", [7, 11])
def test_realizers_reject_a_table_that_is_not_the_squares(p, monkeypatch):
    tables = list(_broken_tables(p))
    assert len(tables) == p + 2
    assert len(tables[-1]) == (p * p - 1) // 2
    for table in tables:
        broken = Fq(p)
        broken.squares = frozenset(table)
        monkeypatch.setattr(patterns, "fq_make", lambda p: broken)
        with pytest.raises(AssertionError, match=re.escape(
                f"square table is not the subgroup of squares of F_{p * p}^*")):
            realizers(p)


def test_broken_square_table_fails_the_cross_check(monkeypatch):
    # a table that is no longer closed under square scaling: drop 2 = 3^2
    broken = Fq(7)
    broken.squares = broken.squares - {(2, 0)}
    monkeypatch.setattr(patterns, "fq_make", lambda p: broken)
    with pytest.raises(AssertionError, match=re.escape(
            "square table is not the subgroup of squares of F_49^*")):
        group_patterns(7)


def test_group_patterns_makes_no_exponentiation(monkeypatch):
    # Fq has no power method; the one installed here records any call
    calls = []

    def counting(self, x, k):
        calls.append(k)
        return fq_pow(self, x, k)

    monkeypatch.setattr(Fq, "pow", counting, raising=False)
    group_patterns(13)
    assert calls == []


def test_group_patterns_cap():
    with pytest.raises(ValueError, match="p capped at 23"):
        group_patterns(29)


@pytest.mark.parametrize("p", [3, 5])
def test_small_p_all_balanced_realizable(p):
    assert group_patterns(p) == set(balanced_patterns(p))


def test_p7_gap_contains_124():
    report = gap_report(7, True)
    assert report["gap"]
    assert [1, 2, 4] in report["missing"]
    assert report["balanced"] == 20
    assert report["realizable"] == len(group_patterns(7))


def test_p11_counting_gap():
    report = gap_report(11, False)
    assert report["balanced"] == 252
    assert report["pair_count_bound"] == 60
    assert report["counting_gap"]
    assert report["gap"]


def test_p5_no_gap():
    report = gap_report(5, True)
    assert not report["gap"]
    assert report["missing"] == []


def test_missing_listed_only_on_request():
    assert "missing" not in gap_report(7, False)
    assert len(gap_report(13, True)["missing"]) == comb(12, 6) - 42
