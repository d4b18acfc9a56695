import pytest

from grunits.patterns import (
    balanced_patterns,
    gap_report,
    group_patterns,
)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_group_patterns_are_balanced(p):
    pats = group_patterns(p)
    assert all(len(s) == (p - 1) // 2 for s in pats)
    assert len(pats) <= (p * p - 1) // 2


@pytest.mark.parametrize("p", [3, 5])
def test_small_p_all_balanced_realizable(p):
    assert group_patterns(p) == set(balanced_patterns(p))


def test_p7_gap_contains_124():
    report = gap_report(7)
    assert report["gap"]
    assert [1, 2, 4] in report["missing"]
    assert report["balanced"] == 20
    assert report["realizable"] == len(group_patterns(7))


def test_p11_counting_gap():
    report = gap_report(11)
    assert report["balanced"] == 252
    assert report["pair_count_bound"] == 60
    assert report["counting_gap"]
    assert report["gap"]


def test_p5_no_gap():
    report = gap_report(5)
    assert not report["gap"]
    assert report["missing"] == []
