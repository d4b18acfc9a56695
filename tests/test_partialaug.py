import random
from dataclasses import replace
from fractions import Fraction

import pytest

from grunits.chardata import CharSlice, psl2_slice, psl33_slice
from grunits.partialaug import (
    AugVector,
    CharProfile,
    Inconsistent,
    Underdetermined,
    invert_profile,
    mrsw_conjugate_to_group_element,
    synthesize_profile,
)


def _profile_of_class(table, class_id):
    return CharProfile(
        table, {ch.name: ch.values[class_id] for ch in table.chars}
    )


def test_psl33_alpha_profile():
    t = psl33_slice()
    ea, eb = Fraction(3), Fraction(-2)
    values = {
        ch.name: ea * ch.values["a"] + eb * ch.values["b"] for ch in t.chars
    }
    assert values["chi12"] == 9
    assert values["chi16a"] == -8
    aug = invert_profile(CharProfile(t, values), ["a", "b"])
    assert aug.as_tuple() == (3, -2)
    assert aug.is_integral()
    assert not mrsw_conjugate_to_group_element(aug)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_group_element_indicator(p):
    t = psl2_slice(p)
    for cid, other in (("c", "d"), ("d", "c")):
        aug = invert_profile(_profile_of_class(t, cid), ["c", "d"])
        assert aug.values[cid] == 1 and aug.values[other] == 0
        assert mrsw_conjugate_to_group_element(aug)


def test_psl33_group_element_indicator():
    t = psl33_slice()
    aug = invert_profile(_profile_of_class(t, "a"), ["a", "b"])
    assert aug.as_tuple() == (1, 0)


def test_inconsistent_profile():
    t = psl2_slice(5)
    eta = t.char_by_name("eta")
    values = {ch.name: ch.values["c"] for ch in t.chars}
    values["eta_t"] = eta.values["c"]  # both halves claim the same value
    with pytest.raises(Inconsistent):
        invert_profile(CharProfile(t, values), ["c", "d"])


def test_no_separating_row_is_underdetermined():
    t = psl2_slice(5)
    t = replace(t, chars=[t.char_by_name("triv"), t.char_by_name("steinberg")])
    with pytest.raises(Underdetermined):
        invert_profile(_profile_of_class(t, "c"), ["c", "d"])


def test_three_class_support_is_rejected():
    t = psl2_slice(5)
    # a third class "e" with the values of "c": the data could not pin three
    # unknowns anyway, but the support size alone is the error
    chars = [CharSlice(ch.name, ch.degree, {**ch.values, "e": ch.values["c"]})
             for ch in t.chars]
    t = replace(t, chars=chars)
    with pytest.raises(ValueError):
        invert_profile(_profile_of_class(t, "c"), ["c", "d", "e"])


_TABLES = {"psl2_5": (psl2_slice(5), ("c", "d")),
           "psl2_7": (psl2_slice(7), ("c", "d")),
           "psl33": (psl33_slice(), ("a", "b"))}


@pytest.mark.parametrize("table,row", [
    (name, ch.name) for name, (t, _support) in _TABLES.items() for ch in t.chars
])
def test_shifting_any_row_is_inconsistent(table, row):
    """Every row is checked, not only the one the solution is read from."""
    t, (x, y) = _TABLES[table]
    aug = AugVector((x, y), {x: Fraction(2), y: Fraction(-1)})
    values = dict(synthesize_profile(t, aug).values)
    assert invert_profile(CharProfile(t, values), [x, y]) == aug
    values[row] += 1
    with pytest.raises(Inconsistent):
        invert_profile(CharProfile(t, values), [x, y])


def test_round_trip_and_linearity():
    rng = random.Random(11)
    t = psl33_slice()
    for _ in range(20):
        ea = Fraction(rng.randint(-5, 5))
        aug = AugVector(("a", "b"), {"a": ea, "b": 1 - ea})
        back = invert_profile(synthesize_profile(t, aug), ["a", "b"])
        assert back.as_tuple() == aug.as_tuple()


def test_augvector_sum_validation():
    with pytest.raises(ValueError):
        AugVector(("a", "b"), {"a": Fraction(1), "b": Fraction(1)})


def test_identity_excluded_from_support():
    t = psl33_slice()
    with pytest.raises(ValueError):
        invert_profile(_profile_of_class(t, "a"), ["1", "a"])


def test_mrsw_examples():
    ok = AugVector(("c", "d"), {"c": Fraction(1), "d": Fraction(0)})
    bad = AugVector(("a", "b"), {"a": Fraction(3), "b": Fraction(-2)})
    flip = AugVector(("a", "b"), {"a": Fraction(0), "b": Fraction(1)})
    assert mrsw_conjugate_to_group_element(ok)
    assert not mrsw_conjugate_to_group_element(bad)
    assert mrsw_conjugate_to_group_element(flip)
