"""The exact partial-augmentation solve, `constructions.invert_profile`."""

import random
from fractions import Fraction

import pytest

from grunits.chardata import CharSlice, ValidationError, psl2_slice, psl33_slice
from grunits.constructions import (
    Inconsistent,
    UnitGroup,
    build_psl2_units,
    invert_profile,
)


def _values_of_class(table, class_id):
    return {ch.name: ch.values[class_id] for ch in table.chars}


def _values_of_aug(table, support, ex, ey):
    """Character values of a hypothetical unit with the given augmentations."""
    x, y = support
    return {ch.name: ex * ch.values[x] + ey * ch.values[y]
            for ch in table.chars}


def _mrsw(ex, ey):
    return ex >= 0 and ey >= 0


def test_psl33_alpha_profile():
    t = psl33_slice()
    values = _values_of_aug(t, ("a", "b"), Fraction(3), Fraction(-2))
    assert values["chi12"] == 9
    assert values["chi16a"] == -8
    ex, ey = invert_profile(t.chars, values, ("a", "b"))
    assert (ex, ey) == (3, -2)
    assert ex.denominator == ey.denominator == 1
    assert not _mrsw(ex, ey)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_group_element_indicator(p):
    t = psl2_slice(p)
    for cid, expected in (("c", (1, 0)), ("d", (0, 1))):
        aug = invert_profile(t.chars, _values_of_class(t, cid), ("c", "d"))
        assert aug == expected
        assert _mrsw(*aug)


def test_psl33_group_element_indicator():
    t = psl33_slice()
    aug = invert_profile(t.chars, _values_of_class(t, "a"), ("a", "b"))
    assert aug == (1, 0)


def test_inconsistent_profile():
    t = psl2_slice(5)
    eta = t.char_by_name("eta")
    values = _values_of_class(t, "c")
    values["eta_t"] = eta.values["c"]  # both halves claim the same value
    with pytest.raises(Inconsistent):
        invert_profile(t.chars, values, ("c", "d"))


def test_no_separating_row_is_underdetermined():
    # triv is equal on c and d, so it cannot pin the partial augmentations:
    # the group is rejected when it is built, before any element is solved
    ug = build_psl2_units(5, {1, 2})
    with pytest.raises(ValidationError, match="do not separate classes c and d"):
        UnitGroup(ug.table, ug.p, ug.support, {"eta": "triv"},
                  ug.generator_names, ug.bases, ug.generator_exponents,
                  ug.pattern)


def test_three_class_support_is_rejected():
    t = psl2_slice(5)
    # a third class "e" with the values of "c": the data could not pin three
    # unknowns anyway, but the support size alone is the error
    chars = [CharSlice(ch.name, ch.degree, {**ch.values, "e": ch.values["c"]})
             for ch in t.chars]
    with pytest.raises(ValueError):
        invert_profile(chars, _values_of_class(t, "c"), ("c", "d", "e"))


_TABLES = {"psl2_5": (psl2_slice(5), ("c", "d")),
           "psl2_7": (psl2_slice(7), ("c", "d")),
           "psl33": (psl33_slice(), ("a", "b"))}


@pytest.mark.parametrize("table,row", [
    (name, ch.name) for name, (t, _support) in _TABLES.items() for ch in t.chars
])
def test_shifting_any_row_is_inconsistent(table, row):
    """Every row is checked, not only the one the solution is read from."""
    t, support = _TABLES[table]
    values = _values_of_aug(t, support, Fraction(2), Fraction(-1))
    assert invert_profile(t.chars, values, support) == (2, -1)
    values[row] += 1
    with pytest.raises(Inconsistent):
        invert_profile(t.chars, values, support)


def test_round_trip_and_linearity():
    rng = random.Random(11)
    t = psl33_slice()
    for _ in range(20):
        ea = Fraction(rng.randint(-5, 5))
        values = _values_of_aug(t, ("a", "b"), ea, 1 - ea)
        assert invert_profile(t.chars, values, ("a", "b")) == (ea, 1 - ea)
