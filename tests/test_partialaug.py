"""The exact partial-augmentation solve, `constructions.invert_profile`."""

import random
from fractions import Fraction

import pytest

from itertools import combinations

from grunits.chardata import (CharSlice, ValidationError, format_rational,
                              psl2_slice, psl33_slice)
from grunits.constructions import (
    Inconsistent,
    UnitGroup,
    build_psl2_units,
    build_psl33_units,
    invert_profile,
    solve_element,
    verify_unit_group,
)
from reference import fraction_invert_profile, fraction_traces


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


@pytest.mark.parametrize("p,members", [
    *((3, set(m)) for m in combinations(range(1, 3), 1)),
    *((5, set(m)) for m in combinations(range(1, 5), 2)),
    (7, {1, 2, 4}),
    (7, {1, 2, 3}),
    (3, None),  # PSL(3,3)
])
def test_integer_solve_matches_fraction_reference(p, members):
    """The integer traces and the one-division solve give every element
    the eps, integrality and MRSW verdict of the all-`Fraction` solve, and
    an integral eps as `int`s."""
    ug = build_psl33_units() if members is None else build_psl2_units(p, members)
    report = verify_unit_group(ug)
    assert report["problems"] == []
    entries = {tuple(e["exponents"]): e for e in report["elements"]}
    xa, xb = ug.support
    for exps in ug.exponent_vectors():
        if not any(exps):
            continue
        traces = {ug.distinguished[c]: t
                  for c, t in fraction_traces(ug, exps).items()}
        ex, ey = fraction_invert_profile(ug.solve_rows, traces, ug.support)
        integral = ex.denominator == 1
        got = solve_element(ug, ug.traces(exps))
        assert got == (ex, ey)
        if integral:
            assert [type(e) for e in got] == [int, int]
        entry = entries[exps]
        assert entry["aug"] == {xa: format_rational(ex), xb: format_rational(ey)}
        assert entry["traces"] == {c: format_rational(t) for c, t
                                   in fraction_traces(ug, exps).items()}
        assert entry["integral"] is integral
        assert entry["mrsw"] is (ex >= 0 and ey >= 0)


def test_non_integral_eps_is_a_fraction():
    # eps = (1/3, 2/3) gives integer values on every PSL(3,3) row, so only
    # the division can tell that it is not a group element's
    t = psl33_slice()
    values = _values_of_aug(t, ("a", "b"), Fraction(1, 3), Fraction(2, 3))
    assert all(v.denominator == 1 for v in values.values())
    values = {name: int(v) for name, v in values.items()}
    ex, ey = invert_profile(t.chars, values, ("a", "b"))
    assert (type(ex), type(ey)) == (Fraction, Fraction)
    assert (ex, ey) == (Fraction(1, 3), Fraction(2, 3))
    assert fraction_invert_profile(t.chars, values, ("a", "b")) == (ex, ey)


def test_non_integral_eps_in_the_report():
    # chi12 = 1 and chi16a = 0 solve to eps = (1/3, 2/3); no product of the
    # shipped bases has these traces, so they are put in by hand
    ug = build_psl33_units()
    odd = (0, 0, 1)
    ug.traces = lambda exps: ({"chi": 1, "phi": 0} if exps == odd
                              else UnitGroup.traces(ug, exps))
    report = verify_unit_group(ug)
    entry = next(e for e in report["elements"] if tuple(e["exponents"]) == odd)
    assert entry["traces"] == {"chi": "1", "phi": "0"}
    assert entry["aug"] == {"a": "1/3", "b": "2/3"}
    assert entry["integral"] is False and entry["mrsw"] is True
    assert report["all_integral"] is False and report["ok"] is False


def test_inconsistent_text_matches_fraction_reference():
    # the b column negated: chi16a contradicts what chi12 gives for most
    # elements, and the error names eps as the `Fraction` solve prints it
    ug = build_psl33_units()
    rows = [CharSlice(ch.name, ch.degree, {**ch.values, "b": -ch.values["b"]})
            for ch in ug.solve_rows]
    failures = 0
    for exps in ug.exponent_vectors():
        if not any(exps):
            continue
        outcomes = []
        for solve, traces in ((invert_profile, ug.traces(exps)),
                              (fraction_invert_profile,
                               fraction_traces(ug, exps))):
            values = {ug.distinguished[c]: t for c, t in traces.items()}
            try:
                outcomes.append(solve(rows, values, ug.support))
            except Inconsistent as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        failures += isinstance(outcomes[0], str)
    assert failures == 18
