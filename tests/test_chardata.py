import os
from fractions import Fraction
from itertools import combinations

import pytest
from conftest import PSL33_DAMAGES

from grunits.chardata import (
    PSL33_ORDER3,
    ValidationError,
    format_rational,
    load_table,
    mixed_value_decomposition,
    psl2_slice,
    psl33_slice,
    validate_orthogonality,
)
from grunits.oracle import cached_group


def test_psl2_slice_p3_shape():
    t = psl2_slice(3)
    assert t.group_order == 360
    assert [c.class_size for c in t.classes] == [1, 40, 40]
    eta = t.char_by_name("eta")
    assert (eta.degree, eta.values["c"], eta.values["d"]) == (5, 2, -1)
    # total rows (q+5)/2
    assert len(t.chars) == 7


def test_psl2_slice_prime_cap():
    assert len(psl2_slice(101).chars) == (101 ** 2 + 5) // 2
    with pytest.raises(ValueError, match="p capped at 101"):
        psl2_slice(103)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_psl2_slice_row_inventory(p):
    q = p * p
    t = psl2_slice(p)
    assert len(t.chars) == (q + 5) // 2
    assert t.group_order == q * (q * q - 1) // 2
    degrees = sorted(ch.degree for ch in t.chars)
    assert degrees.count(q + 1) == (q - 5) // 4
    assert degrees.count(q - 1) == (q - 1) // 4
    eta, eta_t = t.char_by_name("eta"), t.char_by_name("eta_t")
    assert eta.degree == eta_t.degree == (q + 1) // 2
    assert eta.values["c"] - eta.values["d"] == p
    assert eta.values["c"] + eta.values["d"] == 1
    assert eta_t.values["c"] == eta.values["d"]
    assert eta_t.values["d"] == eta.values["c"]


def test_psl2_steinberg_p5():
    t = psl2_slice(5)
    st_row = next(ch for ch in t.chars if ch.degree == 25)
    assert (st_row.values["c"], st_row.values["d"]) == (0, 0)
    assert len(t.chars) == 15


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_psl2_orthogonality(p):
    report = validate_orthogonality(psl2_slice(p))
    assert report["ok"]
    # spot-check the diagonal entries: c vs c equals the centralizer order q
    q = p * p
    cc = next(ch for ch in report["checks"] if ch["columns"] == ["c", "c"])
    assert cc["actual"] == str(q)


def test_psl33_slice_rows():
    t = psl33_slice()
    assert t.group_order == 5616
    chi = t.char_by_name("chi12")
    phi = t.char_by_name("chi16a")
    assert (chi.degree, chi.values["a"], chi.values["b"]) == (12, 3, 0)
    assert (phi.degree, phi.values["a"], phi.values["b"]) == (16, -2, 1)
    assert validate_orthogonality(t)["ok"]
    assert sum(ch.degree ** 2 for ch in t.chars) == 5616


def test_psl33_mixed_rows_and_decomposition():
    t = psl33_slice()
    for name in ("chi12", "chi16a"):
        row = t.char_by_name(name)
        assert row.values["a"] != row.values["b"]
    assert mixed_value_decomposition(t, "a", "b", "chi12", "chi16a") is True


def test_decomposition_fails_when_base_rows_do_not_separate(renamed_psl33):
    # chi12 and chi16a name rows equal on a and b: no multiple of them
    # accounts for another row's imbalance, whatever n1 and n2 are
    t = load_table(renamed_psl33("swapped-names") / "psl33.tbl")
    assert validate_orthogonality(t)["ok"]
    assert mixed_value_decomposition(t, "a", "b", "chi12", "chi16a") is False


def test_missing_row_is_a_validation_error():
    with pytest.raises(ValidationError, match="PSL\\(3,3\\) table has no row chi99"):
        psl33_slice().char_by_name("chi99")


def test_load_table_rejects_bad_orthogonality(tmp_path):
    bad = tmp_path / "bad.tbl"
    bad.write_text(
        "group X order 6\n"
        "class 1 1 1\n"
        "class a 2 3\n"
        "char triv 1 1 1\n"
        "char sgn 1 1 1\n"
    )
    with pytest.raises(ValidationError):
        load_table(str(bad))


# psl33_slice must raise a ValidationError on a header whose order is not a
# number and on each of conftest's PSL33_DAMAGES
LOAD_ERRORS = ("order-not-a-number", *PSL33_DAMAGES)


@pytest.mark.parametrize("damage", LOAD_ERRORS)
def test_load_table_parse_error(damage, tmp_path, damaged_psl33, monkeypatch):
    if damage == "order-not-a-number":
        (tmp_path / "psl33.tbl").write_text("group X order notanumber\n")
    else:
        damaged_psl33(damage)
    monkeypatch.setenv("GRS_DATA_DIR", str(tmp_path))
    with pytest.raises(ValidationError):
        psl33_slice()


def test_load_errors_name_the_line(tmp_path, damaged_psl33, monkeypatch):
    monkeypatch.setenv("GRS_DATA_DIR", str(damaged_psl33("non-integral")))
    with pytest.raises(ValidationError,
                       match="^line 12: '27/23' is not a decimal integer$"):
        psl33_slice()


# an optional "-" and ASCII digits only: "²" and "٣" pass str.isdigit()
@pytest.mark.parametrize("token", ["+5", "-", "--1", "1_0", "²", "٣"])
def test_load_table_rejects_non_decimal_tokens(token, tmp_path):
    (tmp_path / "psl33.tbl").write_text(f"group X order {token}\n",
                                        encoding="utf-8")
    with pytest.raises(ValidationError) as info:
        load_table(str(tmp_path / "psl33.tbl"))
    assert str(info.value) == f"line 1: {token!r} is not a decimal integer"


@pytest.mark.parametrize("table", [psl2_slice(p) for p in (3, 5, 7, 11, 13)]
                         + [psl33_slice()], ids=lambda t: t.group)
def test_slices_hold_only_int_values(table):
    assert all(type(ch.degree) is int for ch in table.chars)
    assert all(type(v) is int
               for ch in table.chars for v in ch.values.values())


def test_grs_data_dir_env(tmp_path, monkeypatch):
    import shutil
    from grunits.chardata import data_dir
    src = os.path.join(data_dir(), "psl33.tbl")
    shutil.copy(src, tmp_path / "psl33.tbl")
    monkeypatch.setenv("GRS_DATA_DIR", str(tmp_path))
    t = psl33_slice()
    assert t.group_order == 5616


def _rank_minus_identity(rep) -> int:
    """The rank over F_3 of g - I for an order-3 element g of PSL(3,3),
    given as its row codes 9a + 3b + c: 1 for a transvection, else 2."""
    m = [[(code // 3 ** (2 - j) % 3 - (i == j)) % 3 for j in range(3)]
         for i, code in enumerate(rep)]
    minors = [m[i][k] * m[j][l] - m[i][l] * m[j][k]
              for i, j in combinations(range(3), 2)
              for k, l in combinations(range(3), 2)]
    return 1 if all(x % 3 == 0 for x in minors) else 2


def test_psl33_class_labels_match_enumeration():
    # a names the transvections (g - I of rank 1), b the regular unipotents
    g = cached_group("psl3", 3)
    enumerated = {"ab"[_rank_minus_identity(rep) - 1]:
                  (g.element_order(rep), size)
                  for rep, size in g.order_p_classes()}
    assert enumerated == PSL33_ORDER3 == {"a": (3, 104), "b": (3, 624)}
    assert {c.id: (c.element_order, c.class_size)
            for c in psl33_slice().classes if c.id != "1"} == PSL33_ORDER3


def test_format_rational_matches_fraction_text():
    for x in [*range(-1000, 1001), 10 ** 40, -(3 ** 90), 2 ** 61 - 1,
              Fraction(3, 7), Fraction(-10, 4), Fraction(6, 3),
              Fraction(0, 5)]:
        assert format_rational(x) == str(Fraction(x)), x


def test_format_rational_of_a_bool():
    assert (format_rational(True), format_rational(False)) == ("1", "0")
