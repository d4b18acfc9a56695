"""Acceptance gate: one pass/fail line per criterion.

Each criterion prints its verdict directly to the terminal (bypassing
capture) so a plain `pytest -v` run shows the scoreboard.
"""

from fractions import Fraction
from itertools import combinations

import pytest

from grunits.chardata import psl2_slice, psl33_slice, validate_orthogonality
from grunits.constructions import (
    build_psl2_units,
    build_psl33_units,
    invert_profile,
    valenti_search,
    verify_unit_group,
)
from grunits.cyclotomic import Cyclotomic, cyclo
from grunits.finitefield import fq_make, square_lines
from grunits.helpengine import feasible_distributions, subgroup_points
from grunits.oracle import cached_group, check_square_criterion
from grunits.patterns import gap_report, group_patterns
from reference import (
    Assignment,
    block_trace,
    linear_characters,
    multiplicity,
)


def _verdict(capsys, label: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"criterion {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {label} failed"


def test_criterion_1_psl2_feasible_sets(capsys):
    ok = True
    for p in (3, 5, 7, 11, 13):
        scan = feasible_distributions(
            list(psl2_slice(p).chars), p, 2, ("c", "d")
        )
        ok &= scan["feasible"] == [(p + 1) // 2]
        witnessed = {w["x"] for w in scan["witnesses"]}
        ok &= witnessed == set(range(p + 2)) - {(p + 1) // 2}
        ok &= all(
            Fraction(w["multiplicity"]).denominator > 1
            for w in scan["witnesses"]
        )
    _verdict(capsys, "1 (PSL(2,p^2) HeLP scan)", ok)


def test_criterion_2_psl33_exclusion(capsys):
    scan = feasible_distributions(list(psl33_slice().chars), 3, 3, ("a", "b"))
    ok = scan["feasible"] == []
    ok &= {w["x"] for w in scan["witnesses"]} == set(range(14))
    _verdict(capsys, "2 (PSL(3,3) exclusion)", ok)


@pytest.mark.xfail(
    strict=True,
    reason="the closed form (40-6x)/27 is inconsistent with exact inner "
    "products, which give (42-6x)/27 for the trivial character of the "
    "degree-16 row; that value is integral at x = 7, where exclusion "
    "instead needs the kernel characters of every hyperplane",
)
def test_criterion_2_witness_closed_form(capsys):
    scan = feasible_distributions(list(psl33_slice().chars), 3, 3, ("a", "b"))
    by_x = {w["x"]: Fraction(w["multiplicity"]) for w in scan["witnesses"]}
    ok = all(
        by_x[x] == Fraction(40 - 6 * x, 27) and by_x[x].denominator > 1
        for x in range(14)
    )
    _verdict(capsys, "2w (witness values (40-6x)/27)", ok)


def test_criterion_3_psl2_constructions(capsys):
    ok = True
    for p in (3, 5, 7):
        half = (p - 1) // 2
        size = (p * p - 1) // 2
        for members in combinations(range(1, p), half):
            report = verify_unit_group(build_psl2_units(p, set(members)))
            ok &= report["ok"]
            ok &= report["order"] == p * p
            ok &= report["counts"] == {"c": size, "d": size, "other": 0}
            ok &= report["trace_pattern"] == sorted(members)
    _verdict(capsys, "3 (PSL(2,p^2) constructions, all balanced patterns)", ok)


def test_criterion_4_counterexample_certification(capsys):
    ug = build_psl2_units(7, {1, 2, 4})
    report = verify_unit_group(ug)
    ok = report["ok"] and all(e["mrsw"] for e in report["elements"])
    ok &= valenti_search(frozenset(report["trace_pattern"]), 7) is None
    for p in (3, 5):
        for members in combinations(range(1, p), (p - 1) // 2):
            report2 = verify_unit_group(build_psl2_units(p, set(members)))
            ok &= report2["ok"]
            ok &= valenti_search(frozenset(report2["trace_pattern"]),
                                 p) is not None
    # the p = 7 patterns by brute force, with group products only: for g
    # in the class c of unipotent(1) and h outside it, both upper
    # unipotents, the pattern of (g, h) is {i : g h^i in c}
    g49 = cached_group("psl2", 49)
    f = fq_make(7)
    c = g49.conjugacy_class(g49.unipotent(f.one))
    unipotents = [g49.unipotent(lam) for lam in f.elements() if lam != f.zero]
    brute = set()
    for h in (u for u in unipotents if u not in c):
        powers = [h]
        for _ in range(5):
            powers.append(g49.mul(powers[-1], h))
        brute |= {frozenset(i for i, hi in enumerate(powers, 1)
                            if g49.mul(g, hi) in c)
                  for g in unipotents if g in c}
    ok &= brute == group_patterns(7) and len(brute) == 12
    ok &= frozenset({1, 2, 4}) not in brute
    _verdict(capsys, "4 (counterexample certification)", ok)


def test_criterion_5_gap_counting(capsys):
    r11 = gap_report(11, False)
    ok = r11["balanced"] == 252 and r11["pair_count_bound"] == 60
    ok &= r11["counting_gap"] and r11["gap"]
    r7 = gap_report(7, True)
    ok &= len(r7["missing"]) > 0 and [1, 2, 4] in r7["missing"]
    _verdict(capsys, "5 (gap counting)", ok)


def test_criterion_6_psl33_construction(capsys):
    ug = build_psl33_units()
    alpha = ug.element((1, 0, 0))
    ok = block_trace(alpha["chi"]) == 9 and block_trace(alpha["phi"]) == -8
    report = verify_unit_group(ug)
    ok &= report["ok"]
    by_exp = {tuple(e["exponents"]): e["aug"] for e in report["elements"]}
    for (i, j, k), aug in by_exp.items():
        if (j, k) == (0, 0):
            ok &= aug == {"a": "3", "b": "-2"}
        elif (i + j + k) % 3 == 0:
            ok &= aug == {"a": "1", "b": "0"}
        else:
            ok &= aug == {"a": "0", "b": "1"}
    _verdict(capsys, "6 (PSL(3,3) construction)", ok)


def test_criterion_7_character_data_integrity(capsys):
    ok = all(
        validate_orthogonality(psl2_slice(p))["ok"] for p in (3, 5, 7, 11, 13)
    )
    t33 = psl33_slice()
    ok &= validate_orthogonality(t33)["ok"]
    for p in (3, 5, 7):
        sizes = sorted(s for _r, s in cached_group("psl2", p * p)
                       .order_p_classes())
        ok &= sizes == sorted(c.class_size for c in psl2_slice(p).classes
                              if c.id != "1")
    g33 = cached_group("psl3", 3)
    sizes33 = sorted(s for _r, s in g33.order_p_classes())
    ok &= sizes33 == sorted(c.class_size for c in t33.classes if c.id != "1")
    _verdict(capsys, "7 (character-data integrity)", ok)


def test_criterion_8_oracle_coherence(capsys):
    g9 = cached_group("psl2", 9)
    classes = g9.order_p_classes()
    ok = g9.order == 360 and sorted(s for _r, s in classes) == [40, 40]
    ok &= all(check_square_criterion(p) for p in (3, 5, 7))
    ok &= all(
        square_lines(p) == ((p + 1) // 2, (p + 1) // 2)
        for p in (3, 5, 7, 11, 13)
    )
    _verdict(capsys, "8 (oracle coherence)", ok)


def test_criterion_9_property_suites(capsys):
    ok = True
    # cyclotomic root-of-unity sums and a field-axiom sample
    for p in (3, 5, 7):
        total = Cyclotomic.from_rational(0, p)
        for k in range(p):
            total = total + cyclo(p, k)
        ok &= total.is_zero()
    a, b, c = cyclo(7, 1) + 2, cyclo(7, 3) * Fraction(1, 2), cyclo(7, 5) - 1
    ok &= (a * b) * c == a * (b * c)
    ok &= a * (b + c) == a * b + a * c
    ok &= a * a.inv() == 1
    # invert_profile round-trip / linearity
    t = psl33_slice()
    for ea in (-3, 0, 1, 4):
        values = {ch.name: ea * ch.values["a"] + (1 - ea) * ch.values["b"]
                  for ch in t.chars}
        ok &= invert_profile(t.chars, values, ("a", "b")) == (ea, 1 - ea)
    # Fourier completeness
    t5 = psl2_slice(5)
    eta = t5.char_by_name("eta")
    points = subgroup_points(5, 2)
    asn = Assignment(5, 2, {
        pt: ("c" if i < 3 else "d") for i, pt in enumerate(points)
    })
    total = Fraction(0)
    for chi in linear_characters(5, 2):
        total += multiplicity(eta, asn, chi).as_rational()
    ok &= total == eta.degree
    # assignment-symmetry check runs inside every rank-2 scan
    scan = feasible_distributions(list(t5.chars), 5, 2, ("c", "d"))
    ok &= any("count symmetry verified" in n for n in scan["notes"])
    _verdict(capsys, "9 (property suites)", ok)
