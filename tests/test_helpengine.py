import inspect
import itertools
import json
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from grunits import helpengine
from grunits.chardata import CharSlice, format_rational, psl2_slice, psl33_slice
from grunits.cli import main
from grunits.helpengine import (
    _int_rows,
    feasible_distributions,
    hyperplane_table,
    subgroup_points,
)
from reference import (
    Assignment,
    UnassignedClass,
    _check_flags,
    incidence_table,
    linear_characters,
    multiplicity,
    normalized_points,
)


def _rank2_assignment(p, x, first="c", second="d"):
    points = subgroup_points(p, 2)
    return Assignment(p, 2, {
        pt: (first if i < x else second) for i, pt in enumerate(points)
    })


def test_subgroup_points_count():
    assert len(subgroup_points(7, 2)) == 8
    assert len(subgroup_points(3, 3)) == 13


@pytest.mark.parametrize("p, rank", [(p, 2) for p in (3, 5, 7, 11, 13, 17,
                                                      19, 23)]
                         + [(3, 3), (5, 3)])
def test_points_and_incidences_match_the_generic_reference(p, rank):
    assert subgroup_points(p, rank) == normalized_points(p, rank)
    assert hyperplane_table(p, rank) == incidence_table(p, rank)


def test_assignment_constant_on_cyclic_subgroups():
    a = _rank2_assignment(5, 2)
    for w in [(1, 3), (2, 1), (0, 4)]:
        for k in range(1, 5):
            scaled = tuple(c * k % 5 for c in w)
            assert a.class_of(scaled) == a.class_of(w)


def test_unassigned_class():
    a = Assignment(3, 2, {(1, 0): "c"})
    with pytest.raises(UnassignedClass):
        a.class_of((0, 1))


def test_multiplicity_examples_p7():
    t = psl2_slice(7)
    eta = t.char_by_name("eta")
    # kernel character of <u> with u = (1,0) on class c
    chi = (0, 1)
    m4 = multiplicity(eta, _rank2_assignment(7, 4), chi)
    assert m4.as_rational() == 1  # (77 - 28)/49
    m3 = multiplicity(eta, _rank2_assignment(7, 3), chi)
    assert m3.as_rational() == Fraction(56, 49)


def test_multiplicity_rank3_closed_form():
    t = psl33_slice()
    phi = t.char_by_name("chi16a")
    points = subgroup_points(3, 3)
    for x in (0, 5, 13):
        a = Assignment(3, 3, {
            pt: ("a" if i < x else "b") for i, pt in enumerate(points)
        })
        m = multiplicity(phi, a, (0, 0, 0))
        y = 13 - x
        assert m.as_rational() == Fraction(16 - 4 * x + 2 * y, 27)


def test_fourier_completeness():
    t = psl2_slice(5)
    a = _rank2_assignment(5, 3)
    for theta in [t.char_by_name("eta"), t.chars[0], t.chars[1]]:
        total = Fraction(0)
        for chi in linear_characters(5, 2):
            total += multiplicity(theta, a, chi).as_rational()
        assert total == theta.degree


def test_closed_form_matches_direct():
    """The scan's kernel closed form must agree with the verbatim sum."""
    t = psl2_slice(5)
    eta = t.char_by_name("eta")
    points = subgroup_points(5, 2)
    hps = hyperplane_table(5, 2)
    for x in (0, 2, 3, 6):
        a = Assignment(5, 2, {
            pt: ("c" if i < x else "d") for i, pt in enumerate(points)
        })
        vals = [eta.values[a.class_of(pt)] for pt in points]
        deg = Fraction(eta.degree)
        for e, inside in hps:
            closed = (deg - sum(vals) + 5 * sum(vals[i] for i in inside)) / 25
            direct = multiplicity(eta, a, e).as_rational()
            assert closed == direct


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_psl2_feasible_set(p):
    t = psl2_slice(p)
    scan = feasible_distributions(list(t.chars), p, 2, ("c", "d"))
    assert scan["feasible"] == [(p + 1) // 2]
    infeasible = set(range(p + 2)) - {(p + 1) // 2}
    assert {w["x"] for w in scan["witnesses"]} == infeasible
    for w in scan["witnesses"]:
        assert Fraction(w["multiplicity"]).denominator > 1 or \
            Fraction(w["multiplicity"]) < 0


def test_psl33_feasible_set_empty():
    t = psl33_slice()
    scan = feasible_distributions(list(t.chars), 3, 3, ("a", "b"))
    assert scan["feasible"] == []
    assert {w["x"] for w in scan["witnesses"]} == set(range(14))


def test_psl33_x7_needs_exhaustion():
    """x = 7 passes every count-level test; only kernel geometry kills it."""
    t = psl33_slice()
    scan = feasible_distributions(list(t.chars), 3, 3, ("a", "b"))
    w7 = next(w for w in scan["witnesses"] if w["x"] == 7)
    assert w7.get("mode") == "exhaustive"
    assert w7["assignments_checked"] == 1716


def test_p2_early_exit():
    with pytest.raises(ValueError):
        feasible_distributions([], 2, 2, ("c", "d"))


def test_composite_p_rejected():
    rows = list(psl2_slice(3).chars)
    with pytest.raises(ValueError, match="p must be an odd prime"):
        feasible_distributions(rows, 9, 2, ("c", "d"))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
def test_rank2_kernels_meet_one_subgroup_each(p):
    # the premise that makes one representative per count exact at rank 2
    table = hyperplane_table(p, 2)
    assert len(table) == p + 1
    assert all(len(inside) == 1 for _e, inside in table)
    hits = Counter(i for _e, inside in table for i in inside)
    assert hits == Counter(range(p + 1))


def test_rank2_scan_rejects_a_kernel_with_two_subgroups(monkeypatch):
    real = helpengine.hyperplane_table

    def two_in_first_kernel(p, rank):
        table = real(p, rank)
        e, inside = table[0]
        table[0] = (e, inside | {max(inside) + 1})
        return table

    monkeypatch.setattr(helpengine, "hyperplane_table", two_in_first_kernel)
    with pytest.raises(AssertionError, match="count symmetry failed"):
        feasible_distributions(list(psl2_slice(5).chars), 5, 2, ("c", "d"))


def test_scan_json_shape():
    t = psl2_slice(3)
    j = feasible_distributions(list(t.chars), 3, 2, ("c", "d"))
    assert j["feasible"] == [2]
    assert j["classes"] == ["c", "d"]
    assert all(set(w) >= {"x", "theta", "chi", "multiplicity"}
               for w in j["witnesses"])


def _row_by_row_witnesses(theta_set, p):
    """The row-by-row rank-2 witness rule, the reference for the scan's
    count-first rule: for the representative assignment of each count x,
    walk the rows in order and report, within a row, the trivial character
    before the kernels."""
    n, size = p + 1, p * p
    hyperplanes = hyperplane_table(p, 2)
    witnesses = []
    for x in range(n + 1):
        for theta in theta_set:
            # cyclic subgroups 0 .. x-1 carry class c, the rest class d
            vals = [int(theta.values["c" if i < x else "d"]) for i in range(n)]
            deg, s = theta.degree, sum(vals)

            def tests():
                yield "trivial", deg + (p - 1) * s
                for e, inside in hyperplanes:
                    k = sum(vals[i] for i in inside)
                    yield "ker=" + ",".join(map(str, e)), deg - s + p * k

            fail = next(((chi, m) for chi, m in tests() if m % size or m < 0),
                        None)
            if fail:
                witnesses.append({"x": x, "theta": theta.name, "chi": fail[0],
                                  "multiplicity": str(Fraction(fail[1], size))})
                break
    return witnesses


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
def test_psl2_witnesses_match_row_by_row_rule(p):
    t = psl2_slice(p)
    scan = feasible_distributions(list(t.chars), p, 2, ("c", "d"))
    assert scan["witnesses"] == _row_by_row_witnesses(list(t.chars), p)


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_psl2_rows_collapse_to_distinct_triples(p):
    # (p^2 + 5)/2 rows, six distinct (degree, value on c, value on d)
    rows = _int_rows(list(psl2_slice(p).chars), ("c", "d"))
    assert [name for name, *_values in rows] == [
        "triv", "steinberg", "ps1", "ds1", "eta", "eta_t"]


def test_psl33_witnesses_pinned():
    t = psl33_slice()
    scan = feasible_distributions(list(t.chars), 3, 3, ("a", "b"))
    trivial = {0: "4/9", 1: "2/3", 2: "8/9", 3: "10/9", 4: "4/3", 5: "14/9",
               6: "16/9", 8: "20/9", 9: "22/9", 10: "8/3", 11: "26/9",
               12: "28/9", 13: "10/3"}
    expected = [{"x": x, "theta": "chi12", "chi": "trivial", "multiplicity": m}
                for x, m in trivial.items()]
    expected.insert(7, {"x": 7, "theta": "chi12", "chi": "ker=0,0,1",
                        "multiplicity": "1/3", "mode": "exhaustive",
                        "assignments_checked": 1716})
    assert scan["witnesses"] == expected
    assert scan["feasible"] == scan["feasible_kernel_only"] == []


def test_psl33_allowed_intersections_pinned(tmp_path):
    scan = feasible_distributions(list(psl33_slice().chars), 3, 3, ("a", "b"))
    assert scan["allowed_intersections"] == [
        [], [2], [], [], [0, 3], [], [], [1, 4], [], [], [2], [], [], [3]]
    out = tmp_path / "r.json"
    assert main(["help-scan", "--group", "psl33", "--json", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["result"]["allowed_intersections"] == \
        scan["allowed_intersections"]


def test_rank2_report_has_no_allowed_intersections():
    scan = feasible_distributions(list(psl2_slice(5).chars), 5, 2, ("c", "d"))
    assert "allowed_intersections" not in scan


# degree 27, -9 on a, 0 on b: at x = 3 the first assignment {0, 1, 2} is
# collinear and fails the kernels, while a non-collinear triple passes
SYNTHETIC = [CharSlice("syn", 27, {"a": -9, "b": 0})]


@pytest.mark.parametrize("theta_set, some_pass", [
    (list(psl33_slice().chars), False), (SYNTHETIC, True)],
    ids=["psl33", "synthetic"])
def test_intersection_counts_decide_every_rank3_assignment(theta_set,
                                                           some_pass):
    """_check_flags passes exactly the assignments whose intersection count
    with every kernel lies in A(x), over all 2^13 assignments."""
    rows = _int_rows(theta_set, ("a", "b"))
    hyperplanes = hyperplane_table(3, 3)
    allowed = feasible_distributions(theta_set, 3, 3,
                                     ("a", "b"))["allowed_intersections"]
    passing = False
    for flags in itertools.product((0, 1), repeat=13):
        by_counts = all(sum(flags[i] for i in inside) in allowed[sum(flags)]
                        for _e, inside in hyperplanes)
        by_rows = _check_flags(rows, list(flags), 3, 27, hyperplanes) is None
        assert by_rows == by_counts, flags
        passing = passing or by_rows
    assert passing == some_pass


def test_rank3_search_answers_as_the_full_enumeration():
    """_meets on PG(2,3)'s 13 lines, against every count-x assignment: all
    434 instances, x in 0..13 and every nonempty A in {0, .., 4}."""
    lines = [sum(1 << i for i in inside)
             for _e, inside in hyperplane_table(3, 3)]
    meets_by_x = [[] for _ in range(14)]
    for mask in range(1 << 13):
        meets_by_x[mask.bit_count()].append(
            [(mask & line).bit_count() for line in lines])
    instances = [(x, allowed) for x in range(14) for r in range(1, 6)
                 for allowed in itertools.combinations(range(5), r)]
    assert len(instances) == 434
    passing = 0
    for x, allowed in instances:
        expected = any(all(m in allowed for m in meets)
                       for meets in meets_by_x[x])
        found = helpengine._meets(lines, allowed, x, (1 << 13) - 1)
        assert found == expected, (x, allowed)
        passing += expected
    assert 0 < passing < len(instances)


def test_rank3_search_stops_at_the_first_passing_assignment(monkeypatch):
    # a call past the last line is a leaf, an assignment that passes; the
    # report never shows how many there are, so count them per x
    real = helpengine._meets
    signature = inspect.signature(real)
    leaves = Counter()

    def counting(*args, **kwargs):
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        if call.arguments["i"] == len(call.arguments["lines"]):
            leaves[call.arguments["x"]] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(helpengine, "_meets", counting)
    scan = feasible_distributions(SYNTHETIC, 3, 3, ("a", "b"))
    assert leaves == Counter(scan["feasible_kernel_only"])
    rows, hyperplanes = _int_rows(SYNTHETIC, ("a", "b")), hyperplane_table(3, 3)
    passing = sum(
        _check_flags(rows, [int(i in subset) for i in range(13)], 3, 27,
                     hyperplanes) is None
        for subset in itertools.combinations(range(13), 3))
    assert leaves[3] == 1 < passing


def _row_loop_scan(theta_set, p, rank, class_ids):
    """The row-by-row scan, the reference for the intersection-count scan:
    each candidate assignment is a 0/1 flag list tested by _check_flags,
    and a report without `allowed_intersections` comes out."""
    n = len(subgroup_points(p, rank))
    size = p ** rank
    hyperplanes = hyperplane_table(p, rank)
    rows = _int_rows(theta_set, class_ids)
    exhaustive = rank == 3
    feasible, feasible_kernel, witnesses = [], [], []
    for x in range(n + 1):
        count_fail = None
        for name, deg, va, vb in rows:
            num = deg + (p - 1) * (x * va + (n - x) * vb)
            if num % size or num < 0:
                count_fail = (name, "trivial", Fraction(num, size))
                break
        candidates = (itertools.combinations(range(n), x) if exhaustive
                      else [range(x)])
        kernel_ok = False
        first_fail = None
        for checked, subset in enumerate(candidates, 1):
            flags = [0] * n
            for i in subset:
                flags[i] = 1
            fail = _check_flags(rows, flags, p, size, hyperplanes)
            if fail is None:
                kernel_ok = True
                break
            first_fail = first_fail or fail
        if kernel_ok:
            feasible_kernel.append(x)
            if count_fail is None:
                feasible.append(x)
                continue
        name, chi, m = count_fail or first_fail
        entry = {"x": x, "theta": name, "chi": chi,
                 "multiplicity": format_rational(m)}
        if exhaustive and count_fail is None:
            entry["mode"] = "exhaustive"
            entry["assignments_checked"] = checked
        witnesses.append(entry)
    notes = [
        "rank 3: the multiplicity of a kernel character sees which "
        "subgroups its hyperplane contains, not just the counts, so "
        "surviving counts are settled by exhausting all assignments with "
        "that count" if exhaustive else
        "rank 2: representative assignments suffice "
        "(count symmetry verified this run)"]
    if feasible != feasible_kernel:
        notes.append(f"full filter {feasible} is strictly stronger than the "
                     f"kernel-character filter {feasible_kernel}")
    return {"p": p, "rank": rank, "classes": list(class_ids),
            "feasible": feasible, "feasible_kernel_only": feasible_kernel,
            "witnesses": witnesses, "notes": notes}


def _assert_scan_matches_row_loop(theta_set, p, rank, class_ids):
    scan = feasible_distributions(theta_set, p, rank, class_ids)
    report = dict(scan)
    report.pop("allowed_intersections", None)
    assert report == _row_loop_scan(theta_set, p, rank, class_ids)
    return scan


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
def test_psl2_scan_matches_row_loop(p):
    _assert_scan_matches_row_loop(list(psl2_slice(p).chars), p, 2, ("c", "d"))


def test_psl33_scan_matches_row_loop():
    scan = _assert_scan_matches_row_loop(list(psl33_slice().chars), 3, 3,
                                         ("a", "b"))
    assert scan["feasible_kernel_only"] == []


def test_synthetic_rank3_scan_matches_row_loop():
    rows = _int_rows(SYNTHETIC, ("a", "b"))
    first = [1, 1, 1] + [0] * 10
    assert _check_flags(rows, first, 3, 27, hyperplane_table(3, 3)) is not None
    scan = _assert_scan_matches_row_loop(SYNTHETIC, 3, 3, ("a", "b"))
    assert scan["feasible_kernel_only"] == [0, 3, 6, 9, 12]
    assert scan["feasible"] == [0]


def test_empty_allowed_set_counts_every_assignment_unenumerated():
    # degree 1, 28 on both classes: the trivial multiplicity 729/27 passes
    # at every x, every kernel multiplicity is -1, so every A(x) is empty
    theta_set = [CharSlice("flat", 1, {"a": 28, "b": 28})]
    scan = _assert_scan_matches_row_loop(theta_set, 3, 3, ("a", "b"))
    assert scan["allowed_intersections"] == [[]] * 14
    assert [w["assignments_checked"] for w in scan["witnesses"]] == [
        comb(13, x) for x in range(14)]
