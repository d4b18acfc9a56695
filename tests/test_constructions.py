from fractions import Fraction
from itertools import combinations, product

import pytest

from grunits.constructions import (
    UnitGroup,
    build_psl2_units,
    build_psl33_units,
    element_profile,
    invert_profile,
    solve_element,
    valenti_search,
    verify_unit_group,
)
from grunits.finitefield import fq_make
from grunits.matrices import BlockDiag, QMatrix, companion_cyclotomic
from grunits.patterns import balanced_patterns, group_patterns
from reference import block_trace, element_blocks, matrix_pow


def test_bad_pattern_rejected():
    with pytest.raises(ValueError, match="pattern must be"):
        build_psl2_units(7, {1, 2})
    with pytest.raises(ValueError, match="pattern must be"):
        build_psl2_units(7, {0, 2, 4})
    with pytest.raises(ValueError):
        build_psl2_units(9, {1, 2, 4})
    with pytest.raises(ValueError):
        build_psl2_units(17, {1, 2, 4, 5, 6, 7, 8, 9})


def test_psl2_p7_counterexample_pattern():
    ug = build_psl2_units(7, {1, 2, 4})
    report = verify_unit_group(ug)
    assert report["ok"]
    assert report["order"] == 49
    assert report["counts"] == {"c": 24, "d": 24, "other": 0}
    assert report["trace_pattern"] == [1, 2, 4]
    assert report["all_integral"] and report["all_mrsw"]


def test_psl2_generator_traces():
    ug = build_psl2_units(7, {1, 2, 4})
    eta = ug.table.char_by_name("eta")
    u = element_blocks(ug, (1, 0))["eta"]
    v = element_blocks(ug, (0, 1))["eta"]
    assert block_trace(u) == eta.values["c"] == 4
    assert block_trace(v) == eta.values["d"] == -3
    for j in range(1, 7):
        t = block_trace(element_blocks(ug, (1, j))["eta"])
        assert t == (eta.values["c"] if j in {1, 2, 4} else eta.values["d"])


@pytest.mark.parametrize("p", [3, 5])
def test_all_balanced_patterns_small_p(p):
    half = (p - 1) // 2
    for members in combinations(range(1, p), half):
        report = verify_unit_group(build_psl2_units(p, set(members)))
        assert report["ok"]
        assert report["counts"]["c"] == (p * p - 1) // 2
        assert report["counts"]["d"] == (p * p - 1) // 2


def _trace_pattern(p, members):
    return frozenset(
        verify_unit_group(build_psl2_units(p, members))["trace_pattern"])


def test_valenti_search_counterexample():
    assert valenti_search(_trace_pattern(7, {1, 2, 4}), 7) is None


def test_valenti_search_realizable():
    witness = valenti_search(_trace_pattern(7, {1, 2, 3}), 7)
    assert witness is not None
    assert witness["pattern"] == [1, 2, 3]


@pytest.mark.parametrize("p", [3, 5])
def test_valenti_search_small_p_always_witnessed(p):
    half = (p - 1) // 2
    for members in combinations(range(1, p), half):
        target = _trace_pattern(p, set(members))
        assert valenti_search(target, p) is not None


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_valenti_search_agrees_with_group_patterns(p):
    # valenti_search and group_patterns read one table, so their agreement
    # only shows that they read it alike; the independent part is the
    # field arithmetic below, which checks that (1, h) realizes the target
    f = fq_make(p)
    realizable = group_patterns(p)
    for target in balanced_patterns(p):
        witness = valenti_search(target, p)
        assert (witness is None) == (target not in realizable)
        if witness is None:
            continue
        assert witness["g"] == f.format(f.one)
        h = tuple(int(c) for c in witness["h"].removesuffix("*w").split("+"))
        assert not f.is_square(h)
        # 1 + i*h is never 0: -1/i lies in F_p, and F_p consists of squares
        realized = {i for i in range(1, p)
                    if f.is_square(f.add(f.one, f.mul((i, 0), h)))}
        assert realized == target
        assert witness["pattern"] == sorted(target)


def test_psl33_construction():
    ug = build_psl33_units()
    report = verify_unit_group(ug)
    assert report["ok"]
    assert report["order"] == 27
    assert report["all_integral"]
    assert not report["all_mrsw"]  # alpha and alpha^2 fail the criterion


def test_psl33_alpha_values():
    ug = build_psl33_units()
    alpha = element_blocks(ug, (1, 0, 0))
    assert block_trace(alpha["chi"]) == 9
    assert block_trace(alpha["phi"]) == -8
    report = verify_unit_group(ug)
    by_exp = {tuple(e["exponents"]): e for e in report["elements"]}
    for i in (1, 2):
        assert by_exp[(i, 0, 0)]["aug"] == {"a": "3", "b": "-2"}
        assert not by_exp[(i, 0, 0)]["mrsw"]


def test_psl33_epsilon_pattern():
    ug = build_psl33_units()
    report = verify_unit_group(ug)
    for entry in report["elements"]:
        i, j, k = entry["exponents"]
        if (j, k) == (0, 0):
            continue  # powers of alpha handled above
        expected = {"a": "1", "b": "0"} if (i + j + k) % 3 == 0 else \
            {"a": "0", "b": "1"}
        assert entry["aug"] == expected
        assert entry["mrsw"]


def _psl2_generators(p, members):
    A = companion_cyclotomic(p)
    one, E = QMatrix.identity(1), QMatrix.identity(p - 1)
    u = BlockDiag([one, E] + [matrix_pow(A, (-i) % p)
                              for i in sorted(members)])
    v = BlockDiag([one] + [A] * ((p + 1) // 2))
    return [{"eta": u}, {"eta": v}]


def _psl33_generators():
    A = QMatrix([[0, -1], [1, -1]])
    pick = {"E": QMatrix.identity(2), "A": A, "B": A * A}

    def blocks(letters):
        return BlockDiag(pick[s] for s in letters)

    return [
        {"chi": blocks("EEEEEA"), "phi": blocks("AAAAAAAA")},
        {"chi": blocks("EEAAAA"), "phi": blocks("EEEAABBB")},
        {"chi": blocks("EAAEBA"), "phi": blocks("EABEBEAB")},
    ]


def _multiplied_out(generators, p):
    """Every element u_1^e_1 ... u_r^e_r as explicit block products."""
    powers = []
    for gen in generators:
        row = [{c: BlockDiag(QMatrix.identity(b.dim) for b in g.blocks)
                for c, g in gen.items()}]
        for _ in range(p - 1):
            row.append({c: row[-1][c] * gen[c] for c in gen})
        powers.append(row)
    elements = {}
    for exps in product(range(p), repeat=len(generators)):
        acc = powers[0][exps[0]]
        for i in range(1, len(generators)):
            acc = {c: acc[c] * powers[i][exps[i]][c] for c in acc}
        elements[exps] = acc
    return elements


def _assert_matches_reference(ug, generators):
    reference = _multiplied_out(generators, ug.p)
    assert list(ug.exponent_vectors()) == sorted(reference)
    for exps, comp in reference.items():
        assert element_blocks(ug, exps) == comp
        assert ug.traces(exps) == {c: block_trace(m)
                                   for c, m in comp.items()}
    # the keys are exact: equal exactly when the multiplied-out elements are
    for (e, a), (f, b) in product(reference.items(), repeat=2):
        assert (ug.key(e) == ug.key(f)) == (a == b)


@pytest.mark.parametrize("p,members", [
    *((3, set(m)) for m in combinations(range(1, 3), 1)),
    *((5, set(m)) for m in combinations(range(1, 5), 2)),
    (7, {1, 2, 4}),
    (7, {1, 2, 3}),
])
def test_psl2_exponent_vectors_match_products(p, members):
    _assert_matches_reference(build_psl2_units(p, members),
                              _psl2_generators(p, members))


def test_psl33_exponent_vectors_match_products():
    _assert_matches_reference(build_psl33_units(), _psl33_generators())


def test_keys_identify_generators_differing_only_in_the_trivial_block():
    # u' is u with exponent 1 on the 1x1 identity block: the 25 raw block
    # exponent tuples name only the 5 powers of u, and so must the keys
    ug = build_psl2_units(5, {1, 2})
    u, _v = ug.generator_exponents
    bad = _rebuilt(ug, generator_exponents=[u, {"eta": (1,) + u["eta"][1:]}])
    ref_u, _ref_v = _psl2_generators(5, {1, 2})
    _assert_matches_reference(bad, [ref_u, ref_u])


def _rebuilt(ug, bases=None, generator_exponents=None):
    """`ug` built again through the constructor, with other bases or
    generator exponents."""
    return UnitGroup(ug.table, ug.p, ug.support, ug.distinguished,
                     ug.generator_names, bases or ug.bases,
                     generator_exponents or ug.generator_exponents,
                     ug.pattern)


def test_verify_rejects_trivial_generator():
    ug = build_psl2_units(5, {1, 2})
    _u, v = ug.generator_exponents
    bad = _rebuilt(ug, generator_exponents=[{"eta": (0, 0, 0, 0)}, v])
    report = verify_unit_group(bad)
    assert "generator u does not have order 5 in eta" in report["problems"]
    assert not report["ok"]


def test_verify_rejects_generator_trivial_up_to_the_identity_block():
    # exponent 1 on the 1x1 identity block alone still gives the identity
    ug = build_psl2_units(5, {1, 2})
    _u, v = ug.generator_exponents
    bad = _rebuilt(ug, generator_exponents=[{"eta": (1, 0, 0, 0)}, v])
    report = verify_unit_group(bad)
    assert "generator u does not have order 5 in eta" in report["problems"]
    assert not report["ok"]


def test_verify_rejects_base_of_wrong_order():
    ug = build_psl2_units(5, {1, 2})
    blocks = ug.bases["eta"]
    # -I has order 2, so exponents of this block cannot be read mod 5
    minus_one = QMatrix([[-1, 0, 0, 0], [0, -1, 0, 0],
                         [0, 0, -1, 0], [0, 0, 0, -1]])
    bad = _rebuilt(ug, bases={"eta": blocks[:-1] + (minus_one,)})
    report = verify_unit_group(bad)
    assert "generator v does not have order 5 in eta" in report["problems"]
    assert not report["ok"]


# group -> (p, pattern), None for PSL(3,3)
TAMPERED = {"psl2-5": (5, {1, 2}), "psl2-7": (7, {1, 2, 4}), "psl33": (3, None)}


@pytest.mark.parametrize("group,k", [
    pytest.param(group, k, id=f"{group}-k{k}")
    for group, (p, _members) in TAMPERED.items() for k in range(p)])
def test_verify_rejects_every_tampered_power_table_entry(group, k):
    # entry k of A's table replaced by I + E_12, which does not commute
    # with A; the traces and keys were taken from the true table, so only
    # the check that the table is the cyclic group of A can see it, and
    # every generator uses A at a non-zero exponent in every component
    p, members = TAMPERED[group]
    ug = build_psl33_units() if members is None else build_psl2_units(p, members)
    A = companion_cyclotomic(p)
    shear = QMatrix([[int(i == j or (i, j) == (0, 1)) for j in range(p - 1)]
                     for i in range(p - 1)])
    assert shear * A != A * shear
    ug.powers[A][k] = shear
    report = verify_unit_group(ug)
    assert report["problems"] == [
        f"generator {g} does not have order {p} in {c}"
        for g in ug.generator_names for c in ug.bases]
    assert report["ok"] is False


def test_verify_rejects_generators_on_swapped_classes():
    # for {1, 4} the swapped pair still shows the requested trace pattern,
    # so only the generator-class check can catch it
    ug = build_psl2_units(5, {1, 4})
    u, v = ug.generator_exponents
    report = verify_unit_group(_rebuilt(ug, generator_exponents=[v, u]))
    assert report["trace_pattern"] == [1, 4]
    assert report["problems"] == ["generator u does not lie on class c",
                                  "generator v does not lie on class d"]
    assert report["ok"] is False


def test_verify_rejects_equal_generators():
    ug = build_psl2_units(5, {1, 2})
    _u, v = ug.generator_exponents
    report = verify_unit_group(_rebuilt(ug, generator_exponents=[v, v]))
    assert report["faithful"] is False
    assert report["problems"] == [
        "distinguished components do not separate elements",
        "generator u does not lie on class c",
        "trace pattern disagrees with requested pattern",
    ]
    assert report["ok"] is False


def test_verify_rejects_generators_differing_only_in_the_trivial_block():
    # u' is u with exponent 1 on the 1x1 identity block, so u and u' are the
    # same matrices although their raw block exponents differ: the 25 raw
    # tuples are distinct, and a check on raw exponents would pass
    ug = build_psl2_units(5, {1, 2})
    u, _v = ug.generator_exponents
    u_prime = {"eta": (1,) + u["eta"][1:]}
    bad = _rebuilt(ug, generator_exponents=[u, u_prime])
    raw = {tuple(bad.block_exponents(e)["eta"]) for e in bad.exponent_vectors()}
    assert len(raw) == 25
    report = verify_unit_group(bad)
    assert report["faithful"] is False
    assert report["problems"][0] == \
        "distinguished components do not separate elements"
    assert report["ok"] is False


def _forced_profile(ug, exps):
    """The element's profile as the support hypothesis forces it: the
    distinguished traces, and every other row from the pair (eps_a, eps_b)
    solving the distinguished rows (with augmentation one when there is a
    single distinguished row) by Cramer's rule."""
    xa, xb = ug.support
    traces = {ug.distinguished[c]: t for c, t in ug.traces(exps).items()}
    rows = [ug.table.char_by_name(name) for name in traces]
    eqs = [((r.values[xa], r.values[xb]), traces[r.name]) for r in rows]
    if len(eqs) == 1:
        eqs.append(((1, 1), 1))
    ((a, b), s), ((c, d), t) = eqs
    det = a * d - b * c
    ea, eb = Fraction(s * d - b * t, det), Fraction(a * t - s * c, det)
    return {
        ch.name: traces[ch.name] if ch.name in traces
        else ea * ch.values[xa] + eb * ch.values[xb]
        for ch in ug.table.chars
    }


@pytest.mark.parametrize("p,members", [
    *((3, set(m)) for m in combinations(range(1, 3), 1)),
    *((5, set(m)) for m in combinations(range(1, 5), 2)),
    (7, {1, 2, 4}),
    (7, {1, 2, 3}),
    (3, None),  # PSL(3,3)
])
def test_solve_element_matches_full_table_solve(p, members):
    ug = build_psl33_units() if members is None else build_psl2_units(p, members)
    for exps in ug.exponent_vectors():
        if not any(exps):
            continue
        forced = _forced_profile(ug, exps)
        assert solve_element(ug, ug.traces(exps)) == invert_profile(
            ug.table.chars, forced, ug.support)
        assert element_profile(ug, exps) == forced


def test_verify_rejects_traces_breaking_augmentation_one():
    ug = build_psl33_units()
    alpha, beta, gamma = ug.generator_exponents
    # phi trace -5 instead of -8: chi12 and augmentation one still give
    # (3, -2), which the chi16a row then contradicts
    bad_alpha = {**alpha, "phi": (0,) + alpha["phi"][1:]}
    report = verify_unit_group(
        _rebuilt(ug, generator_exponents=[bad_alpha, beta, gamma]))
    assert any(p.startswith("element (1, 0, 0): ") for p in report["problems"])
    assert report["ok"] is False


def test_verify_reports_a_doubly_faulty_presentation_in_order():
    # bad_alpha breaks augmentation one on chi16a, and the repeated beta
    # makes the representation unfaithful: the faithfulness problem comes
    # first, then every element without a solution, in exponent order
    ug = build_psl33_units()
    alpha, beta, _gamma = ug.generator_exponents
    bad_alpha = {**alpha, "phi": (0,) + alpha["phi"][1:]}
    report = verify_unit_group(
        _rebuilt(ug, generator_exponents=[bad_alpha, beta, beta]))
    contradicts = "row chi16a contradicts eps ="
    assert report["problems"] == [
        "distinguished components do not separate elements",
        f"element (0, 1, 2): {contradicts} (4, -3)",
        f"element (0, 2, 1): {contradicts} (4, -3)",
        f"element (1, 0, 0): {contradicts} (3, -2)",
        f"element (1, 0, 1): {contradicts} (0, 1)",
        f"element (1, 0, 2): {contradicts} (1, 0)",
        f"element (1, 1, 0): {contradicts} (0, 1)",
        f"element (1, 1, 1): {contradicts} (1, 0)",
        f"element (1, 1, 2): {contradicts} (3, -2)",
        f"element (1, 2, 0): {contradicts} (1, 0)",
        f"element (1, 2, 1): {contradicts} (3, -2)",
        f"element (1, 2, 2): {contradicts} (0, 1)",
        f"element (2, 0, 0): {contradicts} (3, -2)",
        f"element (2, 0, 1): {contradicts} (1, 0)",
        f"element (2, 0, 2): {contradicts} (0, 1)",
        f"element (2, 1, 0): {contradicts} (1, 0)",
        f"element (2, 1, 1): {contradicts} (0, 1)",
        f"element (2, 1, 2): {contradicts} (3, -2)",
        f"element (2, 2, 0): {contradicts} (0, 1)",
        f"element (2, 2, 1): {contradicts} (3, -2)",
        f"element (2, 2, 2): {contradicts} (1, 0)",
    ]
    assert report["counts"] == {"a": 0, "b": 6, "other": 0}
    assert report["ok"] is False
