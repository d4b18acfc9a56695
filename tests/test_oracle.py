import random
import re
import signal
from math import isqrt, lcm

import pytest

from grunits.chardata import psl33_slice
from grunits.finitefield import fq_make
from grunits.oracle import (
    PSL2,
    PSL3,
    cached_group,
    check_square_criterion,
    enumerate_group,
)
from reference import closure, conjugation_orbits, full_class_partition


def test_psl2_9_order_and_classes():
    g = cached_group("psl2", 9)
    assert g.order == 360
    classes = g.order_p_classes()
    assert sorted(size for _rep, size in classes) == [40, 40]


def test_psl2_25_order():
    assert cached_group("psl2", 25).order == 7800


def test_psl3_order_and_classes():
    g = cached_group("psl3", 3)
    assert g.order == 5616
    sizes = sorted(size for _rep, size in g.order_p_classes())
    assert sizes == [104, 624]
    # must match the shipped character data
    t = psl33_slice()
    assert sorted(c.class_size for c in t.classes if c.id != "1") == sizes


def test_full_partition_psl2_9():
    g = cached_group("psl2", 9)
    partition = full_class_partition(g)
    # the classes of A_6
    assert sorted(size for _rep, size in partition) == [1, 40, 40, 45, 72, 72, 90]


def test_exponent_psl2_9():
    assert cached_group("psl2", 9).exponent() == 60


GROUPS = [("psl2", 9), ("psl3", 3), ("psl2", 25)]


@pytest.mark.parametrize("kind,q", [("psl2", 9), ("psl2", 25), ("psl2", 49),
                                    ("psl3", 3)])
def test_listing_by_determinant_equals_closure(kind, q):
    group = PSL2(isqrt(q)) if kind == "psl2" else PSL3()
    listed = group.generate()
    assert len(listed) == group.expected_order
    assert all(x < y for x, y in zip(listed, listed[1:]))
    assert listed == closure(group)


@pytest.mark.parametrize("kind,q", GROUPS)
def test_orders_match_element_order(kind, q):
    g = cached_group(kind, q)
    assert g.orders() == [g.element_order(x) for x in g.elements]


@pytest.mark.parametrize("kind,q", GROUPS)
def test_class_lists_are_minimal_representatives_in_order(kind, q):
    # the partition is the reference's, by `mul` alone
    g = cached_group(kind, q)
    partition = full_class_partition(g)
    reps = [rep for rep, _size in partition]
    assert reps == sorted(reps)
    for rep, size in partition:
        orbit = g.conjugacy_class(rep)
        assert min(orbit) == rep and len(orbit) == size
    order = dict(zip(g.elements, g.orders()))
    assert g.order_p_classes() == [c for c in partition
                                   if order[c[0]] == g.p]


def test_invariants_walks_both_order_3_classes_of_psl3():
    # invariants walks the orbits of I + E_12 and I + E_12 + E_23 against
    # the table's a and b; they must be the two order-3 classes
    g = cached_group("psl3", 3)
    assert g.generators[0] == (12, 3, 1)
    a, b = g.conjugacy_class((12, 3, 1)), g.conjugacy_class((12, 4, 1))
    assert (len(a), len(b)) == (104, 624)
    assert {(min(a), len(a)), (min(b), len(b))} == set(g.order_p_classes())


@pytest.mark.parametrize("kind,q", GROUPS)
def test_conjugacy_class_is_orbit_under_generators_and_inverses(kind, q):
    g = cached_group(kind, q)
    # the reference finds each generator's inverse by search, independent
    # of the power walk the oracle uses, and conjugates with `mul` alone
    order_p = [x for x, k in zip(g.elements, g.orders()) if k == g.p]
    orbits = conjugation_orbits(g, order_p)
    assert g.order_p_classes() == [(rep, len(orbit)) for rep, orbit in orbits]
    for rep, orbit in orbits:
        assert g.conjugacy_class(rep) == orbit


@pytest.mark.parametrize("kind,q", GROUPS)
def test_each_conjugation_is_mul_twice(kind, q, monkeypatch):
    # with one conjugator pair, the orbit of y is walked as y, c(y),
    # c(c(y)), ... until it comes back to y, c(y) = g^-1 y g: so each
    # inlined conjugation is pinned to mul(mul(g^-1, y), g) on every listed
    # element, and each pair to g and its inverse found by search
    g = cached_group(kind, q)
    index = {e: i for i, e in enumerate(g.elements)}
    pairs = g._conjugators
    assert pairs == [(next(x for x in g.elements
                           if g.mul(h, x) == g.identity), h)
                     for h in g.generators]
    for ginv, h in pairs:
        monkeypatch.setattr(g, "_conjugators", [(ginv, h)])
        for i, y in enumerate(g.elements):
            want, z = [i], g.mul(g.mul(ginv, y), h)
            while z != y:
                want.append(index[z])
                z = g.mul(g.mul(ginv, z), h)
            assert g.orbit_positions(i) == want


def test_conjugacy_class_refuses_an_element_outside_the_listing():
    g = cached_group("psl2", 9)
    y = tuple(g._neg[v] for v in g.generators[0])
    with pytest.raises(ValueError, match=re.escape(
            f"PSL(2,9): {y} is not listed")):
        g.conjugacy_class(y)


def test_y_w_would_not_generate_psl2_9():
    # the second generator is y(1 + w): with y(w), code 1, in its place the
    # closure is A_5, of order 60, not the 360 elements of PSL(2,9)
    g = PSL2(3)
    one = g.identity[0]
    g.generators = [g.generators[0], (one, 0, 1, one)]
    assert len(closure(g)) == 60


@pytest.mark.parametrize("p", [3, 5, 7])
def test_psl2_product_and_canon_match_field_arithmetic(p):
    # the code tables against Fq arithmetic, through code(a0 + a1*w) =
    # a0*p + a1; the canonical choice is the smaller of x and -x as tuples
    # of (a0, a1) pairs, and x times the identity is that choice for any
    # 4-tuple x
    f = fq_make(p)
    group = PSL2(p)

    def decode(x):
        return tuple(divmod(c, p) for c in x)

    def encode(x):
        return tuple(a0 * p + a1 for a0, a1 in x)

    def field_mul(x, y):
        a, b, c, d = x
        e, g, h, i = y
        return (
            f.add(f.mul(a, e), f.mul(b, h)),
            f.add(f.mul(a, g), f.mul(b, i)),
            f.add(f.mul(c, e), f.mul(d, h)),
            f.add(f.mul(c, g), f.mul(d, i)),
        )

    def field_canon(x):
        return min(x, tuple(f.neg(e) for e in x))

    if p == 3:
        elements = cached_group("psl2", 9).elements
        pairs = [(x, y) for x in elements for y in elements]
    else:
        rng = random.Random(p)
        pairs = [tuple(tuple(rng.randrange(p * p) for _ in range(4))
                       for _ in range(2)) for _ in range(5000)]
    one = group.identity
    for x, y in pairs:
        xy = field_mul(decode(x), decode(y))
        want = encode(field_canon(xy))
        assert group.mul(x, y) == want
        assert group.mul(encode(xy), one) == want
    assert all(group.mul(x, one) == encode(field_canon(decode(x)))
               for x, _y in pairs)


@pytest.mark.parametrize("q", [9, 25, 49])
def test_psl2_listing_decodes_to_increasing_flat_tuples(q):
    # code order is pair order: decoded to flat tuples of matrix entries
    # (a0, a1, b0, b1, c0, c1, d0, d1), the listing is still increasing,
    # and each entry is the smaller of x and -x (first nonzero v < p - v)
    p = isqrt(q)
    flat = [tuple(v for c in x for v in divmod(c, p))
            for x in cached_group("psl2", q).elements]
    assert all(x < y for x, y in zip(flat, flat[1:]))
    assert all(2 * next(v for v in x if v) < p for x in flat)


def _flat9(x):
    # a triple of row codes 9a + 3b + c as the row-major 9-tuple of entries
    return tuple(v for r in x for v in (r // 9, r // 3 % 3, r % 3))


def test_psl3_product_matches_index_loop():
    mul = PSL3().mul

    def loop_mul(x, y):
        out = [0] * 9
        for i in range(3):
            for j in range(3):
                out[3 * i + j] = sum(x[3 * i + k] * y[3 * k + j]
                                     for k in range(3)) % 3
        return tuple(out)

    elements = cached_group("psl3", 3).elements
    rng = random.Random(3)
    for _ in range(20000):
        x, y = rng.choice(elements), rng.choice(elements)
        assert _flat9(mul(x, y)) == loop_mul(_flat9(x), _flat9(y))


def test_psl3_listing_decodes_to_increasing_flat_tuples_of_determinant_one():
    def det3(m):
        a, b, c, d, e, f, g, h, i = m
        return (a * (e * i - f * h) - b * (d * i - f * g)
                + c * (d * h - e * g)) % 3

    g = cached_group("psl3", 3)
    assert _flat9(g.identity) == (1, 0, 0, 0, 1, 0, 0, 0, 1)
    flat = [_flat9(x) for x in g.elements]
    assert len(flat) == 5616
    assert all(x < y for x, y in zip(flat, flat[1:]))
    assert all(det3(x) == 1 for x in flat)


def test_orders_take_one_walk_per_cyclic_subgroup(monkeypatch):
    # `element_order` on every element costs 66,821 products in PSL(2,25)
    # and 38,923 in PSL(3,3); one walk per cyclic subgroup takes 8,805 and
    # 7,649 steps, one product each, and the walks of the two generators,
    # which find their inverses for the orbit walk, 8 and 4 more
    for g, steps in [(PSL2(5).enumerate(), 8_813),
                     (PSL3().enumerate(), 7_653)]:
        taken = 0
        walk = type(g).power_positions

        def counted(self, x):
            nonlocal taken
            positions = walk(self, x)
            taken += len(positions) - 1
            return positions

        with monkeypatch.context() as m:
            m.setattr(type(g), "power_positions", counted)
            g.order_p_classes()
            g.exponent()
        assert taken == steps, g.name


@pytest.mark.parametrize("kind,q", GROUPS)
def test_power_walk_is_repeated_mul(kind, q):
    # the walk inlines `mul`, and is pinned to it on every element; it reads
    # positions off the listing's layout, so this look-up, built from the
    # listing itself, also pins the layout to every listed element
    g = cached_group(kind, q)
    index = {e: i for i, e in enumerate(g.elements)}
    for x in g.elements:
        acc, want = x, [index[x]]
        while acc != g.identity:
            acc = g.mul(acc, x)
            want.append(index[acc])
        assert g.power_positions(x) == want


@pytest.fixture
def alarm():
    # a walk without its bound never returns; the alarm turns that into a
    # failure after five seconds
    def expire(signum, frame):
        raise TimeoutError("the walk did not stop within 5 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _psl2_9_with_canon_flipped():
    # with the sign rule flipped where `mul` reads it, a power
    # lands on -1, never on the canonical identity, and leaves the listing
    g = PSL2(3).enumerate()
    g._leads = [not lead for lead in g._leads]
    assert g.mul(g.identity, g.identity) != g.identity
    return g


@pytest.mark.parametrize("walk", ["element_order", "conjugacy_class"])
def test_a_faulty_canon_fails_the_walk_from_a_generator(alarm, walk):
    g = _psl2_9_with_canon_flipped()
    x = g.generators[0]
    with pytest.raises(AssertionError,
                       match=re.escape(f"PSL(2,9): the powers of {x} miss")):
        getattr(g, walk)(x)


def test_a_faulty_canon_fails_the_order_walks(alarm):
    g = _psl2_9_with_canon_flipped()
    first = g.elements[0]
    with pytest.raises(AssertionError,
                       match=re.escape(f"PSL(2,9): the powers of {first} miss")):
        g.orders()


def test_a_wrong_dependent_entry_fails_the_walk(alarm):
    # 0 + 1 -> 0 where x(1)'s powers read it: x(1)^2 keeps the listed first
    # row (1, 2) and c = 0, but gets d = 0 where the listed element has 1
    g = PSL2(3).enumerate()
    x, one = g.generators[0], g.identity[0]
    g._sum[0][one] = 0
    a, b, c, d = g.mul(x, x)
    listed = g.elements[g._start[a * 9 + b] + c]
    assert listed[:3] == (a, b, c) and listed[3] != d
    with pytest.raises(AssertionError,
                       match=re.escape(f"PSL(2,9): the powers of {x} miss")):
        g.power_positions(x)


@pytest.mark.parametrize("kind,q", GROUPS[:2])
def test_the_walk_refuses_every_element_outside_the_listing(alarm, kind, q):
    # -x leads with a row that leads no listed element; x with its first row
    # doubled has determinant 2.  Each power walk must stop at its first
    # power, though `mul` brings some of them back to the identity
    g = cached_group(kind, q)
    if kind == "psl2":
        outside = [tuple(g._neg[v] for v in x) for x in g.elements]
    else:
        code = {row: r for r, row in enumerate(g._rows)}
        outside = [(code[tuple(2 * v % 3 for v in g._rows[x1])], x2, x3)
                   for x1, x2, x3 in g.elements]
    assert not set(outside) & set(g.elements)
    for y in outside:
        with pytest.raises(AssertionError, match=re.escape(
                f"{g.name}: the powers of {y} miss")):
            g.power_positions(y)


@pytest.mark.parametrize("kind,edit", [
    # 0 + 0 sums to 1: the first conjugate of the first unipotent keeps a
    # listed first row and its offset, but not the listed dependent entry
    ("psl2", lambda g: g._sum[0].__setitem__(0, g.identity[0])),
    # the sign rule flipped: the first conjugate is -z, whose first row
    # leads no listed element
    ("psl2", lambda g: setattr(g, "_leads", [not v for v in g._leads])),
    # the field sums (0, 0, 1) reduce to the zero row: determinant 0
    ("psl3", lambda g: g._mod3.__setitem__(1, 0)),
], ids=["psl2-9-entry", "psl2-9-sign", "psl3-3"])
def test_a_conjugate_outside_the_listing_fails_the_class_walk(alarm, kind,
                                                               edit):
    # the orders and the conjugators come from the true tables; a faulty
    # conjugation then leaves the listing from the first order-p element,
    # and the walk must name it, not grow the orbit with what it finds
    g = PSL2(3).enumerate() if kind == "psl2" else PSL3().enumerate()
    first = next(x for x, k in zip(g.elements, g.orders()) if k == g.p)
    assert g._conjugators
    edit(g)
    with pytest.raises(AssertionError, match=re.escape(
            f"{g.name}: a conjugate of {first} is unlisted")):
        g.order_p_classes()


def test_a_faulty_mod3_table_fails_the_order_walks(alarm):
    # one wrong entry in the PSL(3,3) reduction table: the field sums
    # (1, 0, 0) now reduce to the row (1, 0, 1)
    g = PSL3().enumerate()
    assert g._mod3[169] == 9
    g._mod3[169] = 10
    with pytest.raises(AssertionError, match=re.escape(
            "PSL(3,3): the powers of (")) as caught:
        g.orders()
    assert str(caught.value).endswith("miss the identity within the group "
                                      "order 5616")


def test_psl2_49_ground_truth():
    g = enumerate_group("psl2", 49)
    assert g.order == 49 * (49 * 49 - 1) // 2 == 58_800
    assert g.exponent() == lcm(7, 24, 25) == 4200
    # the unipotents split into two classes of (q^2 - 1)/2
    assert sorted(size for _rep, size in g.order_p_classes()) == [1200, 1200]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_square_criterion(p):
    assert check_square_criterion(p)


@pytest.mark.parametrize("p,message", [
    (11, "PSL(2,121) exceeds the enumeration cap"),
    (9, "p must be an odd prime"),
    (2, "p must be an odd prime"),
])
def test_square_criterion_rejects_what_the_oracle_cannot_enumerate(p,
                                                                   message):
    with pytest.raises(ValueError, match=re.escape(message)):
        check_square_criterion(p)


def test_square_criterion_fails_when_every_unipotent_is_in_one_class(
        fresh_fields, monkeypatch):
    # lam -> u(lam^2): every parameter is a square, so every unipotent lands
    # in u(1)'s class, non-square lam included
    f, unipotent = fq_make(3), PSL2.unipotent
    monkeypatch.setattr(PSL2, "unipotent",
                        lambda self, lam: unipotent(self, f.mul(lam, lam)))
    assert not check_square_criterion(3)


def test_square_criterion_checks_its_square_table_first(fresh_fields):
    field = fq_make(3)
    field.squares = field.squares - {(2, 0)}
    with pytest.raises(AssertionError, match=re.escape(
            "square table is not the subgroup of squares of F_9^*")):
        check_square_criterion(3)


def test_too_large_guard():
    with pytest.raises(ValueError, match="exceeds the enumeration cap"):
        PSL2(11)
