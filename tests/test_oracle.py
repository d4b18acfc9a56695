import random
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
from reference import closure, full_class_partition


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


@pytest.mark.parametrize("kind,q", GROUPS[:2])
def test_class_lists_are_minimal_representatives_in_order(kind, q):
    g = cached_group(kind, q)
    partition = full_class_partition(g)
    reps = [rep for rep, _size in partition]
    assert reps == sorted(reps)
    for rep, size in partition:
        orbit = g.conjugacy_class(rep)
        assert min(orbit) == rep and len(orbit) == size
    order = dict(zip(g.elements, g.orders()))
    assert g.order_p_classes() == [c for c in partition if order[c[0]] == 3]


@pytest.mark.parametrize("kind,q", GROUPS)
def test_conjugacy_class_is_orbit_under_generators_and_inverses(kind, q):
    g = cached_group(kind, q)
    # inverses by search, independent of the power walk conjugacy_class uses
    inv = {h: next(x for x in g.elements if g.mul(h, x) == g.identity)
           for h in g.generators}
    inv.update({hinv: h for h, hinv in list(inv.items())})
    for rep, size in g.order_p_classes():
        orbit, frontier = {rep}, [rep]
        while frontier:
            y = frontier.pop()
            for h, hinv in inv.items():
                z = g.mul(g.mul(hinv, y), h)
                if z not in orbit:
                    orbit.add(z)
                    frontier.append(z)
        assert g.conjugacy_class(rep) == orbit
        assert len(orbit) == size


@pytest.mark.parametrize("p", [3, 5, 7])
def test_psl2_product_and_canon_match_field_arithmetic(p):
    # the code tables against Fq arithmetic, through code(a0 + a1*w) =
    # a0*p + a1; the canonical choice is the smaller of x and -x as tuples
    # of (a0, a1) pairs
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
    for x, y in pairs:
        xy = field_mul(decode(x), decode(y))
        want = encode(field_canon(xy))
        assert group.mul(x, y) == want
        assert group.canon(encode(xy)) == want
    assert all(group.canon(x) == encode(field_canon(decode(x)))
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
        assert mul(x, y) == loop_mul(x, y)


def test_orders_take_one_walk_per_cyclic_subgroup(monkeypatch):
    g = PSL2(5).enumerate()
    products = 0
    mul = type(g).mul

    def counted(self, x, y):
        nonlocal products
        products += 1
        return mul(self, x, y)

    monkeypatch.setattr(type(g), "mul", counted)
    g.order_p_classes()
    g.exponent()
    # one walk per element costs 143,626 products here
    assert products <= 15_000


def test_psl2_49_ground_truth():
    g = enumerate_group("psl2", 49)
    assert g.order == 49 * (49 * 49 - 1) // 2 == 58_800
    assert g.exponent() == lcm(7, 24, 25) == 4200
    # the unipotents split into two classes of (q^2 - 1)/2
    assert sorted(size for _rep, size in g.order_p_classes()) == [1200, 1200]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_square_criterion(p):
    assert check_square_criterion(p)


def test_too_large_guard():
    with pytest.raises(ValueError, match="exceeds the enumeration cap"):
        PSL2(11)
