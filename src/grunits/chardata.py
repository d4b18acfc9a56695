"""Character-table slices restricted to the identity and the order-p classes.

For PSL(2,p^2) the slice is generated from the classical class structure;
for PSL(3,3) it is loaded from a shipped data file.  Neither source is
trusted: both are validated by exact column orthogonality, the PSL(3,3)
classes a and b must have the ATLAS sizes of 3A and 3B, and the tests
check every class size against brute-force group enumeration.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import NamedTuple

from .finitefield import check_odd_prime

# psl2_slice holds (p^2+5)/2 rows, so its memory grows as p^2; p is capped
# at the largest prime the HeLP scan has been run at
MAX_PRIME = 101

# PSL(3,3) class id -> (element order, class size): ATLAS 3A, the
# transvections, and 3B, the regular unipotents
PSL33_ORDER3 = {"a": (3, 104), "b": (3, 624)}


def format_rational(x: Fraction | int) -> str:
    """The exact value as "a/b", or as "a" for an integer."""
    return str(x) if type(x) is int else str(Fraction(x))


class ValidationError(Exception):
    pass


class ClassInfo(NamedTuple):
    id: str
    element_order: int
    class_size: int
    centralizer_order: int


class CharSlice(NamedTuple):
    name: str
    degree: int
    values: dict[str, int]  # class id -> value; rational classes, so integers


class TableSlice(NamedTuple):
    group: str
    group_order: int
    classes: list[ClassInfo]
    chars: list[CharSlice]
    notes: tuple[str, ...] = ()

    def char_by_name(self, name: str) -> CharSlice:
        for ch in self.chars:
            if ch.name == name:
                return ch
        raise ValidationError(f"{self.group} table has no row {name}")

    def to_json(self) -> dict:
        return {
            "group": self.group,
            "order": self.group_order,
            "classes": [c._asdict() for c in self.classes],
            "chars": [
                {
                    "name": ch.name,
                    "degree": ch.degree,
                    "values": {
                        cid: format_rational(v) for cid, v in ch.values.items()
                    },
                }
                for ch in self.chars
            ],
            "notes": list(self.notes),
        }


def _mk_class(cid: str, order: int, size: int, group_order: int) -> ClassInfo:
    if size < 1:
        raise ValidationError(f"class {cid}: size {size} is not positive")
    if group_order % size != 0:
        raise ValidationError(f"class size {size} does not divide |G| = {group_order}")
    return ClassInfo(cid, order, size, group_order // size)


def psl2_slice(p: int) -> TableSlice:
    """Slice of the PSL(2,p^2) table on the identity and the two order-p classes.

    The two size-((q^2-1)/2) unipotent classes c and d are separated only by
    the pair of degree-(q+1)/2 characters eta and eta_t, which swap their
    values (p+1)/2 and (1-p)/2 on c and d.  All remaining irreducible rows
    take equal values on c and d.
    """
    check_odd_prime(p, MAX_PRIME)
    q = p * p
    order = q * (q * q - 1) // 2
    usize = (q * q - 1) // 2
    classes = [
        _mk_class("1", 1, 1, order),
        _mk_class("c", p, usize, order),
        _mk_class("d", p, usize, order),
    ]

    def row(name, deg, vc, vd):
        return CharSlice(name, deg, {"1": deg, "c": vc, "d": vd})

    chars = [row("triv", 1, 1, 1), row("steinberg", q, 0, 0)]
    for i in range((q - 5) // 4):
        chars.append(row(f"ps{i + 1}", q + 1, 1, 1))
    for i in range((q - 1) // 4):
        chars.append(row(f"ds{i + 1}", q - 1, -1, -1))
    half = (q + 1) // 2
    chars.append(row("eta", half, (p + 1) // 2, (1 - p) // 2))  # p is odd
    chars.append(row("eta_t", half, (1 - p) // 2, (p + 1) // 2))

    notes = (
        "degree of eta/eta_t fixed to (p^2+1)/2: it is forced by exact column "
        "orthogonality and by the block dimension count 1 + (p-1)(p+1)/2; the "
        "value (p^2-1)/2 sometimes quoted for these rows fails both checks",
    )
    return TableSlice(f"PSL(2,{q})", order, classes, chars, notes)


def validate_orthogonality(t: TableSlice) -> dict:
    """Exact column orthogonality on every pair of included columns.

    sum_chi chi(x) * conj(chi(y)) equals the centralizer order of x when
    x = y and 0 otherwise.  All slice values are rational, so conjugation
    is the identity.  Failures are report entries, not exceptions.
    """
    checks = []
    for cx in t.classes:
        for cy in t.classes:
            total = sum(
                ch.values[cx.id] * ch.values[cy.id] for ch in t.chars
            )
            expected = cx.centralizer_order if cx.id == cy.id else 0
            checks.append(
                {
                    "columns": [cx.id, cy.id],
                    "expected": format_rational(expected),
                    "actual": format_rational(total),
                    "ok": total == expected,
                }
            )
    return {"group": t.group, "ok": all(c["ok"] for c in checks), "checks": checks}


def _validate(t: TableSlice) -> TableSlice:
    ids = [c.id for c in t.classes]
    if "1" not in ids:
        raise ValidationError(f"{t.group} table has no identity class 1")
    # orthogonality compares columns by id, so a repeated id would pass it,
    # and a repeated row name would make the row look-ups ambiguous
    for kind, keys in (("class id", ids), ("row name", [ch.name for ch in t.chars])):
        if len(set(keys)) != len(keys):
            raise ValidationError(f"{t.group} table repeats a {kind}: {keys}")
    for c in t.classes:
        # only the identity has order 1, and an element's order divides the
        # order of its centralizer, which contains it
        if (c.element_order == 1) != (c.id == "1") or c.element_order < 1 \
                or c.centralizer_order % c.element_order:
            raise ValidationError(f"class {c.id}: element order {c.element_order} "
                                  f"is impossible with |C(g)| = {c.centralizer_order}")
    for ch in t.chars:
        if ch.degree < 1 or ch.values["1"] != ch.degree:
            raise ValidationError(f"row {ch.name}: degree is not chi(1) > 0")
    report = validate_orthogonality(t)
    if not report["ok"]:
        bad = [c for c in report["checks"] if not c["ok"]]
        raise ValidationError(f"orthogonality fails: {bad}")
    return t


def _integer(token: str) -> int:
    digits = token[1:] if token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValidationError(f"{token!r} is not a decimal integer")
    return int(token)


def load_table(path) -> TableSlice:
    """Parse a line-oriented table slice file in one strict pass and
    validate it exactly.

    Format: one ``group <name> order <N>`` line, then ``class <id>
    <element_order> <class_size>`` lines, then ``char <name> <degree>
    <value per class>`` lines with the values in class order.  Every
    number is a decimal integer; blank lines and ``#`` comments are
    skipped.  Anything else is a `ValidationError` naming the line.
    """
    group, order = None, None
    classes: list[ClassInfo] = []
    chars: list[CharSlice] = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                kind, *rest = raw.decode("utf-8").split() or ["#"]
                if kind.startswith("#"):
                    continue
                if (kind == "group" and group is None and len(rest) == 3
                        and rest[1] == "order"):
                    group, order = rest[0], _integer(rest[2])
                elif kind == "class" and len(rest) == 3 and group and not chars:
                    classes.append(_mk_class(rest[0], *map(_integer, rest[1:]), order))
                elif kind == "char" and classes and len(rest) == 2 + len(classes):
                    deg, *values = map(_integer, rest[1:])
                    chars.append(CharSlice(rest[0], deg, {
                        c.id: v for c, v in zip(classes, values)}))
                else:
                    raise ValidationError(
                        f"unexpected {kind} line with {len(rest)} fields: expected "
                        f"one `group NAME order N`, then `class ID ORDER SIZE` "
                        f"lines, then `char NAME DEGREE` plus one value per class")
            except (ValueError, ValidationError) as exc:  # ValueError: not UTF-8,
                # or more digits than `int` converts
                raise ValidationError(f"line {lineno}: {exc}") from None
    if group is None:
        raise ValidationError("missing group header")
    return _validate(TableSlice(group, order, classes, chars))


def data_dir() -> str:
    env = os.environ.get("GRS_DATA_DIR")
    if env:
        return env
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def psl33_slice() -> TableSlice:
    """The shipped PSL(3,3) slice on classes {1, a, b}, with a and b
    checked against `PSL33_ORDER3`, so relabelled columns fail to load."""
    t = load_table(os.path.join(data_dir(), "psl33.tbl"))
    found = {c.id: (c.element_order, c.class_size) for c in t.classes}
    for cid, (order, size) in PSL33_ORDER3.items():
        if found.get(cid) != (order, size):
            raise ValidationError(f"{t.group} table lacks class {cid} of "
                                  f"order {order} and size {size}")
    return t


def mixed_value_decomposition(t: TableSlice, x: str, y: str,
                              base1: str, base2: str) -> bool:
    """Whether each row's (x,y)-imbalance goes through the two designated rows.

    Every row theta must satisfy theta = n*base + rho with base one of the
    two designated rows, n a non-negative integer and rho equal on x and y
    with non-negative degree; the answer is False at the first row that
    does not.  With delta and d the (x,y)-imbalances of theta and base, that
    is d | delta, delta/d >= 0 and (delta/d)*deg(base) <= deg(theta), base
    being base1 when its d has the sign of delta, else base2.  This is
    the structural fact that lets unit constructions pin only the two
    distinguished components.
    """
    def imbalance(ch: CharSlice) -> int:
        return ch.values[x] - ch.values[y]

    b1, b2 = t.char_by_name(base1), t.char_by_name(base2)
    for ch in t.chars:
        delta = imbalance(ch)
        if delta == 0:
            continue
        base = b1 if imbalance(b1) * delta > 0 else b2
        d = imbalance(base)
        if d == 0 or delta % d or delta // d < 0 \
                or delta // d * base.degree > ch.degree:
            return False
    return True
