"""Explicit elementary-abelian unit groups in distinguished components.

The units are presented as exact block-diagonal matrices in the one or two
Wedderburn components whose characters separate the two order-p classes;
everywhere else their character values are forced by the support
hypothesis (partial augmentations vanish off the order-p classes), so no
other component needs to be materialized.

Every block of every generator is a power of one base matrix for that
block: the companion matrix A of Phi_p (E = A^0, and B = A^2 for PSL(3,3))
or I_1 for the trivial block.  A group is therefore stored as exponent
vectors: one exact power table [M^0, ..., M^(p-1)] per distinct base M,
and for each generator the exponent of every block.  Elements are never
multiplied out, and nothing is kept per element: an element's block
exponents are computed from its exponent vector on each call; its identity
is its key, the first index of each block's power table holding the same
matrix, and its traces are sums of the tables' traces, `int`s because the
tables hold integer matrices (`Fraction` only for a table that is not
integral).  Only the power tables and their check use real matrix
products: verification multiplies every entry of each table by its base
once, proving the table the cyclic group of its base (every entry the
true power, M^p = I), so generators whose blocks are powers of one base
commute without products of their own.  Verification proves the
premises that make the exponent arithmetic exact (cyclic tables, generators
non-trivial, the representation faithful), deciding non-triviality and
faithfulness on keys.  Then, in one pass over the elements, it recovers
every element's partial augmentations (eps_x, eps_y) on the two order-p
classes x, y in closed form (`invert_profile`): augmentation one and the
first distinguished row separating x and y give the pair by one exact
division, as `int`s when eps_x is integral and as `Fraction`s when it is
not, and every distinguished row is checked against it.  Integrality, the
element's class, class counts and the Marciniak-Ritter-Sehgal-Weiss sign
test (rationally conjugate to a group element iff both are non-negative)
are read off the pair.  The distinguished rows are looked up, and checked
to separate x and y, once per group, so a table from GRS_DATA_DIR failing
either is a `ValidationError`.  For PSL(2,p^2) verification also reads
the mixed-class pattern off the same solved classes; the Valenti search
looks that pattern up in the one table of `patterns.realizers`, whose
entry is the first non-square mu of F_(p^2) with a Sylow generator pair
(1, mu) realizing it, read only after the square table it scans is
checked to be exactly the squares.  The other character values carry no
information of their own: `element_profile` synthesizes them from the
solved augmentations, as the reference that tests compare against.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .chardata import (CharSlice, TableSlice, ValidationError,
                       format_rational, psl2_slice, psl33_slice)
from .finitefield import check_odd_prime, fq_make
from .matrices import QMatrix, companion_cyclotomic
from .patterns import realizers


class Inconsistent(Exception):
    """The traces admit no exact augmentation solution."""


def invert_profile(rows: list[CharSlice], traces: dict[str, int | Fraction],
                   support: tuple[str, str]
                   ) -> tuple[int | Fraction, int | Fraction]:
    """(eps_x, eps_y) on the support classes x, y of a unit u whose values
    on `rows` are `traces`.  Augmentation one and the first row chi with
    chi(x) != chi(y) give eps_x = (chi(u) - chi(y)) / (chi(x) - chi(y)),
    by one exact division: an `int` when it is integral, else a `Fraction`.
    Every row must then hold exactly.  `UnitGroup` checks that some row
    separates x and y."""
    x, y = support
    sep = next(ch for ch in rows if ch.values[x] != ch.values[y])
    num = traces[sep.name] - sep.values[y]
    den = sep.values[x] - sep.values[y]
    ex, rem = divmod(num, den)
    if rem:
        ex = Fraction(num, den)
    ey = 1 - ex
    for ch in rows:
        if ex * ch.values[x] + ey * ch.values[y] != traces[ch.name]:
            raise Inconsistent(f"row {ch.name} contradicts eps = ({ex}, {ey})")
    return ex, ey


MAX_PRIME = 13


class UnitGroup:
    """An elementary-abelian p-group of block-diagonal units.

    `bases` gives, per component, the base matrix of each block, and
    `generator_exponents` gives, per generator and component, the exponent
    of each block's base.  `rank` is the number of generators r; the
    group has order p^r once `verify_unit_group` proves it faithful.
    Element (e_1, ..., e_r) has block exponents sum_i e_i * k_ij mod p,
    computed on each call and not kept, so its blocks are entries of the
    power tables; `key` names it exactly and `traces` sums the tables'
    traces (`int`s, unless a table is not integral), both read off those
    exponents.  The power tables, their traces and first indices are the
    only state, one of each per distinct base.  The tables are built by
    real `QMatrix` products; that each holds the powers of its base and the
    exponents may be read mod p (M^p = I), so the generators commute, and
    that they are non-trivial and act faithfully is what
    `verify_unit_group` proves, so an inconsistent presentation makes the
    verification fail rather than the elements silently wrong.
    """

    def __init__(self, table: TableSlice, p: int, support: tuple[str, str],
                 distinguished: dict[str, str], generator_names: list[str],
                 bases: dict[str, tuple[QMatrix, ...]],
                 generator_exponents: list[dict[str, tuple[int, ...]]],
                 pattern: frozenset[int] | None = None) -> None:
        self.table, self.p, self.support = table, p, support
        # component name -> character row name
        self.distinguished, self.generator_names = distinguished, generator_names
        self.bases, self.generator_exponents = bases, generator_exponents
        self.pattern = pattern
        self.rank = len(generator_exponents)
        shape = {c: len(blocks) for c, blocks in self.bases.items()}
        for gen in self.generator_exponents:
            if {c: len(ks) for c, ks in gen.items()} != shape:
                raise ValueError("generator exponents do not match the blocks")
        # per component, each block's exponents (k_1j, ..., k_rj)
        self._columns = {c: list(zip(*(gen[c] for gen in generator_exponents)))
                         for c in self.bases}
        # per distinct base, its power table, the trace of each power, and
        # the first index of the table holding the same matrix, by exact
        # `QMatrix` equality
        self.powers: dict[QMatrix, list[QMatrix]] = {}
        self.power_traces, self.first = {}, {}
        for base in dict.fromkeys(b for bs in self.bases.values() for b in bs):
            tab = [QMatrix.identity(base.dim)]
            for _ in range(self.p - 1):
                tab.append(tab[-1] * base)
            ts = [m.trace() for m in tab]
            # integer matrices have integer traces, whose sums stay in int
            integral = all(t.denominator == 1 for t in ts)
            self.powers[base] = tab
            self.power_traces[base] = [t.numerator for t in ts] if integral else ts
            self.first[base] = [tab.index(m) for m in tab]
        # the support hypothesis forces every other row, so only these
        # carry information about an element's partial augmentations
        self.solve_rows = [self.table.char_by_name(name)
                           for name in self.distinguished.values()]
        x, y = self.support
        if all(ch.values[x] == ch.values[y] for ch in self.solve_rows):
            names = ", ".join(self.distinguished.values())
            raise ValidationError(f"{self.table.group}: rows {names} do not "
                                  f"separate classes {x} and {y}")

    def block_exponents(self, exps: tuple[int, ...]) -> dict[str, tuple[int, ...]]:
        """Per component, the exponent of each block's base, computed
        afresh on each call: sum_i e_i * k_ij mod p."""
        return {c: tuple(sum(e * k for e, k in zip(exps, col)) % self.p
                         for col in columns)
                for c, columns in self._columns.items()}

    def key(self, exps: tuple[int, ...]) -> dict[str, tuple[int, ...]]:
        """Per component, the first power-table index of each block: two
        elements are equal exactly when their keys are."""
        return {
            c: tuple(self.first[b][k] for b, k in zip(self.bases[c], ks))
            for c, ks in self.block_exponents(exps).items()
        }

    def traces(self, exps: tuple[int, ...]) -> dict[str, int | Fraction]:
        """Per-component traces: sums of the power tables' traces."""
        return {
            c: sum(self.power_traces[b][k] for b, k in zip(self.bases[c], ks))
            for c, ks in self.block_exponents(exps).items()
        }

    def exponent_vectors(self):
        """Every element's exponent vector, in sorted order."""
        return itertools.product(range(self.p), repeat=self.rank)


def build_psl2_units(p: int, pattern) -> UnitGroup:
    """The pair u, v in the eta-component of PSL(2,p^2) realizing `pattern`.

    u = (1, E, A^(-i_1), ..., A^(-i_((p-1)/2))) and v = (1, A, ..., A) with
    A the order-p companion matrix appearing (p+1)/2 times; u*v^j then has
    trace (p+1)/2 exactly when j lies in the pattern.
    """
    check_odd_prime(p, MAX_PRIME)
    table = psl2_slice(p)
    members = frozenset(int(i) for i in pattern)
    if not members <= set(range(1, p)) or len(members) != (p - 1) // 2:
        raise ValueError(
            f"pattern must be a subset of 1..{p - 1} of size {(p - 1) // 2}"
        )
    half = (p + 1) // 2
    A = companion_cyclotomic(p)
    bases = {"eta": (QMatrix.identity(1),) + (A,) * half}
    u = (0, 0) + tuple((-i) % p for i in sorted(members))
    v = (0,) + (1,) * half
    return UnitGroup(
        table, p, ("c", "d"), {"eta": "eta"}, ["u", "v"], bases,
        [{"eta": u}, {"eta": v}], members,
    )


def build_psl33_units() -> UnitGroup:
    """The rank-3 group generated by alpha, beta, gamma in the two
    distinguished components (degree 12 and degree 16) of PSL(3,3)."""
    table = psl33_slice()
    A = companion_cyclotomic(3)
    power = {"E": 0, "A": 1, "B": 2}

    def blocks(letters: str) -> tuple[int, ...]:
        return tuple(power[s] for s in letters)

    alpha = {"chi": blocks("EEEEEA"), "phi": blocks("AAAAAAAA")}
    beta = {"chi": blocks("EEAAAA"), "phi": blocks("EEEAABBB")}
    gamma = {"chi": blocks("EAAEBA"), "phi": blocks("EABEBEAB")}
    return UnitGroup(
        table, 3, ("a", "b"), {"chi": "chi12", "phi": "chi16a"},
        ["alpha", "beta", "gamma"], {"chi": (A,) * 6, "phi": (A,) * 8},
        [alpha, beta, gamma],
    )


def solve_element(ug: UnitGroup, traces: dict[str, int | Fraction]
                  ) -> tuple[int | Fraction, int | Fraction]:
    """Partial augmentations on the support of the element whose
    per-component traces are `traces` (`ug.traces(exps)`), solved exactly
    from augmentation one and the distinguished rows by `invert_profile`.

    Raises `Inconsistent` when these equations have no common solution
    (possible for PSL(3,3), where two traces and augmentation one pin a
    pair of unknowns).
    """
    values = {ug.distinguished[c]: t for c, t in traces.items()}
    return invert_profile(ug.solve_rows, values, ug.support)


def element_profile(ug: UnitGroup,
                    exps: tuple[int, ...]) -> dict[str, int | Fraction]:
    """Character value on every row, forced by the support hypothesis
    from the element's partial augmentations."""
    if not any(exps):
        return {ch.name: Fraction(ch.degree) for ch in ug.table.chars}
    ex, ey = solve_element(ug, ug.traces(exps))
    x, y = ug.support
    return {ch.name: ex * ch.values[x] + ey * ch.values[y]
            for ch in ug.table.chars}


def element_profiles(ug: UnitGroup
                     ) -> dict[tuple[int, ...], dict[str, int | Fraction]]:
    """Every element's profile.  Nothing in the package calls it; the
    benchmark's tracer (perfbench/spans.py) still wraps it by name."""
    return {exps: element_profile(ug, exps) for exps in ug.exponent_vectors()}


def verify_unit_group(ug: UnitGroup) -> dict:
    """Structural and augmentation checks for a constructed unit group.

    Checks: every power table is the cyclic group of its base M: its entry
    0 is I and entry k times M is entry k + 1 mod p, one real product per
    entry, so entry k is M^k and M^p = I.  A generator has order p in a
    component unless some block at a non-zero exponent has a table failing
    this, or its key there is all 0 (trivial); powers of one base commute,
    so the generators commute.  The distinguished-component
    representation is faithful: the p^rank elements have distinct keys,
    so the group order is p^rank.
    One pass over the elements then reads each element's key and traces
    off its block exponents, and solves every nontrivial element once from
    those traces (augmentation one and its distinguished rows), which its
    report entry also shows; an inconsistent solve is a problem.
    Integrality, the MRSW signs and the element's class are read off that
    solution: x for (1, 0), y for (0, 1), "other" for anything else.
    Per-class counts come from those classes, and so do the premises of a
    PSL(2,p^2) group: its generators on the support classes in order (u on
    c, v on d), and its `trace_pattern`, the j with u*v^j on class c, which
    must equal the requested pattern.
    """
    p, rank = ug.p, ug.rank
    problems: list[str] = []
    units = [tuple(int(j == i) for j in range(rank)) for i in range(rank)]
    keys = [ug.key(exps) for exps in units]
    # tab[0] = I and tab[k] * M = tab[k + 1 mod p] make tab[k] = M^k and
    # M^p = I; powers of one base commute, so the generators do too
    cyclic = {base: tab[0].is_identity()
              and all(tab[k] * base == tab[(k + 1) % p] for k in range(p))
              for base, tab in ug.powers.items()}

    for i in range(rank):
        for name in ug.bases:
            ks = ug.generator_exponents[i][name]
            periodic = all(cyclic[base] or k == 0
                           for base, k in zip(ug.bases[name], ks))
            if not periodic or not any(keys[i][name]):
                problems.append(f"generator {ug.generator_names[i]} "
                                f"does not have order {p} in {name}")

    xa, xb = ug.support
    distinct = set()
    unsolved: list[str] = []
    on_class: dict[tuple[int, ...], str] = {}
    per_element = []
    counts = {xa: 0, xb: 0, "other": 0}
    for exps in ug.exponent_vectors():
        distinct.add(tuple(ug.key(exps).values()))
        if not any(exps):
            continue
        traces = ug.traces(exps)
        try:
            ea, eb = solve_element(ug, traces)
        except Inconsistent as exc:
            unsolved.append(f"element {exps}: {exc}")
            continue
        integral = ea.denominator == 1  # and so is eb = 1 - ea
        mrsw = ea >= 0 and eb >= 0
        on_class[exps] = {(1, 0): xa, (0, 1): xb}.get((ea, eb), "other")
        counts[on_class[exps]] += 1
        per_element.append(
            {
                "exponents": list(exps),
                "traces": {
                    name: format_rational(t) for name, t in traces.items()
                },
                "aug": {xa: format_rational(ea), xb: format_rational(eb)},
                "integral": integral,
                "mrsw": mrsw,
            }
        )
    all_integral = all(e["integral"] for e in per_element)
    all_mrsw = all(e["mrsw"] for e in per_element)
    faithful = len(distinct) == p ** rank
    if not faithful:
        problems.append("distinguished components do not separate elements")
    problems += unsolved

    pattern_fields = {}
    if ug.pattern is not None:
        for i, cls in enumerate(ug.support):
            if on_class.get(units[i]) != cls:
                problems.append(f"generator {ug.generator_names[i]} "
                                f"does not lie on class {cls}")
        recovered = [j for j in range(1, p) if on_class.get((1, j)) == xa]
        if recovered != sorted(ug.pattern):
            problems.append("trace pattern disagrees with requested pattern")
        pattern_fields = {"pattern": sorted(ug.pattern),
                          "trace_pattern": recovered}

    return {
        "group": ug.table.group,
        "p": p,
        "rank": rank,
        "order": p ** rank,
        "faithful": faithful,
        "counts": counts,
        "all_integral": all_integral,
        "all_mrsw": all_mrsw,
        "elements": per_element,
        "problems": problems,
        "ok": faithful and all_integral and not problems,
        **pattern_fields,
    }


def valenti_search(target: frozenset[int], p: int) -> dict | None:
    """Search for a character-value-preserving isomorphism onto a Sylow pair.

    `target` is the unit group's mixed-class pattern, the `trace_pattern`
    of a verified group (which also proves its generators lie on classes c
    and d).  A witness is a group-side generator pair realizing it; pattern
    equality is exactly value preservation on every element because powers
    stay in their generator's class.  Square scaling leaves a pattern
    invariant, so g = 1, and h is the first non-square mu in field order
    that `patterns.realizers` lists for the target; None, when the table
    has no such mu, certifies that no such isomorphism exists, since that
    table is built only on a square table checked to be exactly the
    squares.
    """
    mu = realizers(p).get(target)
    if mu is None:
        return None
    f = fq_make(p)
    return {"pattern": sorted(target), "g": f.format(f.one),
            "h": f.format(mu)}
