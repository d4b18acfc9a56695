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
and for each generator the exponent of every block.  Elements and their
traces are read off the tables; nothing is multiplied out per element.
Verification proves with real matrix products the premises that make the
exponent arithmetic exact (M^p = I, generators non-trivial and commuting,
the representation faithful), then recovers every element's partial
augmentations (eps_x, eps_y) on the two order-p classes x, y in closed
form (`invert_profile`): augmentation one and the first distinguished row
separating x and y give the pair as exact `Fraction`s, and every
distinguished row is checked against it.  Integrality, class counts and
the Marciniak-Ritter-Sehgal-Weiss sign test (rationally conjugate to a
group element iff both are non-negative) are read off the pair.  The
distinguished rows are looked up, and checked to separate x and y, once
per group, so a table from GRS_DATA_DIR failing either is a
`ValidationError`.  For PSL(2,p^2) verification also reads the mixed-class
pattern off the verified `eta` traces; the Valenti search scans the
non-squares mu of F_(p^2) for a Sylow generator pair (1, mu) realizing
that pattern.  The other character values carry no information of their
own: `element_profile` synthesizes them from the solved augmentations, as
the reference that tests compare against.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .chardata import (CharSlice, TableSlice, ValidationError,
                       format_rational, psl2_slice, psl33_slice)
from .finitefield import fq_make
from .matrices import BlockDiag, QMatrix, companion_cyclotomic
from .patterns import _pattern_of


class BadPattern(ValueError):
    pass


class Inconsistent(Exception):
    """The traces admit no exact augmentation solution."""


def invert_profile(rows: list[CharSlice], traces: dict[str, Fraction],
                   support: tuple[str, str]) -> tuple[Fraction, Fraction]:
    """(eps_x, eps_y) on the support classes x, y of a unit u whose values
    on `rows` are `traces`.  Augmentation one and the first row chi with
    chi(x) != chi(y) give eps_x = (chi(u) - chi(y)) / (chi(x) - chi(y));
    every row must then hold exactly.  `UnitGroup` checks that some row
    separates x and y."""
    x, y = support
    sep = next(ch for ch in rows if ch.values[x] != ch.values[y])
    ex = ((Fraction(traces[sep.name]) - sep.values[y])
          / (sep.values[x] - sep.values[y]))
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
    of each block's base.  Element (e_1, ..., e_r) has block exponents
    sum_i e_i * k_ij mod p, so its blocks are entries of the power tables
    and its trace is a sum of table traces.  The tables are built by real
    `QMatrix` products; that the exponents may be read mod p (M^p = I) and
    that the generators are non-trivial, commute and act faithfully is
    what `verify_unit_group` proves, so an inconsistent presentation makes
    the verification fail rather than the elements silently wrong.
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
        shape = {c: len(blocks) for c, blocks in self.bases.items()}
        for gen in self.generator_exponents:
            if {c: len(ks) for c, ks in gen.items()} != shape:
                raise ValueError("generator exponents do not match the blocks")
        self.powers: dict[QMatrix, list[QMatrix]] = {}
        for blocks in self.bases.values():
            for base in blocks:
                if base not in self.powers:
                    tab = [QMatrix.identity(base.dim)]
                    for _ in range(self.p - 1):
                        tab.append(tab[-1] * base)
                    self.powers[base] = tab
        traces = {base: [m.trace() for m in tab]
                  for base, tab in self.powers.items()}
        # per component, the power table and its traces for each block
        self._tables = {c: [self.powers[b] for b in blocks]
                        for c, blocks in self.bases.items()}
        self._traces = {c: [traces[b] for b in blocks]
                        for c, blocks in self.bases.items()}
        # the support hypothesis forces every other row, so only these
        # carry information about an element's partial augmentations
        self.solve_rows = [self.table.char_by_name(name)
                           for name in self.distinguished.values()]
        x, y = self.support
        if all(ch.values[x] == ch.values[y] for ch in self.solve_rows):
            names = ", ".join(self.distinguished.values())
            raise ValidationError(f"{self.table.group}: rows {names} do not "
                                  f"separate classes {x} and {y}")

    @property
    def rank(self) -> int:
        return len(self.generator_exponents)

    def block_exponents(self, exps: tuple[int, ...]) -> dict[str, tuple[int, ...]]:
        out = {}
        for c in self.bases:
            columns = zip(*(gen[c] for gen in self.generator_exponents))
            out[c] = tuple(sum(e * k for e, k in zip(exps, col)) % self.p
                           for col in columns)
        return out

    def element(self, exps: tuple[int, ...]) -> dict[str, BlockDiag]:
        """The element's blocks per component, taken from the power tables."""
        return {
            c: BlockDiag(tab[k] for tab, k in zip(self._tables[c], ks))
            for c, ks in self.block_exponents(exps).items()
        }

    def traces(self, exps: tuple[int, ...]) -> dict[str, Fraction]:
        """Per-component traces: sums of the power tables' traces."""
        return {
            c: sum(trace[k] for trace, k in zip(self._traces[c], ks))
            for c, ks in self.block_exponents(exps).items()
        }

    def exponent_vectors(self):
        """Every element's exponent vector, in sorted order."""
        return itertools.product(range(self.p), repeat=self.rank)

    @property
    def generators(self) -> list[dict[str, BlockDiag]]:
        return [
            self.element(tuple(1 if j == i else 0 for j in range(self.rank)))
            for i in range(self.rank)
        ]

    def order(self) -> int:
        return self.p ** self.rank


def build_psl2_units(p: int, pattern) -> UnitGroup:
    """The pair u, v in the eta-component of PSL(2,p^2) realizing `pattern`.

    u = (1, E, A^(-i_1), ..., A^(-i_((p-1)/2))) and v = (1, A, ..., A) with
    A the order-p companion matrix appearing (p+1)/2 times; u*v^j then has
    trace (p+1)/2 exactly when j lies in the pattern.
    """
    if p > MAX_PRIME:
        raise ValueError(f"p capped at {MAX_PRIME}")
    table = psl2_slice(p)  # rejects p that is not an odd prime
    members = frozenset(int(i) for i in pattern)
    if not members <= set(range(1, p)) or len(members) != (p - 1) // 2:
        raise BadPattern(
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
    A = QMatrix([[0, -1], [1, -1]])
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


def solve_element(ug: UnitGroup,
                  exps: tuple[int, ...]) -> tuple[Fraction, Fraction]:
    """Partial augmentations on the support, solved exactly from
    augmentation one and the element's distinguished traces.

    Raises `Inconsistent` when these equations have no common solution
    (possible for PSL(3,3), where two traces and augmentation one pin a
    pair of unknowns).
    """
    traces = {ug.distinguished[c]: t for c, t in ug.traces(exps).items()}
    return invert_profile(ug.solve_rows, traces, ug.support)


def element_profile(ug: UnitGroup, exps: tuple[int, ...]) -> dict[str, Fraction]:
    """Character value on every row, forced by the support hypothesis
    from the element's partial augmentations."""
    if not any(exps):
        return {ch.name: Fraction(ch.degree) for ch in ug.table.chars}
    ex, ey = solve_element(ug, exps)
    x, y = ug.support
    return {ch.name: ex * ch.values[x] + ey * ch.values[y]
            for ch in ug.table.chars}


def element_profiles(ug: UnitGroup) -> dict[tuple[int, ...], dict[str, Fraction]]:
    """Every element's profile.  Nothing in the package calls it; the
    benchmark's tracer (perfbench/spans.py) still wraps it by name."""
    return {exps: element_profile(ug, exps) for exps in ug.exponent_vectors()}


def verify_unit_group(ug: UnitGroup) -> dict:
    """Structural and augmentation checks for a constructed unit group.

    Checks: every block base satisfies M^p = I (one product past its power
    table), so generators have order p unless trivial; generators are
    non-trivial and commute (real block products); the distinguished-
    component representation is faithful (so the group order is p^rank);
    every nontrivial element's partial augmentations come from one exact
    solve of augmentation one and its distinguished traces (`solve_element`),
    whose inconsistency is reported as a problem; integrality, the MRSW
    signs and per-class counts are read off that solution.  A PSL(2,p^2)
    group also needs its generators on the support classes in order (u on
    c, v on d); its `trace_pattern`, the j with u*v^j on class c, is read
    off the `eta` traces and must equal the requested pattern.
    """
    p, rank = ug.p, ug.rank
    problems: list[str] = []
    gens = ug.generators
    comp_names = list(ug.bases)
    closes = {base: (tab[p - 1] * base).is_identity()
              for base, tab in ug.powers.items()}

    for i in range(rank):
        for name in comp_names:
            ks = ug.generator_exponents[i][name]
            periodic = all(closes[base] or k == 0
                           for base, k in zip(ug.bases[name], ks))
            if not periodic or gens[i][name].is_identity():
                problems.append(f"generator {ug.generator_names[i]} "
                                f"does not have order {p} in {name}")
        for j in range(i + 1, rank):
            for name in comp_names:
                a, b = gens[i][name], gens[j][name]
                if a * b != b * a:
                    problems.append(
                        f"generators {ug.generator_names[i]}, "
                        f"{ug.generator_names[j]} do not commute in {name}"
                    )

    distinct = {
        tuple(ug.element(exps).values()) for exps in ug.exponent_vectors()
    }
    faithful = len(distinct) == p ** rank
    if not faithful:
        problems.append("distinguished components do not separate elements")

    xa, xb = ug.support
    per_element = []
    counts = {xa: 0, xb: 0, "other": 0}
    all_integral = True
    all_mrsw = True
    for exps in ug.exponent_vectors():
        if not any(exps):
            continue
        try:
            ea, eb = solve_element(ug, exps)
        except Inconsistent as exc:
            problems.append(f"element {exps}: {exc}")
            continue
        integral = ea.denominator == 1  # and so is eb = 1 - ea
        mrsw = ea >= 0 and eb >= 0
        all_integral &= integral
        all_mrsw &= mrsw
        if (ea, eb) == (1, 0):
            counts[xa] += 1
        elif (ea, eb) == (0, 1):
            counts[xb] += 1
        else:
            counts["other"] += 1
        per_element.append(
            {
                "exponents": list(exps),
                "traces": {
                    name: format_rational(t)
                    for name, t in ug.traces(exps).items()
                },
                "aug": {xa: format_rational(ea), xb: format_rational(eb)},
                "integral": integral,
                "mrsw": mrsw,
            }
        )

    pattern_fields = {}
    if ug.pattern is not None:
        eta = ug.table.char_by_name("eta")
        for i, cls in enumerate(ug.support):
            generator = tuple(int(j == i) for j in range(rank))
            if ug.traces(generator)["eta"] != eta.values[cls]:
                problems.append(f"generator {ug.generator_names[i]} "
                                f"does not lie on class {cls}")
        recovered = sorted(
            j
            for j in range(1, p)
            if ug.traces((1, j))["eta"] == eta.values["c"]
        )
        if recovered != sorted(ug.pattern):
            problems.append("trace pattern disagrees with requested pattern")
        pattern_fields = {"pattern": sorted(ug.pattern),
                          "trace_pattern": recovered}

    return {
        "group": ug.table.group,
        "p": p,
        "rank": rank,
        "order": ug.order(),
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
    invariant, so g = 1 and the non-squares mu are scanned in field order
    for h; None, when no mu realizes the target, certifies that no such
    isomorphism exists.
    """
    f = fq_make(p)
    for mu in f.elements():
        if mu == f.zero or f.is_square(mu):
            continue
        if _pattern_of(f, f.one, mu) == target:
            return {
                "pattern": sorted(target),
                "g": f.format(f.one),
                "h": f.format(mu),
            }
    return None
