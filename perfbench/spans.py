"""Spans and counters around the calls into each grunits layer.

Nothing under src/ is changed: wrappers are installed, in the child process
only, at the names the callers look up.  The modules import each other's
functions with `from ... import`, so a function is wrapped under every
module that calls it (for example `grunits.cli.build_psl2_units` and
`grunits.constructions.invert_profile`), and methods on their class.

A span records its name, start, end, parent and self time: its duration
minus the time its child spans and timed leaf calls cover.  Leaf calls are
the hot, tiny functions (`QMatrix.__mul__`, `Fq.is_square`); they are
counted and timed in aggregate instead of one span per call, which would
cost more memory than the work it measures.  `cyclotomic` gets nothing: no
CLI command builds a `Cyclotomic` value, and the child reports how many
were built so that claim is checked on every traced command.
"""

from __future__ import annotations

import builtins
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.leaf_s: Counter = Counter()
        self._open: list[int] = []  # indices of the spans being timed
        self._covered: list[float] = []  # child time inside each open span

    def span(self, name: str, fn):
        def wrapped(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append(None)
            self._open.append(index)
            self._covered.append(0.0)
            self.counts[name] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._open.pop()
                covered = self._covered.pop()
                self.spans[index] = (name, start, end, parent, end - start - covered)
                if self._covered:
                    self._covered[-1] += end - start
        return wrapped

    def leaf(self, name: str, fn, timed: bool = True):
        """Count calls; with `timed`, also sum their time.  A timed leaf must
        never call another timed leaf, or its time would be covered twice."""
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        def timed_call(*args, **kwargs):
            self.counts[name] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                self.leaf_s[name] += took
                if self._covered:
                    self._covered[-1] += took
        return timed_call if timed else counted

    def self_times(self) -> Counter:
        out = Counter(self.leaf_s)
        for name, _start, _end, _parent, self_s in self.spans:
            out[name] += self_s
        return out

    def export(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "self_s": dict(self.self_times()),
        }


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of an imported grunits at their call sites."""
    from grunits import (chardata, cli, constructions, cyclotomic, finitefield,
                         matrices, oracle, patterns)

    def wrap_at(name: str, fn, *modules) -> None:
        wrapped = tracer.span(name, fn)
        for module in modules:
            setattr(module, fn.__name__, wrapped)

    wrap_at("constructions.build", constructions.build_psl2_units, cli)
    wrap_at("constructions.build", constructions.build_psl33_units, cli)
    wrap_at("constructions.verify", constructions.verify_unit_group, cli)
    wrap_at("constructions.profiles", constructions.element_profiles, cli)
    wrap_at("constructions.valenti", constructions.valenti_search, cli)
    wrap_at("partialaug.invert", constructions.invert_profile, constructions)
    wrap_at("helpengine.scan", cli.feasible_distributions, cli)
    wrap_at("patterns.group_patterns", patterns.group_patterns, cli, patterns)
    wrap_at("patterns.gap_report", patterns.gap_report, cli)
    wrap_at("chardata.slice", chardata.psl2_slice, cli, constructions)
    wrap_at("chardata.slice", chardata.psl33_slice, cli, constructions)
    wrap_at("chardata.orthogonality", chardata.validate_orthogonality, cli)
    wrap_at("chardata.decomposition", chardata.mixed_value_decomposition, cli)
    wrap_at("finitefield.square_lines", finitefield.square_lines, cli)
    wrap_at("oracle.enumerate_group", oracle.enumerate_group, cli, oracle)
    wrap_at("oracle.square_criterion", oracle.check_square_criterion, cli)

    group = oracle.GroupOracle
    group.enumerate = tracer.span("oracle.enumerate", group.enumerate)
    group.order_p_classes = tracer.span("oracle.classes", group.order_p_classes)
    group.exponent = tracer.span("oracle.exponent", group.exponent)
    group.element_order = tracer.leaf("oracle.element_order",
                                      group.element_order, timed=False)
    matrices.BlockDiag.__mul__ = tracer.leaf(
        "matrices.blockdiag_mul", matrices.BlockDiag.__mul__, timed=False)
    matrices.QMatrix.__mul__ = tracer.leaf(
        "matrices.qmatrix_mul", matrices.QMatrix.__mul__)
    finitefield.Fq.is_square = tracer.leaf(
        "finitefield.is_square", finitefield.Fq.is_square)
    cyclotomic.Cyclotomic.__init__ = tracer.leaf(
        "cyclotomic.values", cyclotomic.Cyclotomic.__init__, timed=False)

    # The oracle's cache files are the only files `grunits.oracle` opens;
    # the module-level name shadows the builtin for that module alone.
    def cache_open(path, mode="r", *args, **kwargs):
        tracer.counts["oracle.cache_writes" if "w" in mode
                      else "oracle.cache_reads"] += 1
        return builtins.open(path, mode, *args, **kwargs)

    oracle.open = cache_open
