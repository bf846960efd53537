"""Span tracing of protofield from outside, by wrapping its public functions.

A wrapper replaces a function at every name it is looked up by: each
module-level name in the package that binds it, the class attribute for a
method, the entry of ``verify.CHECKS`` for a check.  A span is a list
``[group, start, end, parent, problem, child_time]`` kept in memory; the
summaries below are computed from the spans once the traced pass is over.

``group`` is ``<layer>.<what>`` (``flatgrid.stencil``); its first part is
the layer, one of the package's modules.
"""

from __future__ import annotations

import functools
import statistics
from collections import defaultdict
from time import perf_counter

LAYERS = ("catalog", "flatgrid", "subspaces", "linops", "matlaw", "evolve", "cli", "verify")

# (group, module, function names): module-level functions, patched wherever bound
FUNCTIONS = (
    ("catalog.build_entry", "catalog", ("build_entry",)),
    ("flatgrid.stencil", "flatgrid",
     ("point_derivative", "build_nabla", "build_div", "build_stack_skew")),
    ("subspaces.projection", "subspaces",
     ("rank_block", "component_select", "sym_projection", "asym_projection",
      "even_odd", "torus_average", "descend")),
    ("subspaces.range_kernel_split", "subspaces", ("range_kernel_split",)),
    ("matlaw.check_wellposed", "matlaw", ("check_wellposed",)),
    ("matlaw.schur_reduce", "matlaw", ("schur_reduce",)),
    ("evolve.solve", "evolve", ("solve", "solve_reduced")),
    ("evolve.energy", "evolve", ("energy_series_from_states",)),
    ("cli.run_scenario", "cli", ("run_scenario",)),
)

# groups whose time inside a solve, before its first step, is not preparation
SOLVE_CHILDREN_NOT_PREPARE = ("matlaw.check_wellposed", "subspaces.range_kernel_split",
                              "matlaw.schur_reduce")

GROUP, START, END, PARENT, PROBLEM, CHILD = range(6)


class Tracer:
    """Installs span-recording wrappers into a protofield package and removes them."""

    def __init__(self):
        self.spans = []
        self.problem = ""
        self.counters = defaultdict(float)
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def wrap(self, group, fn, on_return=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [group, perf_counter(), 0.0, parent, self.problem, 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += span[END] - span[START]
            if on_return is not None:
                on_return(out)
            return out

        return traced

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- installation ------------------------------------------------------

    def install(self, pf):
        modules = [getattr(pf, name) for name in LAYERS]
        for group, home, names in FUNCTIONS:
            for name in names:
                original = getattr(getattr(pf, home), name)
                hook = self._count_kernel if name == "range_kernel_split" else None
                wrapper = self.wrap(group, original, hook)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, attr, wrapper)

        op_cls = pf.linops.MatrixOperator
        self._set(pf.catalog.CatalogEntry, "problem",
                  self.wrap("evolve.problem", pf.catalog.CatalogEntry.problem))
        self._set(op_cls, "apply", self.wrap("linops.apply", op_cls.apply))
        self._set(op_cls, "to_dense", self.wrap("linops.to_dense", op_cls.to_dense))
        self._set(op_cls, "__matmul__", self._matmul(op_cls))
        self._set(op_cls, "__init__", self._counting_init(op_cls, pf.linops))

        checks = pf.verify.CHECKS
        self._patches.append((checks, slice(None), list(checks)))
        for i, check in enumerate(checks):
            name = check.__name__.removeprefix("check_")
            checks[i] = self.wrap(f"verify.{name}", check)
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            if isinstance(attr, slice):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def _matmul(self, op_cls):
        original = op_cls.__matmul__
        traced = self.wrap("linops.matmul", original)

        @functools.wraps(original)
        def matmul(a, b):
            # operator times vector is an apply, which has its own span
            return traced(a, b) if isinstance(b, op_cls) else original(a, b)

        return matmul

    def _counting_init(self, op_cls, linops):
        original = op_cls.__init__
        counters = self.counters
        issparse = linops.sp.issparse

        @functools.wraps(original)
        def init(op, *args, **kwargs):
            original(op, *args, **kwargs)
            if issparse(op.entries):
                counters["linops.sparse_ops"] += 1
            else:
                counters["linops.dense_ops"] += 1
                counters["linops.dense_bytes_computed"] += op.entries.nbytes

        return init

    def _count_kernel(self, split):
        kernel = split[1]
        self.counters["subspaces.kernel_dim"] += 0 if kernel is None else kernel.codomain.dim


# ---------------------------------------------------------------------------
# summaries


def outermost_totals(spans, problem=None):
    """Per group: summed duration of spans with no enclosing span of that group, and calls.

    With ``problem``, only the spans recorded while that problem ran count.
    """
    seconds, calls = defaultdict(float), defaultdict(int)
    for span in spans:
        if problem is not None and span[PROBLEM] != problem:
            continue
        group = span[GROUP]
        calls[group] += 1
        parent = span[PARENT]
        while parent >= 0 and spans[parent][GROUP] != group:
            parent = spans[parent][PARENT]
        if parent < 0:
            seconds[group] += span[END] - span[START]
    return seconds, calls


def self_times(spans):
    """Per group: summed self time, the span's duration minus its direct children's."""
    out = defaultdict(float)
    for span in spans:
        out[span[GROUP]] += span[END] - span[START] - span[CHILD]
    return out


def window_self_times(spans, lo, hi, out):
    """Add to ``out`` each layer's self time inside the window [lo, hi]."""
    for span in spans:
        if span[END] <= lo or span[START] >= hi:
            continue
        inside = min(span[END], hi) - max(span[START], lo)
        out[layer_of(span[GROUP])] += inside
        if span[PARENT] >= 0:
            out[layer_of(spans[span[PARENT]][GROUP])] -= inside  # not self time of the parent
    return out


def layer_of(group):
    return group.split(".", 1)[0]


def first_span(spans, group, lo, hi):
    """Index of the first span of ``group`` that starts in [lo, hi)."""
    return next(i for i, span in enumerate(spans)
                if span[GROUP] == group and lo <= span[START] < hi)


def prepare_time(spans, solve_index, first_step):
    """Solve call to first step, minus the gate, split and Schur reduction inside it."""
    solve = spans[solve_index]
    excluded = 0.0
    for i in range(solve_index + 1, len(spans)):
        span = spans[i]
        if span[START] >= first_step:
            break
        if span[GROUP] in SOLVE_CHILDREN_NOT_PREPARE and _outermost_in(spans, i, solve_index):
            excluded += min(span[END], first_step) - span[START]
    return first_step - solve[START] - excluded


def _outermost_in(spans, index, ancestor):
    """True when span ``index`` lies inside ``ancestor`` with no excluded-group span between."""
    parent = spans[index][PARENT]
    while parent != ancestor:
        if parent < 0:
            return False
        if spans[parent][GROUP] in SOLVE_CHILDREN_NOT_PREPARE:
            return False
        parent = spans[parent][PARENT]
    return True


def quantile(values, q):
    """The q-quantile of ``values``, q a whole number of hundredths; 0 when empty."""
    if len(values) < 2:
        return float(values[0]) if len(values) else 0.0
    return float(statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1])
