"""Spans and counters recorded around the package's public callables.

install() wraps each traced callable and rebinds it in every koszulity
module that holds it, because modules bind names with ``from .x import y``
(koszul binds colon_ideal, cli binds classify, ...).  Methods are wrapped on
their class.  A span is (name, parent span, start, end) in nanoseconds; all
spans stay in four flat arrays until summary() runs after the pass.

Self time of a span is its duration minus the part of it covered by its
child spans.  The traced process must run serially: spans recorded in
forked pool workers never reach the parent.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from array import array
from collections import Counter

# Traced callables per layer module: name -> kind.  "span" records a span;
# "count" only counts calls (hot methods whose time lies in their callers'
# spans), "distinct" also counts argument tuples new to the instance; "gen"
# counts the values a generator yields.
TRACED = {
    "graphs": {
        "canonical_graph": "span",
        "canonical_form": "span",
        "nonisomorphic_graphs": "span",
        "build_graph": "span",
        "parse_edge_list": "span",
        "diagonal_violation": "span",
        "elementary_type_decomposition": "span",
        "enumerate_cliques": "span",
    },
    "algebra": {
        "build_algebra": "span",
        "pbw_check": "span",
        "koszul_numerical_check": "span",
        "from_coeffs": "span",
        "AlgebraContext.basis_product": "distinct",
    },
    "gfp": {
        "rref": "span",
        "kernel": "span",
        "RowSpace.reduce": "span",
        "RowSpace.member": "count",
        "enumerate_subspaces": "gen",
        "enumerate_coset_reps_mod_scalar": "gen",
    },
    "ideals": {
        "colon_ideal": "span",
        "annihilator": "span",
        "monomial_ideal_basis": "span",
        "ideal_from_degree_one": "span",
        "is_one_generated": "span",
        "element_in_ideal": "span",
    },
    "koszul": {
        "classify": "span",
        "strong_koszul_check": "span",
        "universal_koszul_fast": "span",
        "universal_koszul_bruteforce": "span",
        "non_universal_witness": "span",
    },
    "cli": {
        "main": "span",
        "cmd_analyze": "span",
        "cmd_census": "span",
        "report_json": "span",
    },
}

NO_PARENT = -1


def self_times(parents, starts, ends) -> list[int]:
    """Self time of every span.

    Spans must be listed in order of start time, as one thread records
    them.  Then the children of a span also arrive in start order, and the
    union of their intervals, clipped to the parent, grows by a sweep that
    remembers the furthest end covered so far.
    """
    n = len(parents)
    covered = [0] * n
    reach = list(starts)  # furthest covered point inside each span
    for i in range(n):
        q = parents[i]
        if q == NO_PARENT:
            continue
        lo = max(starts[i], reach[q])
        hi = min(ends[i], ends[q])
        if hi > lo:
            covered[q] += hi - lo
            reach[q] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


class Tracer:
    """Span store plus counters for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.stack = [NO_PARENT]
        self.counts = Counter()
        self.cells = Counter()
        self.observed = Counter()

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn, before=None, after=None):
        nid = self._name_id(name)
        span_name, parents, starts, ends = self.span_name, self.parents, self.starts, self.ends
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            sid = len(parents)
            span_name.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def counter(self, name: str, fn, distinct: bool = False):
        """Count calls of a method; with distinct, also count the argument
        tuples not seen before on the same instance."""
        calls = self.counts
        seen = self.distinct_keys(name) if distinct else None

        @functools.wraps(fn)
        def counted(obj, *args):
            calls[name] += 1
            if seen is not None:
                seen(obj, args)
            return fn(obj, *args)

        return counted

    def generator(self, name: str, fn):
        calls = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for value in fn(*args, **kwargs):
                calls[name + ".yielded"] += 1
                yield value

        return counted

    def distinct_keys(self, name: str):
        """A function seen(ctx, key) that counts, under name + ".distinct",
        each key new to its algebra context.  Keys live only as long as
        their context; the last context is remembered, as calls come in
        runs on one context."""
        per_ctx = weakref.WeakKeyDictionary()
        last = [None, None]
        counts = self.counts
        label = name + ".distinct"

        def seen(ctx, key):
            if last[0] is not ctx:
                last[0] = ctx
                last[1] = per_ctx.setdefault(ctx, set())
            keys = last[1]
            if key not in keys:
                keys.add(key)
                counts[label] += 1

        return seen

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, inclusive and self nanoseconds, and the raw
        counters.  Also the outermost durations needed for roll-ups."""
        selfs = self_times(self.parents, self.starts, self.ends)
        per = {}
        for i, nid in enumerate(self.span_name):
            rec = per.setdefault(self.names[nid], [0, 0, 0])
            rec[0] += 1
            rec[1] += self.ends[i] - self.starts[i]
            rec[2] += selfs[i]
        return {
            "spans": {k: {"calls": c, "total_ns": t, "self_ns": s} for k, (c, t, s) in per.items()},
            "counts": dict(self.counts),
            "cells": dict(self.cells),
            "observed": dict(self.observed),
            "classify_ns": self.durations("classify"),
            "census_enumerate_ns": self.outermost_under(
                ("nonisomorphic_graphs", "canonical_form"), "cmd_census"
            ),
        }

    def durations(self, name: str) -> list[int]:
        nid = self.name_ids.get(name)
        return [
            self.ends[i] - self.starts[i]
            for i, k in enumerate(self.span_name)
            if k == nid
        ]

    def outermost_under(self, names, ancestor: str) -> int:
        """Total duration of spans named in names that lie below a span
        named ancestor and below no other span named in names."""
        want = {self.name_ids[n] for n in names if n in self.name_ids}
        anc = self.name_ids.get(ancestor)
        total = 0
        for i, k in enumerate(self.span_name):
            if k not in want:
                continue
            q, inside = self.parents[i], False
            while q != NO_PARENT:
                if self.span_name[q] in want:
                    break
                if self.span_name[q] == anc:
                    inside = True
                q = self.parents[q]
            else:
                if inside:
                    total += self.ends[i] - self.starts[i]
        return total


def install() -> Tracer:
    """Wrap every callable in TRACED and rebind it wherever a koszulity
    module binds it.  The package must already be imported."""
    tracer = Tracer()
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "koszulity"]

    def cells(name):
        # rref and kernel take the matrix first: count its rows x columns
        def before(matrix, *args, **kwargs):
            tracer.cells[name] += len(matrix) * len(matrix[0]) if matrix else 0
        return before

    observers = {
        "strong_koszul_check": lambda r: tracer.observed.update({"strong.pairs": r.pairs_checked}),
        "universal_koszul_bruteforce": lambda r: tracer.observed.update(
            {"brute.ideals": r.ideals_enumerated, "brute.divisors": r.divisors_checked}
        ),
    }
    befores = {"rref": cells("rref"), "kernel": cells("kernel")}
    # calls of these count as distinct per (context, generating set)
    seen_basis = tracer.distinct_keys("monomial_ideal_basis")
    seen_degree_one = tracer.distinct_keys("ideal_from_degree_one")
    befores["monomial_ideal_basis"] = lambda ctx, s: seen_basis(ctx, frozenset(s))
    befores["ideal_from_degree_one"] = lambda ctx, u: seen_degree_one(ctx, u.rows)
    for layer, entries in TRACED.items():
        home = sys.modules[f"koszulity.{layer}"]
        for qualname, kind in entries.items():
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(home, cls_name)
                fn = cls.__dict__[meth]
                if kind == "span":
                    wrapped = tracer.span(qualname, fn)
                else:
                    wrapped = tracer.counter(qualname, fn, distinct=kind == "distinct")
                setattr(cls, meth, wrapped)
                continue
            fn = getattr(home, qualname)
            if kind == "gen":
                wrapped = tracer.generator(qualname, fn)
            else:
                wrapped = tracer.span(qualname, fn, befores.get(qualname), observers.get(qualname))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapped)
    return tracer
