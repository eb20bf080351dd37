"""Span tracing of the threshknap modules from outside the package.

`Tracer.install()` replaces every function defined in a traced module with
a wrapper that records a span (name, start, end, parent).  Modules such as
`cli`, `knapsack` and `kthreshold` bind imported names at import time, and
`cli` keeps functions in dispatch tables, so every module-level binding and
table entry that points at an original is rebound too; otherwise nested
calls would escape the trace.  `uninstall()` restores the originals.

Self time is a span's duration minus its direct children's durations.
Spans are aggregated per operation and then dropped, so memory stays flat.
"""
from __future__ import annotations

import math
from collections import Counter
from time import perf_counter

MODULES = ("cli", "graphs", "threshold", "split", "kthreshold", "knapsack")

# metric group -> functions whose self time it sums
GROUPS = {
    "graphs.parse_graph": ("graphs.parse_graph",),
    "graphs.format_graph": ("graphs.format_graph",),
    "graphs.maximal_cliques": ("graphs.maximal_cliques",),
    "threshold.recognize": ("threshold.recognize_threshold",),
    "threshold.witness": ("threshold._forbidden_witness",),
    "threshold.enumerate": tuple(
        f"threshold.{f}"
        for f in (
            "enumerate_mis", "enumerate_im", "enumerate_is", "enumerate_max_cliques",
            "count_mis", "count_im", "count_is", "count_mc",
        )
    ),
    "threshold.threshold_to_kp": ("threshold.threshold_to_kp",),
    "split.recognize": ("split.recognize_split", "split._validate_partition"),
    "split.witness": ("split._split_witness",),
    "kthreshold.parse_cover": ("kthreshold.parse_cover",),
    "kthreshold.enumerate": tuple(
        f"kthreshold.{f}"
        for f in (
            "enumerate_mis_k", "enumerate_im_k", "enumerate_is_k", "enumerate_mc_intersection",
            "_member_mis_masks", "_intersections", "_drop_subsets", "alpha_k",
            "omega_intersection",
        )
    ),
    "kthreshold.enumerate_mis_2t": (
        "kthreshold.enumerate_mis_2t", "kthreshold.two_threshold_partition",
    ),
    "knapsack.parse_instance": ("knapsack.parse_instance", "knapsack.rational"),
    "knapsack.conflict_graph": (
        "knapsack.conflict_graph_kp", "knapsack.conflict_graph_dkp", "knapsack.conflict_cover_dkp",
    ),
    "knapsack.decide": (
        "knapsack.check_equivalence_kp", "knapsack.check_equivalence_dkp",
        "knapsack._kp_mis_families", "knapsack._dkp_mis_families",
        "knapsack._shrink_witness", "knapsack._recognized",
    ),
    "knapsack.solve": (
        "knapsack.solve_kp_equivalent", "knapsack.solve_dkp_equivalent", "knapsack._best_candidate",
    ),
    "knapsack.bound": (
        "knapsack.bp_lower_bound", "knapsack.dvp_lower_bound", "knapsack.dbp_lower_bound",
        "knapsack._require_unit_view", "knapsack._check_dimensions_equivalent",
    ),
    "knapsack.format": (
        "knapsack.format_instance", "knapsack.format_solution", "knapsack.format_report",
        "knapsack.format_rational",
    ),
}
GROUP_OF = {fn: group for group, fns in GROUPS.items() for fn in fns}


class Tracer:
    """Spans and counters for the package `pkg` (the imported `threshknap`)."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.mods = {name: getattr(pkg, name) for name in MODULES}
        self.graph_type = self.mods["graphs"].Graph
        self.cache = self.mods["graphs"].adjacency_masks
        self.spans = []  # [name, start, end, parent]
        self.stack = []
        self.self_s = Counter()  # module or group name -> seconds
        self.counts = Counter()
        self.max_size_bits = 0
        self.wrapped = {}  # original -> wrapper
        self.saved = []  # (module dict or dispatch table, key, original)

    # -- installation ------------------------------------------------------

    def install(self):
        for mname, mod in self.mods.items():
            for attr, obj in list(vars(mod).items()):
                # functions and the adjacency_masks cache defined here
                if (
                    callable(obj)
                    and getattr(obj, "__module__", None) == mod.__name__
                    and not isinstance(obj, type)
                ):
                    self.wrapped[obj] = self._wrap(f"{mname}.{attr}", obj)
        for mod in [self.pkg, *self.mods.values()]:
            namespace = vars(mod)
            for table in [namespace, *(t for t in namespace.values() if isinstance(t, dict))]:
                self._rebind(table)

    def _rebind(self, table):
        for key, obj in list(table.items()):
            try:
                wrapper = self.wrapped.get(obj)
            except TypeError:  # unhashable value
                continue
            if wrapper is not None:
                self.saved.append((table, key, obj))
                table[key] = wrapper

    def uninstall(self):
        for table, key, obj in reversed(self.saved):
            table[key] = obj
        self.saved.clear()

    def _wrap(self, name, fn):
        spans, stack, observe = self.spans, self.stack, self._observe

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            observe(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters ----------------------------------------------------------

    def _observe(self, name, args, result):
        counts = self.counts
        if isinstance(result, self.graph_type):
            counts["edges_built"] += len(result.edges)
        if name == "threshold.recognize_threshold":
            counts["recognize_calls"] += 1
        elif name in ("knapsack.conflict_graph_kp", "knapsack.conflict_graph_dkp"):
            counts["conflict_graph_calls"] += 1
        elif name == "kthreshold._intersections":
            counts["product_tuples"] += math.prod(len(f) for f in args[0])
        elif name in ("kthreshold.enumerate_mis_k", "kthreshold.enumerate_mc_intersection"):
            counts["family_sets"] += len(result)
        elif name in ("knapsack.check_equivalence_kp", "knapsack.check_equivalence_dkp"):
            counts["witness_items"] += len(result.witness or ())
        elif name == "knapsack.parse_instance":
            items = result.items
            bits = [it.size.numerator.bit_length() for it in items if hasattr(it, "size")]
            bits += [s.numerator.bit_length() for it in items if hasattr(it, "sizes") for s in it.sizes]
            self.max_size_bits = max([self.max_size_bits, *bits])

    # -- per-operation aggregation ------------------------------------------

    def take(self):
        """Fold the spans recorded since the last call into self times and
        return (sum of self times, duration of the root spans)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        total = roots = 0.0
        for (name, start, end, parent), inner in zip(spans, child):
            own = end - start - inner
            self.self_s[name.partition(".")[0]] += own
            group = GROUP_OF.get(name)
            if group:
                self.self_s[group] += own
            total += own
            if parent < 0:
                roots += end - start
        spans.clear()
        return total, roots
