"""Spans and counts at the layer boundaries, recorded from outside the package.

``Tracer.install`` replaces the package functions named in ``SPANS`` and
``COUNTS`` by wrappers, in every ``blockgraph`` module that holds them (a
function imported by name lives in several module namespaces, and the
caller's copy is the one that runs).  Spans stay in memory as
(name, start, end, parent, operation) and are written out when the run ends.
A layer's time is its self time: the span minus the part of it that its
child spans cover.  ``graph.build_block_graph_s`` alone is a whole span,
the time a caller waits for a graph; its self time is ``graph.assembly_s``.
Spans are numbered in the order they start, which assumes the traced pass
runs in one thread, as the benchmark's operations do.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

from cold import package_modules

# (module, attribute, span name)
SPANS = [
    ("blockgraph.chartab", "parse_table", "chartab.parse_table"),
    ("blockgraph.chartab", "validate", "chartab.validate"),
    ("blockgraph.chartab", "print_table", "chartab.print_table"),
    ("blockgraph.cyclotomic", "parse_cyclotomic", "cyclotomic.parse_cyclotomic"),
    ("blockgraph.cyclotomic", "make_reduction_context", "cyclotomic.make_reduction_context"),
    ("blockgraph.cyclotomic", "reduce_cyclotomic", "cyclotomic.reduce_cyclotomic"),
    ("blockgraph._zeta", "expand", "zeta.expand"),
    ("blockgraph._gf", "cyclotomic_factors_mod_p", "gf.cyclotomic_factors_mod_p"),
    ("blockgraph._gf", "find_irreducible", "gf.find_irreducible"),
    ("blockgraph._gf", "_root_of_unity", "gf.root_of_unity"),
    ("blockgraph.blocks", "block_partition", "blocks.block_partition"),
    ("blockgraph.blocks", "central_character", "blocks.central_character"),
    ("blockgraph.blocks", "_partition", "blocks.fingerprint"),
    ("blockgraph.graph", "build_block_graph", "graph.build_block_graph"),
    ("blockgraph.tablegen", "enumerate_group", "tablegen.enumerate_group"),
    ("blockgraph.tablegen", "conjugacy_classes", "tablegen.conjugacy_classes"),
    ("blockgraph.tablegen", "dixon_table", "tablegen.dixon_table"),
    ("blockgraph.lietype", "group_order", "lietype.group_order"),
    ("blockgraph.lietype", "steinberg_in_principal_block", "lietype.steinberg"),
    ("blockgraph.lietype", "zsigmondy", "lietype.zsigmondy"),
    ("blockgraph.lietype", "table2_row", "lietype.table2_row"),
    ("blockgraph.lietype", "is_regular", "lietype.is_regular"),
    ("blockgraph._numtheory", "factorize", "numtheory.factorize"),
    ("blockgraph.intpoly", "cyclotomic_polynomial", "intpoly.cyclotomic_polynomial"),
]

# Called too often for a span each: counted only.
COUNTS = [
    ("blockgraph._zeta", "mul", "zeta.mul"),
    ("blockgraph._gf", "is_irreducible", "gf.is_irreducible"),
]

# Every per-layer metric, in output order, with its unit.
PER_LAYER = [
    ("cli.import_s", "s"),
    ("cli.run_s", "s"),
    ("chartab.parse_table_s", "s"),
    ("chartab.parse_table_calls", "count"),
    ("chartab.validate_s", "s"),
    ("chartab.print_table_s", "s"),
    ("cyclotomic.parse_cyclotomic_s", "s"),
    ("cyclotomic.parse_cyclotomic_calls", "count"),
    ("zeta.expand_s", "s"),
    ("zeta.expand_calls", "count"),
    ("zeta.mul_calls", "count"),
    ("cyclotomic.make_reduction_context_s", "s"),
    ("cyclotomic.make_reduction_context_calls", "count"),
    ("cyclotomic.residue_degree_sum", "degree"),
    ("cyclotomic.residue_degree_max", "degree"),
    ("cyclotomic.reduce_cyclotomic_s", "s"),
    ("cyclotomic.reduce_cyclotomic_calls", "count"),
    ("gf.cyclotomic_factors_mod_p_s", "s"),
    ("gf.factors_enumerated", "count"),
    ("gf.factor_use_ratio", "ratio"),
    ("gf.find_irreducible_s", "s"),
    ("gf.find_irreducible_calls", "count"),
    ("gf.seed_hits", "count"),
    ("gf.is_irreducible_calls", "count"),
    ("gf.root_of_unity_s", "s"),
    ("blocks.block_partition_s", "s"),
    ("blocks.block_partition_calls", "count"),
    ("blocks.central_character_s", "s"),
    ("blocks.central_character_calls", "count"),
    ("blocks.fingerprint_s", "s"),
    ("graph.build_block_graph_s", "s"),
    ("graph.assembly_s", "s"),
    ("tablegen.enumerate_group_s", "s"),
    ("tablegen.elements_enumerated", "count"),
    ("tablegen.conjugacy_classes_s", "s"),
    ("tablegen.dixon_table_s", "s"),
    ("lietype.group_order_s", "s"),
    ("lietype.group_order_calls", "count"),
    ("lietype.steinberg_s", "s"),
    ("lietype.steinberg_calls", "count"),
    ("lietype.zsigmondy_s", "s"),
    ("lietype.table2_row_s", "s"),
    ("lietype.is_regular_s", "s"),
    ("numtheory.factorize_s", "s"),
    ("numtheory.factorize_calls", "count"),
    ("numtheory.factorize_distinct_ratio", "ratio"),
    ("numtheory.factorize_max_digits", "digits"),
    ("intpoly.cyclotomic_polynomial_s", "s"),
    ("intpoly.cyclotomic_polynomial_calls", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = None  # id of the operation running, set by the runner
        self.factorize_args: list[int] = []
        self.residue_degrees: list[int] = []
        self.factors_enumerated = 0
        self.elements_enumerated = 0
        self._stack: list[int] = []  # indices of the open spans
        self._patches: list = []

    # -- wrappers ---------------------------------------------------------------

    def _span(self, name, fn):
        tracer = self
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        cached = observe is not None and hasattr(fn, "cache_info")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            misses = fn.cache_info().misses if cached else None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.op)
            if observe is not None:
                fresh = not cached or fn.cache_info().misses > misses
                observe(args, result, fresh)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe_numtheory_factorize(self, args, result, fresh):
        self.factorize_args.append(args[0])

    def _observe_cyclotomic_make_reduction_context(self, args, result, fresh):
        self.residue_degrees.append(result.degree)

    def _observe_gf_cyclotomic_factors_mod_p(self, args, result, fresh):
        if fresh:
            self.factors_enumerated += len(result)

    def _observe_tablegen_enumerate_group(self, args, result, fresh):
        self.elements_enumerated += result.order

    # -- patching --------------------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every target that exists; returns the targets not found."""
        missing = []
        for kind, targets in ((self._span, SPANS), (self._count, COUNTS)):
            for module_name, attr, name in targets:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    module = None
                original = getattr(module, attr, None)
                if original is None:
                    missing.append(f"{module_name}.{attr}")
                    continue
                wrapper = kind(name, original)
                for mod in package_modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._patches.append((mod, key, original))
        return missing

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.factorize_args.clear()
        self.residue_degrees.clear()
        self.factors_enumerated = 0
        self.elements_enumerated = 0

    # -- derived numbers ---------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for span in self.spans:
            if span[3] >= 0:
                children[span[3]].append((span[1], span[2]))
        out = []
        for index, (_, start, end, _, _) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for s, e in sorted(children.get(index, ())):
                s, e = max(s, reach), min(e, end)
                if e > s:
                    covered += e - s
                    reach = e
            out.append(end - start - covered)
        return out

    def layer_values(self, seed_hits: int) -> dict[str, float]:
        """Per-layer sums over the spans recorded since the last reset."""
        self_time = defaultdict(float)
        whole = defaultdict(float)
        calls = defaultdict(int)
        for span, own in zip(self.spans, self.self_times()):
            self_time[span[0]] += own
            whole[span[0]] += span[2] - span[1]
            calls[span[0]] += 1
        contexts = calls["cyclotomic.make_reduction_context"]
        factorized = self.factorize_args
        values = {
            "chartab.parse_table_calls": calls["chartab.parse_table"],
            "cyclotomic.parse_cyclotomic_calls": calls["cyclotomic.parse_cyclotomic"],
            "zeta.expand_calls": calls["zeta.expand"],
            "zeta.mul_calls": self.counts["zeta.mul"],
            "cyclotomic.make_reduction_context_calls": contexts,
            "cyclotomic.residue_degree_sum": sum(self.residue_degrees),
            "cyclotomic.residue_degree_max": max(self.residue_degrees, default=0),
            "cyclotomic.reduce_cyclotomic_calls": calls["cyclotomic.reduce_cyclotomic"],
            "gf.factors_enumerated": self.factors_enumerated,
            "gf.factor_use_ratio": contexts / self.factors_enumerated if self.factors_enumerated else 0.0,
            "gf.find_irreducible_calls": calls["gf.find_irreducible"],
            "gf.seed_hits": seed_hits,
            "gf.is_irreducible_calls": self.counts["gf.is_irreducible"],
            "blocks.block_partition_calls": calls["blocks.block_partition"],
            "blocks.central_character_calls": calls["blocks.central_character"],
            "graph.build_block_graph_s": whole["graph.build_block_graph"],
            "graph.assembly_s": self_time["graph.build_block_graph"],
            "tablegen.elements_enumerated": self.elements_enumerated,
            "lietype.group_order_calls": calls["lietype.group_order"],
            "lietype.steinberg_calls": calls["lietype.steinberg"],
            "numtheory.factorize_calls": len(factorized),
            "numtheory.factorize_distinct_ratio": len(set(factorized)) / len(factorized) if factorized else 0.0,
            "numtheory.factorize_max_digits": max((len(str(n)) for n in factorized), default=0),
            "intpoly.cyclotomic_polynomial_calls": calls["intpoly.cyclotomic_polynomial"],
            "trace.spans": len(self.spans),
        }
        for _, _, name in SPANS:
            key = name + "_s"
            if key not in values:
                values[key] = self_time[name]
        return values

    def write(self, path) -> None:
        """All spans as JSON lines of [name, start, end, parent, operation]."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
