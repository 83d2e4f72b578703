"""Acceptance suite: one test per criterion, each printing a PASS line with
its timing.  Time limits are wall-clock bounds on the freshly-computed
operation (module-level caches are cleared first where they would hide the
cost being measured).
"""

import sys
import time

from blockgraph._numtheory import prime_divisors_of
from blockgraph.blocks import block_partition
from blockgraph.chartab import prime_divisors
from blockgraph.corpus import load_corpus_table
from blockgraph.errors import ConditionViolated, InvalidDescriptor
from blockgraph.graph import build_block_graph, is_complete, solvability_criterion
from blockgraph.lietype import (
    group_order,
    lie_group,
    steinberg_in_principal_block,
    table2_row,
    zsigmondy,
    zsigmondy_prime_of_Te,
)
from blockgraph._numtheory import multiplicative_order, p_part
from blockgraph.tablegen import dixon_table, enumerate_group
from ideal_oracle import oracle_partition, reduction_contexts


def _fresh_caches():
    """Clear every function cache in the loaded blockgraph modules."""
    for name, module in list(sys.modules.items()):
        if name.startswith("blockgraph.") and module is not None:
            for value in vars(module).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def _report(criterion: int, label: str, elapsed: float | None = None) -> None:
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"PASS criterion {criterion}: {label}{timing}")


class TestCriterion1CompletenessSimple:
    def test_complete_graphs_each_under_one_second(self):
        _fresh_caches()
        names = ["A5", "A6", "S5", "L2_7", "L2_11", "Sz8"]
        for name in names:
            start = time.perf_counter()
            table = load_corpus_table(name)
            graph = build_block_graph(table)
            elapsed = time.perf_counter() - start
            assert is_complete(graph), name
            assert elapsed < 1.0, (name, elapsed)
        _report(1, f"block graphs of {names} are complete, each under 1s")


class TestCriterion2J1Exception:
    def test_j1_graph_is_k6_minus_3_5(self):
        _fresh_caches()
        start = time.perf_counter()
        table = load_corpus_table("J1")
        graph = build_block_graph(table)
        elapsed = time.perf_counter() - start
        assert table.num_classes == 15
        assert graph.vertices == (2, 3, 5, 7, 11, 19)
        assert len(graph.edges) == 14
        missing = [
            (p, q)
            for i, p in enumerate(graph.vertices)
            for q in graph.vertices[i + 1 :]
            if not graph.has_edge(p, q)
        ]
        assert missing == [(3, 5)]
        assert elapsed < 5.0, elapsed
        _report(2, "J1 block graph is K6 minus the edge {3,5} (14 edges)", elapsed)


class TestCriterion3Nilpotency:
    def test_edgeless_vs_edged(self):
        for name in ("C6", "C12", "D8", "Q8"):
            assert build_block_graph(load_corpus_table(name)).edges == (), name
        for name in ("S3", "S4", "A4", "SL23"):
            assert len(build_block_graph(load_corpus_table(name)).edges) >= 1, name
        _report(3, "C6, C12, D8, Q8 edgeless; S3, S4, A4, SL(2,3) have edges")


class TestCriterion4AlternatingSymmetric:
    def test_s5_and_a6_complete(self):
        for name in ("S5", "A6"):
            assert is_complete(build_block_graph(load_corpus_table(name))), name
        _report(4, "block graphs of S5 and A6 are complete")


STEINBERG_CASES = [
    ("L2_7", ("A", 1, 7), [2, 3]),
    ("L2_11", ("A", 1, 11), [2, 3, 5]),
    ("Sz8", ("2B2", 2, 8), [5, 7, 13]),
    ("L5_2", ("A", 4, 2), [3, 5, 7, 31]),
]


class TestCriterion5SteinbergPredicate:
    def test_predicate_matches_block_membership(self):
        _fresh_caches()
        start = time.perf_counter()
        outcomes = []
        for name, (family, rank, q), ells in STEINBERG_CASES:
            table = load_corpus_table(name)
            group = lie_group(family, rank, q)
            steinberg_degree = p_part(table.group_order, group.p)
            rows = [r for r in range(table.num_classes) if table.row_degree(r) == steinberg_degree]
            assert len(rows) == 1, name
            steinberg_row = rows[0]
            for ell in ells:
                predicted = steinberg_in_principal_block(group, ell)
                observed = steinberg_row in block_partition(table, ell).principal_rows()
                assert predicted == observed, (name, ell)
                outcomes.append((str(group), ell, predicted))
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, elapsed
        negative = [(g, ell) for g, ell, verdict in outcomes if not verdict]
        assert negative == [("A4(2)", 7)]
        _report(5, f"Steinberg predicate matches block membership on {len(outcomes)} cases "
                   "(including the negative L5(2), ell=7)", elapsed)


class TestCriterion6Zsigmondy:
    def test_exhaustive_brute_force(self):
        def brute(t, n):
            for r in prime_divisors_of(t**n - 1):
                if all((t**m - 1) % r for m in range(1, n)):
                    return r
            return None

        checked = 0
        for t in range(2, 13):
            for n in range(2, 13):
                assert zsigmondy(t, n) == brute(t, n), (t, n)
                checked += 1
        _report(6, f"zsigmondy agrees with the brute-force divisor scan on {checked} pairs")


TABLE2_ROWS = [
    ("A", 1), ("B", 2), ("C", 3), ("D", 4), ("E6", 6), ("E7", 7), ("E8", 8),
    ("F4", 4), ("G2", 2), ("2A", 2), ("2A", 3), ("2D", 4), ("2E6", 6), ("3D4", 4),
    ("2B2", 2), ("2F4", 4), ("2G2", 2),
]


def _two_smallest_legal_q(family, rank):
    qs = []
    q = 2
    while len(qs) < 2:
        try:
            table2_row(lie_group(family, rank, q))
        except (InvalidDescriptor, ConditionViolated):
            pass
        else:
            qs.append(q)
        q += 1
        if q > 3000:
            raise AssertionError((family, rank))
    return qs


class TestCriterion7Table2Integrity:
    def test_every_row_at_two_smallest_q(self):
        start = time.perf_counter()
        rows_checked = 0
        for family, rank in TABLE2_ROWS:
            for q in _two_smallest_legal_q(family, rank):
                group = lie_group(family, rank, q)
                row = table2_row(group)
                order = group_order(group).value
                assert row.torus_order % row.sylow_e_order == 0, (family, rank, q)
                assert order % row.torus_order == 0, (family, rank, q)
                r = zsigmondy_prime_of_Te(group)
                if r is not None:
                    assert multiplicative_order(group.p, r) == row.ord_r_of_p, (family, rank, q)
                rows_checked += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, elapsed
        _report(7, f"|T_e| divides |T| divides |S| and Zsigmondy orders match "
                   f"on {rows_checked} instantiated rows", elapsed)


class TestCriterion8IdealIndependence:
    def test_partition_independent_of_factor_choice(self, all_corpus_names):
        start = time.perf_counter()
        cases = 0
        for name in all_corpus_names:
            table = load_corpus_table(name)
            for p in prime_divisors(table):
                contexts = reduction_contexts(table.exponent, p)
                partitions = {oracle_partition(table, p, ctx).blocks for ctx in contexts}
                assert partitions == {block_partition(table, p).blocks}, (name, p)
                cases += len(contexts)
        elapsed = time.perf_counter() - start
        _report(8, f"block partitions identical across {cases} maximal-ideal choices "
                   "over the whole corpus, and equal to the production partition", elapsed)


DIXON_ROUND_TRIP = {
    "S3": [(1, 2, 0), (1, 0, 2)],
    "A4": [(1, 2, 0, 3), (1, 0, 3, 2)],
    "S4": [(1, 2, 3, 0), (1, 0, 2, 3)],
    "A5": [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)],
    "SL23": "matrix",
}


def _sl23_generators():
    vectors = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    idx = {v: i for i, v in enumerate(vectors)}

    def action(m):
        return tuple(
            idx[((m[0][0] * a + m[0][1] * b) % 3, (m[1][0] * a + m[1][1] * b) % 3)]
            for a, b in vectors
        )

    return [action(((1, 1), (0, 1))), action(((0, -1), (1, 0)))]


class TestCriterion9DixonRoundTrip:
    def test_generated_tables_match_bundled(self):
        start = time.perf_counter()
        for name, gens in DIXON_ROUND_TRIP.items():
            if gens == "matrix":
                gens = _sl23_generators()
            bundled = load_corpus_table(name)
            generated = dixon_table(enumerate_group(gens), bundled.name)
            assert generated.irr == bundled.irr, name
            assert [(c.size, c.element_order) for c in generated.classes] == [
                (c.size, c.element_order) for c in bundled.classes
            ], name
            for p in prime_divisors(bundled):
                assert block_partition(generated, p).blocks == block_partition(bundled, p).blocks
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, elapsed
        _report(9, "Dixon regenerations of S3, A4, S4, A5, SL(2,3) match the bundled "
                   "tables and their block partitions", elapsed)


class TestCriterion10SolvabilityPredicate:
    def test_a5_not_certified_s4_solvable(self):
        a5 = solvability_criterion(load_corpus_table("A5"))
        assert not a5.certified_solvable
        assert (2, 3, 5) in a5.triangles
        s4 = solvability_criterion(load_corpus_table("S4"))
        assert s4.certified_solvable
        _report(10, "solvability criterion: A5 not certified, S4 solvable")
