import json

import pytest

from blockgraph.blocks import principal_block_rows
from blockgraph.chartab import parse_table
from blockgraph.corpus import corpus_path
from blockgraph.errors import VertexNotFound
from blockgraph.graph import (
    build_block_graph,
    export_dot,
    is_complete,
    solvability_criterion,
    triangles_containing,
)

TRIVIAL_DOC = json.dumps(
    {"name": "1", "order": 1, "classes": [{"size": 1, "order": 1}], "irr": [[1]]}
)


class TestBuild:
    def test_c6_edgeless(self, corpus):
        g = build_block_graph(corpus("C6"))
        assert g.vertices == (2, 3) and g.edges == ()

    def test_s3_single_edge_with_sign_witness(self, corpus):
        table = corpus("S3")
        g = build_block_graph(table)
        assert g.edges == ((2, 3),)
        assert table.row_degree(g.witness(2, 3)) == 1
        assert g.witness(2, 3) != 0  # the sign character, not the trivial one

    def test_a5_complete(self, corpus):
        g = build_block_graph(corpus("A5"))
        assert g.vertices == (2, 3, 5) and is_complete(g)

    def test_witnesses_lie_in_both_principal_blocks(self, corpus):
        for name in ("A5", "S4", "L2_7", "Sz8"):
            table = corpus(name)
            g = build_block_graph(table)
            for (p, q), witness in zip(g.edges, g.witnesses):
                assert witness != 0
                assert witness in principal_block_rows(table, p)
                assert witness in principal_block_rows(table, q)

    def test_graph_invariant_under_table_shuffle(self, corpus):
        data = json.loads(corpus_path("L2_7").read_text())
        perm_rows = [5, 2, 0, 4, 1, 3]
        perm_cols = [3, 0, 5, 1, 4, 2]
        data["irr"] = [[data["irr"][r][c] for c in perm_cols] for r in perm_rows]
        data["classes"] = [data["classes"][c] for c in perm_cols]
        shuffled = parse_table(json.dumps(data))
        assert build_block_graph(shuffled) == build_block_graph(corpus("L2_7"))


class TestNilpotencySeparation:
    def test_nilpotent_tables_are_edgeless(self, corpus):
        for name in ("C6", "C12", "D8", "Q8"):
            assert build_block_graph(corpus(name)).edges == (), name

    def test_non_nilpotent_tables_have_an_edge(self, corpus):
        for name in ("S3", "S4", "A4", "SL23"):
            assert len(build_block_graph(corpus(name)).edges) >= 1, name


class TestDefiningPrimeAdjacency:
    def test_full_degree(self, corpus):
        for name, p in [("L2_7", 7), ("L2_11", 11), ("Sz8", 2), ("L5_2", 2)]:
            table = corpus(name)
            g = build_block_graph(table)
            others = [q for q in g.vertices if q != p]
            assert all(g.has_edge(p, q) for q in others), name


class TestTriangles:
    def test_a5(self, corpus):
        g = build_block_graph(corpus("A5"))
        assert triangles_containing(g, 2) == [(2, 3, 5)]

    def test_s4_no_triangle_possible(self, corpus):
        g = build_block_graph(corpus("S4"))
        assert triangles_containing(g, 2) == []

    def test_c6_edgeless(self, corpus):
        g = build_block_graph(corpus("C6"))
        assert triangles_containing(g, 3) == []

    def test_vertex_not_found(self, corpus):
        g = build_block_graph(corpus("A5"))
        with pytest.raises(VertexNotFound):
            triangles_containing(g, 7)

    def test_lexicographic_order(self, corpus):
        g = build_block_graph(corpus("J1"))
        triangles = triangles_containing(g, 2)
        assert triangles == sorted(triangles)
        assert all(t[0] < t[1] < t[2] for t in triangles)


class TestSolvabilityCriterion:
    def test_trivial_group(self):
        report = solvability_criterion(parse_table(TRIVIAL_DOC))
        assert report.certified_solvable and report.triangles == ()

    def test_a5_not_certified(self, corpus):
        report = solvability_criterion(corpus("A5"))
        assert not report.certified_solvable
        assert (2, 3, 5) in report.triangles
        assert "not certified" in report.statement

    def test_s3_solvable(self, corpus):
        report = solvability_criterion(corpus("S3"))
        assert report.certified_solvable

    def test_s4_solvable(self, corpus):
        assert solvability_criterion(corpus("S4")).certified_solvable

    def test_odd_order_note(self):
        doc = json.dumps(
            {
                "name": "C3",
                "order": 3,
                "classes": [
                    {"size": 1, "order": 1},
                    {"size": 1, "order": 3},
                    {"size": 1, "order": 3},
                ],
                "irr": [
                    [1, 1, 1],
                    [1, "E(3)", "E(3)^2"],
                    [1, "E(3)^2", "E(3)"],
                ],
            }
        )
        report = solvability_criterion(parse_table(doc))
        assert report.certified_solvable
        assert "2 does not divide" in report.statement


class TestFreshGroupPipeline:
    def test_l2_13_from_scratch(self):
        """Generate PSL(2,13) from projective-line permutations and run the
        whole pipeline: the block graph of a simple group must be complete
        and the Steinberg membership predicate must match the table."""
        from blockgraph._numtheory import p_part
        from blockgraph.blocks import block_partition
        from blockgraph.chartab import validate
        from blockgraph.lietype import lie_group, steinberg_in_principal_block
        from blockgraph.tablegen import dixon_table, enumerate_group

        q = 13

        def neg_inv(x):
            if x == q:
                return 0
            if x == 0:
                return q
            return (-pow(x, -1, q)) % q

        translate = tuple((x + 1) % q if x != q else q for x in range(q + 1))
        invert = tuple(neg_inv(x) for x in range(q + 1))
        group = enumerate_group([translate, invert])
        assert group.order == 1092
        table = dixon_table(group, "L2(13)")
        assert validate(table) == []
        assert sorted(table.degrees()) == [1, 7, 7, 12, 12, 12, 13, 14, 14]
        g = build_block_graph(table)
        assert g.vertices == (2, 3, 7, 13) and is_complete(g)
        descriptor = lie_group("A", 1, 13)
        steinberg = next(
            r for r in range(table.num_classes)
            if table.row_degree(r) == p_part(table.group_order, 13)
        )
        for ell in (2, 3, 7):
            predicted = steinberg_in_principal_block(descriptor, ell)
            assert predicted == (steinberg in block_partition(table, ell).principal_rows())


class TestDot:
    def test_edgeless(self, corpus):
        dot = export_dot(build_block_graph(corpus("C6")))
        assert dot.count('"2";') == 1 and dot.count('"3";') == 1 and "--" not in dot

    def test_a5(self, corpus):
        dot = export_dot(build_block_graph(corpus("A5")))
        assert dot.count("--") == 3

    def test_deterministic(self, corpus):
        g = build_block_graph(corpus("S4"))
        assert export_dot(g) == export_dot(g)
