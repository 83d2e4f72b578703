"""The block graph of a finite group and its solvability-related predicates.

Vertices are the primes dividing the group order; p and q are joined when
the principal p- and q-blocks share a nontrivial irreducible character.
Each edge records a witness: the lowest nontrivial row index common to
both principal blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blocks import principal_block_rows
from .chartab import CharacterTable, prime_divisors
from .errors import VertexNotFound

__all__ = [
    "BlockGraph",
    "SolvabilityReport",
    "build_block_graph",
    "is_complete",
    "triangles_containing",
    "solvability_criterion",
    "export_dot",
]


@dataclass(frozen=True)
class BlockGraph:
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    witnesses: tuple[int, ...]  # row index per edge, aligned with edges
    witness_degrees: tuple[int, ...]

    def has_edge(self, p: int, q: int) -> bool:
        return tuple(sorted((p, q))) in self.edges

    def witness(self, p: int, q: int) -> int:
        return self.witnesses[self.edges.index(tuple(sorted((p, q))))]


def build_block_graph(table: CharacterTable) -> BlockGraph:
    """Block graph of the table's group."""
    primes = prime_divisors(table)
    rows = {p: principal_block_rows(table, p) for p in primes}

    edges = []
    witnesses = []
    degrees = []
    for i, p in enumerate(primes):
        for q in primes[i + 1 :]:
            common = (rows[p] & rows[q]) - {0}
            if common:
                witness = min(common)
                edges.append((p, q))
                witnesses.append(witness)
                degrees.append(table.row_degree(witness))
    return BlockGraph(tuple(primes), tuple(edges), tuple(witnesses), tuple(degrees))


def is_complete(graph: BlockGraph) -> bool:
    n = len(graph.vertices)
    return len(graph.edges) == n * (n - 1) // 2


def triangles_containing(graph: BlockGraph, p: int) -> list[tuple[int, int, int]]:
    """All 3-cliques through p, each sorted, in lexicographic order."""
    if p not in graph.vertices:
        raise VertexNotFound(f"{p} does not divide the group order")
    triangles = []
    others = [q for q in graph.vertices if q != p and graph.has_edge(p, q)]
    for i, q in enumerate(others):
        for r in others[i + 1 :]:
            if graph.has_edge(q, r):
                triangles.append(tuple(sorted((p, q, r))))
    return sorted(triangles)


@dataclass(frozen=True)
class SolvabilityReport:
    """Outcome of the no-triangle-through-2 criterion, applied to the table
    of G modulo its largest solvable normal subgroup."""

    group: str
    vertices: tuple[int, ...]
    triangles: tuple[tuple[int, int, int], ...]
    certified_solvable: bool
    statement: str


def solvability_criterion(quotient_table: CharacterTable) -> SolvabilityReport:
    """Evaluate the criterion: the group is solvable exactly when the block
    graph of G/S(G) has no triangle containing 2.  The caller supplies the
    table of that quotient; a triangle means solvability is not certified
    (this tool cannot check that the input really is G/S(G))."""
    graph = build_block_graph(quotient_table)
    triangles = tuple(triangles_containing(graph, 2)) if 2 in graph.vertices else ()
    if 2 not in graph.vertices:
        statement = "2 does not divide the order, so no triangle contains 2: solvable"
    elif not triangles:
        statement = "block graph has no triangle containing 2: solvable"
    else:
        listed = ", ".join("{%d,%d,%d}" % t for t in triangles)
        statement = f"block graph has a triangle containing 2 ({listed}): not certified solvable"
    return SolvabilityReport(
        group=quotient_table.name,
        vertices=graph.vertices,
        triangles=triangles,
        certified_solvable=not triangles,
        statement=statement,
    )


def export_dot(graph: BlockGraph) -> str:
    """Graphviz DOT text: primes as nodes, witness degrees as edge labels."""
    lines = ["graph block_graph {"]
    for p in graph.vertices:
        lines.append(f'  "{p}";')
    for (p, q), degree in zip(graph.edges, graph.witness_degrees):
        lines.append(f'  "{p}" -- "{q}" [label="{degree}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
