"""The three workloads: their fixed inputs, the seeded variation of those
inputs, one operation per input, and the CLI calls drawn from each.

Nothing here imports blockgraph at module level, so the set-up probe can
import this file before it starts its clock.  Operations reach the program
through module attributes at call time, which lets the traced run swap in
its wrappers without touching the package.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# -- graph_tables ---------------------------------------------------------------


def load_corpus_bytes() -> dict[str, bytes]:
    """Every bundled table as raw bytes, found through the corpus layer."""
    from blockgraph import corpus

    return {name: corpus.corpus_path(name).read_bytes() for name in corpus.corpus_names()}


def shuffle_table_document(data: bytes, rng: random.Random) -> bytes:
    """The same table with its classes and characters listed in a random
    order, so the parser has to canonicalize instead of reading a table
    that is already in canonical order."""
    doc = json.loads(data)
    n = len(doc["classes"])
    cols = list(range(n))
    rows = list(range(n))
    rng.shuffle(cols)
    rng.shuffle(rows)
    doc["classes"] = [doc["classes"][c] for c in cols]
    doc["irr"] = [[doc["irr"][r][c] for c in cols] for r in rows]
    return json.dumps(doc).encode("utf-8")


def graph_table_op(bg, data: bytes):
    table = bg.chartab.parse_table(data)
    return table, bg.graph.build_block_graph(table)


GRAPH_TABLES_CLI = [
    ["graph", "J1", "--json"],
    ["graph", "L5_2", "--json"],
    ["graph", "Sz8", "--dot"],
    ["blocks", "A6", "-p", "3"],
    ["psolv", "S4", "-p", "2", "--json"],
    ["validate", "L2_11"],
]

# -- dixon_ladder -----------------------------------------------------------------

SYMMETRIC_DEGREES = (5, 6, 7, 8)
PSL2_PRIMES = (13, 17, 19, 23, 29, 31)


def symmetric_generators(n: int) -> list[tuple[int, ...]]:
    """The transposition (0 1) and the n-cycle (0 1 ... n-1)."""
    return [(1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)]


def psl2_generators(p: int) -> list[tuple[int, ...]]:
    """x -> x + 1 and x -> -1/x on the projective line {0, ..., p-1, oo},
    with oo written as the point p."""
    inf = p

    def translate(x):
        return inf if x == inf else (x + 1) % p

    def invert(x):
        if x == inf:
            return 0
        if x == 0:
            return inf
        return -pow(x, -1, p) % p

    points = range(p + 1)
    return [tuple(translate(x) for x in points), tuple(invert(x) for x in points)]


@dataclass(frozen=True)
class PermGroupInput:
    name: str
    kind: str  # "S" or "L2"
    param: int  # n for S_n, p for PSL(2, p)
    generators: tuple[tuple[int, ...], ...]


def ladder_groups() -> list[PermGroupInput]:
    groups = [
        PermGroupInput(f"S{n}", "S", n, tuple(symmetric_generators(n)))
        for n in SYMMETRIC_DEGREES
    ]
    groups += [
        PermGroupInput(f"L2({p})", "L2", p, tuple(psl2_generators(p))) for p in PSL2_PRIMES
    ]
    return groups


def relabel(group: PermGroupInput, rng: random.Random) -> PermGroupInput:
    """The same group acting on relabelled points: each generator g becomes
    s g s^-1 for a random permutation s, so enumeration order and class
    representatives change while the group does not."""
    degree = len(group.generators[0])
    s = list(range(degree))
    rng.shuffle(s)
    gens = []
    for g in group.generators:
        out = [0] * degree
        for x in range(degree):
            out[s[x]] = s[g[x]]
        gens.append(tuple(out))
    return PermGroupInput(group.name, group.kind, group.param, tuple(gens))


def dixon_op(bg, group: PermGroupInput):
    enumerated = bg.tablegen.enumerate_group(group.generators)
    table = bg.tablegen.dixon_table(enumerated, group.name)
    text = bg.chartab.print_table(table)
    parsed = bg.chartab.parse_table(text)
    return enumerated.order, text, parsed, bg.graph.build_block_graph(parsed)


# Groups whose generator files the CLI calls read, and the tables they graph.
DIXON_CLI_GROUPS = ("S6", "L2(13)", "L2(23)")
DIXON_CLI_GRAPHED = ("S6", "L2(23)")


def dixon_file_stem(name: str) -> str:
    return name.replace("(", "_").replace(")", "")


def dixon_cli_argvs(workdir: Path) -> list[list[str]]:
    argvs = [["dixon", str(workdir / f"{dixon_file_stem(n)}.gens.json")] for n in DIXON_CLI_GROUPS]
    argvs += [
        ["graph", str(workdir / f"{dixon_file_stem(n)}.table.json"), "--json"]
        for n in DIXON_CLI_GRAPHED
    ]
    return argvs


def write_generator_file(workdir: Path, group: PermGroupInput) -> None:
    doc = {
        "name": group.name,
        "degree": len(group.generators[0]),
        "generators": [list(g) for g in group.generators],
    }
    (workdir / f"{dixon_file_stem(group.name)}.gens.json").write_text(json.dumps(doc))


# -- lie_sweep -------------------------------------------------------------------


def _is_prime_power(q: int) -> bool:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    while q % p == 0:
        q //= p
    return q == 1


SMALL_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19)


def lie_descriptors() -> list[tuple[str, int, int]]:
    """About 200 simple groups of Lie type as (family, rank, q)."""
    out = [("A", 1, q) for q in range(4, 257) if _is_prime_power(q)]
    out += [("A", n, q) for n in range(2, 11) for q in (2, 3, 4, 5)]
    for family, rank in (("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("2E6", 6), ("3D4", 4)):
        out += [(family, rank, q) for q in SMALL_Q]
    out += [("G2", 2, q) for q in SMALL_Q if q != 2]  # G2(2) is not simple
    out += [("2A", n, q) for n in range(2, 6) for q in (2, 3, 4, 5) if (n, q) != (2, 2)]
    out += [("2D", n, q) for n in (4, 5) for q in (2, 3, 4, 5)]
    out += [("2B2", 2, q) for q in (8, 32, 128, 512)]
    out += [("2G2", 2, q) for q in (27, 243, 2187)]
    out += [("2F4", 4, q) for q in (8, 32)]
    return out


@dataclass(frozen=True)
class LieResult:
    order: int
    factors: dict[int, int]
    # ell -> (e_ell(q), Steinberg character in the principal ell-block)
    verdicts: dict[int, tuple[int, bool]]
    # e -> smallest Zsigmondy prime of q^e - 1, or None
    zsigmondy: dict[int, int | None]
    # the data-table row, or None when its side conditions exclude the group
    table2: object


def lie_op(bg, descriptor: tuple[str, int, int]) -> LieResult:
    lietype = bg.lietype
    family, rank, q = descriptor
    group = lietype.lie_group(family, rank, q)
    factored = lietype.group_order(group)
    verdicts = {}
    for ell in factored.factors:
        if ell != group.p:
            verdicts[ell] = (
                lietype.e_of(ell, q),
                lietype.steinberg_in_principal_block(group, ell),
            )
    zsig = {e: lietype.zsigmondy(q, e) for e in sorted({e for e, _ in verdicts.values()}) if e >= 2}
    try:
        row = lietype.table2_row(group)
    except bg.errors.ConditionViolated:
        row = None
    return LieResult(factored.value, dict(factored.factors), verdicts, zsig, row)


LIE_CLI = [
    ["order", "--family", "E8", "--rank", "8", "--q", "16"],
    ["steinberg", "--family", "E8", "--rank", "8", "--q", "16", "--ell", "7"],
    ["steinberg", "--family", "A", "--rank", "4", "--q", "2", "--ell", "7"],
    ["zsigmondy", "-t", "2", "-n", "6"],
    ["order", "--family", "2B2", "--rank", "2", "--q", "8"],
    ["regnum", "--family", "E8", "--rank", "8", "--e", "30"],
]


# -- the table the runner reads -------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    load: object  # () -> raw inputs; what the set-up probe times
    vary: object  # (raw, rng) -> [(op name, input)]; seeded, untimed
    op: object  # (bg, input) -> output
    light: object  # (input) -> bool; decided from the input alone, never from a time
    light_rounds: int  # extra rounds over the light operations in each pass


# A workload's light operations cost little next to its heaviest ones (J1,
# L5(2), PSL(2,p) for p >= 23, S8, E7 and E8), so a pass that ran each of
# them once would give each only a handful of samples per run.  The extra
# rounds give their medians several times as many at a small cost.


def _light_table(data: bytes) -> bool:
    return json.loads(data)["order"] < 100_000


def _light_group(group: PermGroupInput) -> bool:
    if group.kind == "S":
        order = math.factorial(group.param)
    else:
        order = group.param * (group.param**2 - 1) // 2
    return order <= 5040


def _light_descriptor(descriptor: tuple[str, int, int]) -> bool:
    return descriptor[0] not in ("E7", "E8")


def _vary_tables(raw, rng):
    names = sorted(raw)
    rng.shuffle(names)
    return [(n, shuffle_table_document(raw[n], rng)) for n in names]


def _vary_groups(raw, rng):
    groups = [relabel(g, rng) for g in raw]
    rng.shuffle(groups)
    return [(g.name, g) for g in groups]


def lie_name(family: str, rank: int, q: int) -> str:
    return f"{family}{rank}({q})" if family in ("A", "2A", "2D") else f"{family}({q})"


def _vary_descriptors(raw, rng):
    items = list(raw)
    rng.shuffle(items)
    return [(lie_name(*d), d) for d in items]


WORKLOADS = {
    "graph_tables": Workload(
        "graph_tables", load_corpus_bytes, _vary_tables, graph_table_op, _light_table, 6
    ),
    "dixon_ladder": Workload(
        "dixon_ladder", ladder_groups, _vary_groups, dixon_op, _light_group, 2
    ),
    "lie_sweep": Workload(
        "lie_sweep", lie_descriptors, _vary_descriptors, lie_op, _light_descriptor, 8
    ),
}
