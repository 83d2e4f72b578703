"""Command-line entry point.

Subcommands: validate, blocks, graph, psolv, solvable (table analysis),
steinberg, regnum, zsigmondy, order (Lie-type number theory), and dixon
(character table of a permutation group).  Output is JSON by default
(deterministic byte-for-byte), DOT or plain text on request; diagnostics
go to stderr.  Exit codes: 0 success, 2 validation failure, 3 parse or
usage error, or input past a work bound (a group larger than --bound, a
factorization past its budget of rho steps).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import graph as graphmod
from . import lietype
from .blocks import block_partition
from .chartab import parse_table, print_table
from .corpus import resolve_table_path
from .errors import BlockgraphError, CycParseError, ValidationError
from .graph import build_block_graph, export_dot, is_complete, triangles_containing

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PARSE = 3


def _emit(document) -> None:
    sys.stdout.write(json.dumps(document, indent=1) + "\n")


def _load(spec: str):
    path = resolve_table_path(spec)
    return parse_table(path.read_bytes())


def _cmd_validate(args) -> int:
    path = resolve_table_path(args.table)
    try:
        parse_table(path.read_bytes())
    except ValidationError as exc:
        _emit({"table": str(path), "valid": False, "violations": exc.violations})
        return EXIT_VALIDATION
    # parse_table has run the full validator, so the table is valid here
    _emit({"table": str(path), "valid": True, "violations": []})
    return EXIT_OK


def _cmd_blocks(args) -> int:
    table = _load(args.table)
    partition = block_partition(table, args.prime)
    _emit(
        {
            "group": table.name,
            "prime": partition.prime,
            "blocks": [
                {
                    "rows": list(block),
                    "degrees": [table.row_degree(r) for r in block],
                    "defect": defect,
                    "principal": i == partition.principal_index,
                }
                for i, (block, defect) in enumerate(zip(partition.blocks, partition.defects))
            ],
        }
    )
    return EXIT_OK


def _graph_document(table, g) -> dict:
    return {
        "group": table.name,
        "vertices": list(g.vertices),
        "edges": [list(e) for e in g.edges],
        "witnesses": [
            {"edge": list(e), "row": w, "degree": d}
            for e, w, d in zip(g.edges, g.witnesses, g.witness_degrees)
        ],
        "complete": is_complete(g),
    }


def _cmd_graph(args) -> int:
    table = _load(args.table)
    g = build_block_graph(table)
    if args.dot:
        sys.stdout.write(export_dot(g))
    elif args.json_out:
        _emit(_graph_document(table, g))
    else:
        shape = "complete" if is_complete(g) else "incomplete"
        sys.stdout.write(
            f"block graph of {table.name}: vertices {list(g.vertices)}, "
            f"{len(g.edges)} edges, {shape}\n"
        )
    return EXIT_OK


def _cmd_psolv(args) -> int:
    table = _load(args.table)
    g = build_block_graph(table)
    triangles = triangles_containing(g, args.prime)
    if triangles:
        statement = (
            f"block graph of {table.name} has a triangle containing {args.prime}: "
            "the p-solvability criterion does not apply"
        )
    else:
        statement = (
            f"block graph of {table.name} has no triangle containing {args.prime}: "
            f"the group is {args.prime}-solvable"
        )
    if args.json_out:
        _emit(
            {
                "group": table.name,
                "prime": args.prime,
                "triangles": [list(t) for t in triangles],
                "p_solvable_certified": not triangles,
                "statement": statement,
            }
        )
    else:
        sys.stdout.write(statement + "\n")
    return EXIT_OK


def _cmd_solvable(args) -> int:
    table = _load(args.table)
    report = graphmod.solvability_criterion(table)
    if args.json_out:
        _emit(
            {
                "group": report.group,
                "vertices": list(report.vertices),
                "triangles": [list(t) for t in report.triangles],
                "certified_solvable": report.certified_solvable,
                "statement": report.statement,
            }
        )
    else:
        sys.stdout.write(report.statement + "\n")
    return EXIT_OK


def _cmd_steinberg(args) -> int:
    group = lietype.lie_group(args.family, args.rank, args.q)
    e = lietype.e_of(args.ell, group.q)
    verdict = lietype.steinberg_in_principal_block(group, args.ell)
    _emit(
        {
            "group": str(group),
            "ell": args.ell,
            "e": e,
            "regular": verdict,
            "in_principal_block": verdict,
            "explanation": (
                f"e = e_{args.ell}({group.q}) = {e} is "
                f"{'a regular' if verdict else 'not a regular'} number of {group}, so the "
                f"Steinberg character {'lies' if verdict else 'does not lie'} in the "
                f"principal {args.ell}-block"
            ),
        }
    )
    return EXIT_OK


def _cmd_regnum(args) -> int:
    lietype.check_rank(args.family, args.rank)
    verdict = lietype.is_regular(args.family, args.rank, args.e)
    _emit(
        {
            "family": args.family,
            "rank": args.rank,
            "e": args.e,
            "regular": verdict,
            "explanation": f"{args.e} is {'a regular' if verdict else 'not a regular'} "
            f"number of {args.family} at rank {args.rank}",
        }
    )
    return EXIT_OK


def _cmd_zsigmondy(args) -> int:
    prime = lietype.zsigmondy(args.t, args.n)
    _emit(
        {
            "t": args.t,
            "n": args.n,
            "prime": prime,
            "explanation": (
                f"{prime} divides {args.t}^{args.n}-1 and no smaller {args.t}^m-1"
                if prime is not None
                else f"{args.t}^{args.n}-1 has no Zsigmondy prime (exception case)"
            ),
        }
    )
    return EXIT_OK


def _cmd_order(args) -> int:
    group = lietype.lie_group(args.family, args.rank, args.q)
    factored = lietype.group_order(group)
    _emit(
        {
            "group": str(group),
            "order": factored.value,
            "factorization": {str(p): e for p, e in factored.factors.items()},
            "explanation": f"|{group}| = "
            + " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in factored.factors.items()),
        }
    )
    return EXIT_OK


def _cmd_dixon(args) -> int:
    # tablegen needs numpy, which no other command loads
    from .tablegen import dixon_table, enumerate_group

    with open(args.permgroup, "rb") as fh:
        document = json.loads(fh.read().decode("utf-8"))
    if not isinstance(document, dict) or "generators" not in document:
        raise CycParseError("permutation group document needs a 'generators' key")
    raw = document["generators"]
    if not isinstance(raw, list) or not all(
        isinstance(g, list) and all(type(x) is int for x in g) for g in raw
    ):
        raise CycParseError("'generators' must be a list of lists of integers")
    name = document.get("name", "G")
    if not isinstance(name, str):
        raise CycParseError("'name' must be a string")
    generators = [tuple(g) for g in raw]
    degree = document.get("degree", len(generators[0]) if generators else 0)
    if any(len(g) != degree for g in generators):
        raise CycParseError("generator length does not match the stated degree")
    group = enumerate_group(generators, bound=args.bound)
    table = dixon_table(group, name)
    sys.stdout.write(print_table(table))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockgraph",
        description="p-blocks, block graphs, and Lie-type block number theory "
        "from finite-group character tables",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def table_cmd(name, help_text, func, prime_flag=False):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("table", help="table file path or bundled corpus name")
        if prime_flag:
            cmd.add_argument("-p", "--prime", type=int, required=True)
        cmd.add_argument("--json", dest="json_out", action="store_true", help="emit JSON")
        cmd.set_defaults(func=func)
        return cmd

    cmd = table_cmd("validate", "check a character table document", _cmd_validate)
    cmd = table_cmd("blocks", "p-block partition of a table", _cmd_blocks, prime_flag=True)
    cmd = table_cmd("graph", "block graph of a table", _cmd_graph)
    cmd.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    table_cmd("psolv", "triangles through p and the p-solvability criterion", _cmd_psolv,
              prime_flag=True)
    table_cmd("solvable", "solvability criterion on the table of G/S(G)", _cmd_solvable)

    cmd = sub.add_parser("steinberg", help="Steinberg principal-block membership")
    cmd.add_argument("--family", required=True, choices=lietype.FAMILIES)
    cmd.add_argument("--rank", type=int, required=True)
    cmd.add_argument("--q", type=int, required=True)
    cmd.add_argument("--ell", type=int, required=True)
    cmd.set_defaults(func=_cmd_steinberg)

    cmd = sub.add_parser("regnum", help="regular-number test")
    cmd.add_argument("--family", required=True, choices=lietype.FAMILIES)
    cmd.add_argument("--rank", type=int, required=True)
    cmd.add_argument("--e", type=int, required=True)
    cmd.set_defaults(func=_cmd_regnum)

    cmd = sub.add_parser("zsigmondy", help="Zsigmondy prime of t^n - 1")
    cmd.add_argument("-t", type=int, required=True)
    cmd.add_argument("-n", type=int, required=True)
    cmd.set_defaults(func=_cmd_zsigmondy)

    cmd = sub.add_parser("order", help="order of a simple group of Lie type")
    cmd.add_argument("--family", required=True, choices=lietype.FAMILIES)
    cmd.add_argument("--rank", type=int, required=True)
    cmd.add_argument("--q", type=int, required=True)
    cmd.set_defaults(func=_cmd_order)

    cmd = sub.add_parser("dixon", help="character table of a permutation group")
    cmd.add_argument("permgroup", help="JSON file with degree and generators")
    cmd.add_argument("--bound", type=int, default=10**6)
    cmd.set_defaults(func=_cmd_dixon)
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (BlockgraphError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
