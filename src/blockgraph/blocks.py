"""p-block distribution of the irreducible characters of a finite group.

Two irreducible characters lie in the same p-block exactly when their
central characters omega(K) = |K| chi(g_K) / chi(1) agree on every class
after reduction modulo a maximal ideal over p.  The reduction context is
built at M, the lcm of the conductors of the table's values: one ideal
of Z[zeta_M], fixed by _gf.find_irreducible and a primitive M'-th root of
unity in the residue field.  Rows with equal reduction fingerprints form
one block.  The partition provably does not depend on the ideal chosen;
the test suite checks that by running _partition under every ideal at the
group exponent, as enumerated by cyclotomic.reduction_contexts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lcm

from ._numtheory import p_adic_valuation
from .chartab import CharacterTable
from .cyclotomic import (
    Cyclotomic,
    ReductionContext,
    cyc_div_by_int,
    make_reduction_context,
    reduce_cyclotomic,
)

__all__ = [
    "CentralCharacter",
    "BlockPartition",
    "central_character",
    "block_partition",
    "principal_block_rows",
]


@dataclass(frozen=True)
class CentralCharacter:
    """omega_chi(K) = |K| chi(g_K) / chi(1), one value per class."""

    values: tuple[Cyclotomic, ...]


@dataclass(frozen=True)
class BlockPartition:
    prime: int
    blocks: tuple[tuple[int, ...], ...]
    principal_index: int
    defects: tuple[int, ...]

    def block_of_row(self, row: int) -> int:
        for i, block in enumerate(self.blocks):
            if row in block:
                return i
        raise ValueError(f"row {row} outside the partition")

    def principal_rows(self) -> frozenset[int]:
        return frozenset(self.blocks[self.principal_index])


def central_character(table: CharacterTable, row: int) -> CentralCharacter:
    """Exact central character of one row; integrality is certified by the
    coefficientwise division (a failure means the table is corrupt)."""
    degree = table.row_degree(row)
    values = tuple(
        cyc_div_by_int(cls.size * value, degree)
        for cls, value in zip(table.classes, table.irr[row])
    )
    return CentralCharacter(values)


@lru_cache(maxsize=256)
def _partition_cached(table: CharacterTable, p: int) -> BlockPartition:
    conductor = lcm(*(value.conductor for row in table.irr for value in row))
    return _partition(table, p, make_reduction_context(conductor, p))


def _partition(table: CharacterTable, p: int, ctx: ReductionContext) -> BlockPartition:
    groups: dict[tuple, list[int]] = {}
    for row in range(table.num_classes):
        omega = central_character(table, row)
        fingerprint = tuple(reduce_cyclotomic(v, ctx) for v in omega.values)
        groups.setdefault(fingerprint, []).append(row)

    blocks = tuple(tuple(rows) for rows in sorted(groups.values(), key=lambda b: b[0]))
    principal_index = next(i for i, b in enumerate(blocks) if 0 in b)
    nu_order = p_adic_valuation(table.group_order, p)
    defects = tuple(
        nu_order - min(p_adic_valuation(table.row_degree(r), p) for r in block)
        for block in blocks
    )
    return BlockPartition(p, blocks, principal_index, defects)


def block_partition(table: CharacterTable, p: int) -> BlockPartition:
    """Partition of the rows into p-blocks.  p need not divide the group
    order (then every block is a defect-0 singleton)."""
    return _partition_cached(table, p)


def principal_block_rows(table: CharacterTable, p: int) -> frozenset[int]:
    """Row indices of the characters in the principal p-block."""
    return block_partition(table, p).principal_rows()
