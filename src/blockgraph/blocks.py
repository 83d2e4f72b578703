"""p-block distribution of the irreducible characters of a finite group.

Two irreducible characters lie in the same p-block exactly when their
central characters omega(K) = |K| chi(g_K) / chi(1) agree on every class
after reduction modulo a maximal ideal over p.  The partition does not
depend on the ideal, so the congruence is decided modulo all of them at
once, that is, modulo the radical of p.  Each class column is reduced at
its own conductor c = p^a c': Z[zeta_c]/rad(p) is F_p[x]/(Phi_{c'}), with
zeta_c -> x, because Phi_c = Phi_{c'}^{phi(p^a)} mod p and Phi_{c'} is
squarefree mod p.  No irreducible polynomial or residue field is needed.
The reduction runs in Python ints, so this module needs no numpy.  Rows
whose column images all agree form one block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import lcm

from ._numtheory import coprime_part, is_prime, p_adic_valuation
from .chartab import CharacterTable
from .cyclotomic import Cyclotomic, cyc_div_by_int
from .intpoly import cyclotomic_polynomial

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


@lru_cache(maxsize=128)
def _central_characters(table: CharacterTable) -> tuple[CentralCharacter, ...]:
    return tuple(central_character(table, row) for row in range(table.num_classes))


def _radical_images(values: list[Cyclotomic], p: int) -> list[list[int]]:
    """Images of the values in Z[zeta_c]/rad(p) = F_p[x]/(Phi_{c'}), c the
    lcm of their conductors: one list of phi(c') residues per value."""
    c = lcm(*(value.conductor for value in values))
    c_prime = coprime_part(c, p)
    phi = cyclotomic_polynomial(c_prime)
    n = len(phi) - 1
    tail = [(j, coeff) for j, coeff in enumerate(phi[:n]) if coeff]
    images = []
    for value in values:
        stride = c // value.conductor
        image = [0] * c_prime
        for i, coeff in enumerate(value.coeffs):
            image[i * stride % c_prime] += coeff
        for d in range(c_prime - 1, n - 1, -1):
            # x^d = x^(d-n) x^n and x^n = -tail(x), Phi_{c'} being monic
            top = image[d] % p
            if top:
                for j, coeff in tail:
                    image[d - n + j] -= top * coeff
        images.append([coeff % p for coeff in image[:n]])
    return images


def block_partition(table: CharacterTable, p: int) -> BlockPartition:
    """Partition of the rows into p-blocks.  p need not divide the group
    order (then every block is a defect-0 singleton)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    n = table.num_classes
    if table.group_order % p:
        # every character of a p'-group has defect 0, so it is a block by itself
        return BlockPartition(p, tuple((row,) for row in range(n)), 0, (0,) * n)
    if p >= 2**31:
        # a group whose order p divides has at least 2 sqrt(p - 1) classes
        # (Maroti 2016), over 92 000 at p = 2^31, so no genuine table reaches this
        raise ValueError(f"{p} divides the group order but is not below 2^31")
    omegas = _central_characters(table)
    columns = [_radical_images([omega.values[k] for omega in omegas], p) for k in range(n)]
    groups: dict[tuple, list[int]] = {}
    for row, images in enumerate(zip(*columns)):
        groups.setdefault(tuple(chain.from_iterable(images)), []).append(row)

    blocks = tuple(tuple(rows) for rows in groups.values())
    principal_index = next(i for i, b in enumerate(blocks) if 0 in b)
    nu_order = p_adic_valuation(table.group_order, p)
    defects = tuple(
        nu_order - min(p_adic_valuation(table.row_degree(r), p) for r in block)
        for block in blocks
    )
    return BlockPartition(p, blocks, principal_index, defects)


def principal_block_rows(table: CharacterTable, p: int) -> frozenset[int]:
    """Row indices of the characters in the principal p-block."""
    return block_partition(table, p).principal_rows()
