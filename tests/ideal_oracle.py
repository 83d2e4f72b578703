"""Test-support oracle: block partitions modulo one explicit maximal ideal.

Two characters lie in the same p-block exactly when their central
characters agree modulo a maximal ideal over p, and the partition does not
depend on the ideal.  The program reduces modulo the radical of p, which
needs no residue field; this module keeps the per-ideal computation as the
reference the tests compare against.

GF(p^k) = F_p[y]/(f) is numpy-backed: elements are int64 coefficient
vectors of length k (constant term first), and multiplication is one
convolution plus a precomputed fold of the overflow degrees k..2k-2 back
into the basis.  find_irreducible (Rabin's test with a Frobenius matrix)
and _root_of_unity fix one maximal ideal of Z[zeta_m]; reduction_contexts
gets every other one as a Galois twist of it in the same field, so no
cyclotomic polynomial is ever factored.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from blockgraph._numtheory import (
    coprime_part,
    euler_phi,
    factorize,
    is_prime,
    multiplicative_order,
    p_adic_valuation,
)
from blockgraph.blocks import BlockPartition, central_character
from blockgraph.chartab import CharacterTable
from blockgraph.cyclotomic import Cyclotomic, _coerce
from blockgraph.errors import BlockgraphError
from poly_oracle import IntPolynomial


class ConductorMismatch(BlockgraphError):
    """Value conductor does not divide the reduction context modulus."""


# -- the residue field -------------------------------------------------------


def _trim(a: np.ndarray) -> np.ndarray:
    nz = np.nonzero(a)[0]
    return a[: nz[-1] + 1] if nz.size else a[:0]


def _poly_divmod(p: int, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = _trim(a % p).astype(np.int64)
    b = _trim(b % p).astype(np.int64)
    if b.size == 0:
        raise ZeroDivisionError
    inv_lead = pow(int(b[-1]), -1, p)
    quot = np.zeros(max(0, a.size - b.size + 1), dtype=np.int64)
    rem = a.copy()
    for i in range(rem.size - b.size, -1, -1):
        c = rem[i + b.size - 1] * inv_lead % p
        if c:
            quot[i] = c
            rem[i : i + b.size] = (rem[i : i + b.size] - c * b) % p
    return quot, _trim(rem)


def _poly_gcd(p: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a, b = _trim(a % p), _trim(b % p)
    while b.size:
        a, b = b, _poly_divmod(p, a, b)[1]
    return a


class GF:
    """The field F_p[y]/(f); f must be monic (irreducibility is the caller's
    contract, except where a plain quotient ring is explicitly wanted)."""

    def __init__(self, p: int, modulus) -> None:
        f = np.asarray(modulus, dtype=np.int64) % p
        if f[-1] != 1:
            raise ValueError("modulus must be monic")
        self.p = p
        self.k = len(f) - 1
        self.modulus = f
        # fold[j] = coefficients of y^(k+j) mod f
        k = self.k
        fold = np.zeros((max(0, k - 1), k), dtype=np.int64)
        base = (-f[:k]) % p
        row = base.copy()
        for j in range(k - 1):
            fold[j] = row
            top = int(row[k - 1])
            row = np.concatenate(([0], row[: k - 1]))
            row = (row + top * base) % p
        self._fold = fold

    def zero(self) -> np.ndarray:
        return np.zeros(self.k, dtype=np.int64)

    def one(self) -> np.ndarray:
        e = self.zero()
        e[0] = 1
        return e

    def gen(self) -> np.ndarray:
        """The class of y; needs k >= 2 (for k = 1, y is a constant)."""
        e = self.zero()
        e[1] = 1
        return e

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        c = np.convolve(a, b)
        out = c[: self.k].copy()
        if c.size > self.k:
            out += c[self.k :] @ self._fold[: c.size - self.k]
        return out % self.p

    def pow(self, a: np.ndarray, e: int) -> np.ndarray:
        result = self.one()
        base = a % self.p
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def equal(self, a: np.ndarray, b: np.ndarray) -> bool:
        return bool(np.array_equal(a % self.p, b % self.p))


def _int_to_poly(p: int, k: int, counter: int) -> np.ndarray:
    coeffs = np.zeros(k + 1, dtype=np.int64)
    for i in range(k):
        counter, coeffs[i] = divmod(counter, p)
    coeffs[k] = 1
    return coeffs


def is_irreducible(p: int, f) -> bool:
    """Rabin's test with a Frobenius matrix: f (monic, degree k) is
    irreducible iff y^(p^k) = y mod f and gcd(y^(p^(k/r)) - y, f) = 1 for
    every prime r dividing k.  Frobenius a -> a^p is F_p-linear on
    F_p[y]/(f), so one k x k matrix (columns y^(pj) mod f) turns each
    p-th power into a matrix-vector product; the gcds run only for the
    rare candidate that passes the first condition."""
    f = np.asarray(f, dtype=np.int64) % p
    k = len(f) - 1
    if k == 1:
        return True
    if f[0] == 0:
        return False
    ring = GF(p, f)
    y = ring.gen()
    step = multiplication_matrix(ring, ring.pow(y, p))
    frobenius = np.empty((k, k), dtype=np.int64)
    column = ring.one()
    for j in range(k):
        frobenius[:, j] = column
        column = step @ column % p
    checkpoints = {k // r for r in factorize(k)}
    kept = []
    power = y
    for i in range(1, k + 1):
        power = frobenius @ power % p
        if i in checkpoints:
            kept.append(power)
    if not ring.equal(power, y):
        return False
    return all(_poly_gcd(p, power - y, f).size == 1 for power in kept)


@lru_cache(maxsize=128)
def _irreducible_quadratics(p: int) -> tuple[tuple[int, int], ...]:
    if p == 2:
        return ((1, 1),)
    squares = {a * a % p for a in range(p)}
    return tuple(
        (c0, c1)
        for c1 in range(p)
        for c0 in range(1, p)
        if (c1 * c1 - 4 * c0) % p not in squares
    )


def _small_factor_screen(p: int, f: np.ndarray) -> bool:
    """True if f has a proper factor of degree at most 2."""
    coeffs = [int(c) for c in f]
    k = len(coeffs) - 1
    for a in range(p):
        value = 0
        for c in reversed(coeffs):
            value = (value * a + c) % p
        if value == 0:
            return True
    if k > 2:
        for c0, c1 in _irreducible_quadratics(p):
            hi = lo = 0
            for c in reversed(coeffs):
                hi, lo = (lo - hi * c1) % p, (c - hi * c0) % p
            if hi == 0 and lo == 0:
                return True
    return False


@lru_cache(maxsize=128)
def find_irreducible(p: int, k: int) -> tuple[int, ...]:
    """First monic irreducible of degree k over F_p in counter order.

    Counter c stands for the monic polynomial whose lower coefficients are
    the base-p digits of c (constant term first).  Candidates with a zero
    constant term or a factor of degree <= 2 are screened out cheaply; for
    k > 5 the survivors go through Rabin's test (`is_irreducible`)."""
    if k == 1:
        return (0, 1)
    counter = 1
    while True:
        if counter % p:
            f = _int_to_poly(p, k, counter)
            if not _small_factor_screen(p, f) and (
                k <= 5 or is_irreducible(p, f)
            ):
                return tuple(int(c) for c in f)
        counter += 1


def multiplication_matrix(field: GF, z: np.ndarray) -> np.ndarray:
    """Matrix of v -> z*v in the y-power basis (columns are z*y^i)."""
    k = field.k
    cols = np.zeros((k, k), dtype=np.int64)
    cols[:, 0] = z % field.p
    base = field._fold[0] if k > 1 else None
    for i in range(1, k):
        prev = cols[:, i - 1]
        top = int(prev[k - 1])
        cols[1:, i] = prev[: k - 1]
        cols[0, i] = 0
        if top:
            cols[:, i] = (cols[:, i] + top * base) % field.p
    return cols


def _element(field: GF, counter: int) -> np.ndarray:
    coeffs = np.zeros(field.k, dtype=np.int64)
    for i in range(field.k):
        counter, coeffs[i] = divmod(counter, field.p)
    return coeffs


def _root_of_unity(field: GF, order: int) -> np.ndarray:
    """Deterministic element of exact multiplicative order `order`: the
    first counter whose element, raised to the cofactor, has that order.
    Counters below p are the constants, whose powers lie in F_p* and so
    have order dividing p - 1; when `order` does not divide p - 1 the scan
    starts at p, which skips no candidate that could succeed."""
    group = field.p**field.k - 1
    if group % order:
        raise ValueError("order does not divide the group order")
    cofactor = group // order
    primes = list(factorize(order)) if order > 1 else []
    one = field.one()
    start = 1 if (field.p - 1) % order == 0 else field.p
    for counter in range(start, field.p**field.k):
        z = field.pow(_element(field, counter), cofactor)
        if order == 1:
            return z
        if not field.equal(z, one) and all(
            not field.equal(field.pow(z, order // ell), one) for ell in primes
        ):
            return z
    raise ArithmeticError("no element of the requested order")


# -- reduction modulo a maximal ideal over p ---------------------------------


@dataclass(frozen=True)
class FiniteFieldElt:
    """An element of F_p[y]/(f), as k residues mod p (constant term first)."""

    p: int
    degree: int
    coeffs: tuple[int, ...]


class ReductionContext:
    """Fixes the homomorphism Z[zeta_m] -> field = F_p[y]/(f) used to compare
    central characters mod p; zeta_{m'}, m' the p'-part of m, maps to
    zeta_bar, which must have exact order m' in the field."""

    def __init__(self, m: int, p: int, field: GF, zeta_bar: np.ndarray):
        self.p = p
        self.m = m
        self.m_prime = coprime_part(m, p)
        self.field = field
        self.modulus = tuple(int(c) for c in field.modulus)
        self.degree = field.k
        self.zeta_bar = tuple(int(c) for c in zeta_bar)
        self._power_tables: dict[int, np.ndarray] = {}

    def __repr__(self):
        f = IntPolynomial(self.modulus)
        return f"ReductionContext(p={self.p}, m={self.m}, m'={self.m_prime}, k={self.degree}, f={f})"

    def _powers_for_conductor(self, d: int) -> np.ndarray:
        table = self._power_tables.get(d)
        if table is None:
            d_prime = coprime_part(d, self.p)
            b = d // d_prime
            if d_prime == 1:
                exponent = 0
            else:
                exponent = (self.m_prime // d_prime) * pow(b % d_prime, -1, d_prime) % self.m_prime
            base = self.field.pow(np.asarray(self.zeta_bar, dtype=np.int64), exponent)
            phi_d = euler_phi(d)
            rows = np.zeros((phi_d, self.degree), dtype=np.int64)
            acc = self.field.one()
            for i in range(phi_d):
                rows[i] = acc
                acc = self.field.mul(acc, base)
            table = rows
            self._power_tables[d] = table
        return table


def make_reduction_context(m: int, p: int) -> ReductionContext:
    """Context for one maximal ideal over p in Z[zeta_m]: the residue field
    is F_p[y]/(f), f = find_irreducible(p, k) with k = ord_{m'}(p), and
    zeta_bar is its first primitive m'-th root of unity in counter order.
    The block partition does not depend on the ideal (tested against every
    ideal through reduction_contexts)."""
    if m < 1:
        raise ValueError("conductor must be positive")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    m_prime = coprime_part(m, p)
    field = GF(p, find_irreducible(p, multiplicative_order(p, m_prime)))
    return ReductionContext(m, p, field, _root_of_unity(field, m_prime))


def reduction_contexts(m: int, p: int) -> list[ReductionContext]:
    """Every maximal ideal over p in Z[zeta_m], one context each; the
    oracle for the ideal-independence checks.  The homomorphisms into the
    residue field of make_reduction_context are zeta_{m'} -> zeta_bar^s for
    the units s mod m', and two share a kernel exactly when their s differ
    by a power of p (Frobenius), so one s per orbit gives each ideal once.
    For m' = 1 the one unit is s = 0."""
    base = make_reduction_context(m, p)
    field, m_prime = base.field, base.m_prime
    zeta_bar = np.asarray(base.zeta_bar, dtype=np.int64)
    seen: set[int] = set()
    contexts = []
    for s in range(m_prime):
        if s in seen or gcd(s, m_prime) != 1:
            continue
        t = s
        while t not in seen:
            seen.add(t)
            t = t * p % m_prime
        contexts.append(ReductionContext(m, p, field, field.pow(zeta_bar, s)))
    return contexts


def reduce_cyclotomic(a: Cyclotomic, ctx: ReductionContext) -> FiniteFieldElt:
    """Image of a under the context's ring homomorphism."""
    a = _coerce(a)
    if ctx.m % a.conductor:
        raise ConductorMismatch(f"conductor {a.conductor} does not divide m = {ctx.m}")
    table = ctx._powers_for_conductor(a.conductor)
    vec = np.asarray(a.coeffs, dtype=object) % ctx.p
    image = (vec.astype(np.int64) @ table) % ctx.p
    return FiniteFieldElt(ctx.p, ctx.degree, tuple(int(c) for c in image))


# -- the block partition under one ideal --------------------------------------


def oracle_partition(table: CharacterTable, p: int, ctx: ReductionContext) -> BlockPartition:
    """Rows grouped by their central characters reduced through ctx."""
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
