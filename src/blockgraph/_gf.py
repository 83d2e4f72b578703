"""Arithmetic in GF(p^k) = F_p[y]/(f), numpy-backed.

Elements are int64 coefficient vectors of length k (constant term first).
Multiplication is one convolution plus a precomputed fold of the overflow
degrees k..2k-2 back into the basis, so products cost O(k^2) C-side work.

Also provides what reduction contexts need on top of the field itself: a
deterministic irreducible-polynomial search (Rabin's test with a Frobenius
matrix) and roots of unity of exact order, which together fix the one
maximal ideal the block computation reduces modulo.  The other maximal
ideals come from powers of that root in the same field, so no cyclotomic
polynomial is ever factored.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ._numtheory import factorize


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
