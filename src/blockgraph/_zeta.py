"""Prime-power tensor-basis engine for exact root-of-unity arithmetic.

Z[zeta_n] factors as the tensor product over p^a || n of Z[zeta_{p^a}], and
the products  prod_p zeta_{p^a}^{t_p}  with 0 <= t_p < phi(p^a) form an
integral basis.  A value is held as a sparse dict mapping exponent tuples
(t_p ordered by prime) to integer coefficients.  The only rewrite rule ever
needed is the p-th cyclotomic relation inside one component:

    zeta^{(p-1)p^{a-1} + r} = -(zeta^r + zeta^{p^{a-1}+r} + ... )

which keeps all work proportional to the number of nonzero terms.  This is
what makes long orthogonality sums over large-exponent groups cheap: the
dense power basis mod Phi_n is only materialized for stored canonical values
at their (small) minimal conductors.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from ._numtheory import factorize
from .intpoly import cyclotomic_polynomial


class Component(NamedTuple):
    prime: int
    power: int  # p^a
    exponent: int  # a
    phi: int  # phi(p^a)
    crt_unit: int  # (n // p^a)^{-1} mod p^a
    cofactor: int  # n // p^a


@lru_cache(maxsize=128)
def components(n: int) -> tuple[Component, ...]:
    comps = []
    for p, a in factorize(n).items():
        power = p**a
        cofactor = n // power
        comps.append(
            Component(p, power, a, power // p * (p - 1), pow(cofactor, -1, power), cofactor)
        )
    return tuple(comps)


def decompose(n: int, e: int) -> tuple[int, ...]:
    """Per-component exponents of zeta_n^e (not yet basis-reduced)."""
    return tuple((e * c.crt_unit) % c.power for c in components(n))


def recompose(n: int, key: tuple[int, ...]) -> int:
    return sum(t * c.cofactor for t, c in zip(key, components(n))) % n


def _reduce_into(out: dict, n: int, key: tuple[int, ...], coeff: int) -> None:
    # Rewrite overflowing components until the key is basis-admissible.
    comps = components(n)
    stack = [(key, coeff)]
    while stack:
        key, coeff = stack.pop()
        for i, c in enumerate(comps):
            t = key[i]
            if t >= c.phi:
                step = c.power // c.prime
                r = t - c.phi
                for j in range(c.prime - 1):
                    stack.append((key[:i] + (j * step + r,) + key[i + 1 :], -coeff))
                break
        else:
            new = out.get(key, 0) + coeff
            if new:
                out[key] = new
            else:
                out.pop(key, None)


def normalize_monomials(n: int, monomials: dict[int, int]) -> dict[tuple[int, ...], int]:
    """Sparse {exponent: coeff} over zeta_n into basis form."""
    out: dict[tuple[int, ...], int] = {}
    for e, coeff in monomials.items():
        if coeff:
            _reduce_into(out, n, decompose(n, e % n), coeff)
    return out


def embed(src_n: int, tensor: dict, dst_n: int, out: dict | None = None, scale: int = 1) -> dict:
    """Re-key a basis dict from conductor src_n into dst_n (src_n | dst_n)."""
    if dst_n % src_n:
        raise ValueError("embed target must be a multiple of the source conductor")
    src = components(src_n)
    dst = components(dst_n)
    slot = {c.prime: i for i, c in enumerate(dst)}
    moves = []
    for i, c in enumerate(src):
        j = slot[c.prime]
        moves.append((i, j, dst[j].power // c.power))
    if out is None:
        out = {}
    zero = (0,) * len(dst)
    for key, coeff in tensor.items():
        new = list(zero)
        for i, j, stretch in moves:
            new[j] = key[i] * stretch
        new_key = tuple(new)
        val = out.get(new_key, 0) + scale * coeff
        if val:
            out[new_key] = val
        else:
            out.pop(new_key, None)
    return out


def mul(n: int, a: dict, b: dict) -> dict:
    """Product of two basis dicts at the same conductor n."""
    comps = components(n)
    out: dict[tuple[int, ...], int] = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple((x + y) % c.power for x, y, c in zip(ka, kb, comps))
            _reduce_into(out, n, key, ca * cb)
    return out


def galois(n: int, tensor: dict, k: int) -> dict:
    """Apply zeta -> zeta^k; requires gcd(k, n) = 1."""
    comps = components(n)
    out: dict[tuple[int, ...], int] = {}
    for key, coeff in tensor.items():
        _reduce_into(out, n, tuple((k * t) % c.power for t, c in zip(key, comps)), coeff)
    return out


def descend(n: int, tensor: dict) -> tuple[int, dict]:
    """Minimal conductor and the re-keyed basis dict."""
    comps = list(components(n))
    while True:
        for i, c in enumerate(comps):
            ts = [key[i] for key in tensor]
            if c.exponent == 1:
                if all(t == 0 for t in ts):
                    n //= c.prime
                    tensor = {key[:i] + key[i + 1 :]: v for key, v in tensor.items()}
                    break
            elif all(t % c.prime == 0 for t in ts):
                n //= c.prime
                tensor = {
                    key[:i] + (key[i] // c.prime,) + key[i + 1 :]: v for key, v in tensor.items()
                }
                break
        else:
            return n, tensor
        comps = list(components(n))


_ROW_CACHE_LIMIT = 512  # above this, per-conductor row tables get too large


@lru_cache(maxsize=128)
def _monomial_rows(n: int) -> list[tuple[int, ...]]:
    # rows[j - phi] = power-basis coordinates of x^j mod Phi_n, phi <= j < n.
    phi_poly = cyclotomic_polynomial(n)
    phi = phi_poly.degree
    base = tuple(-c for c in phi_poly.coeffs[:phi])
    rows = [base]
    for _ in range(phi, n - 1):
        prev = rows[-1]
        top = prev[phi - 1]
        row = (top * base[0],) + tuple(prev[i - 1] + top * base[i] for i in range(1, phi))
        rows.append(row)
    return rows


def _divide_out(n: int, monomials: list[tuple[int, int]], phi: int) -> list[int]:
    # plain long division of a degree < n polynomial by Phi_n
    dense = [0] * n
    for e, coeff in monomials:
        dense[e] += coeff
    support = [(i, c) for i, c in enumerate(cyclotomic_polynomial(n).coeffs[:phi]) if c]
    for top in range(n - 1, phi - 1, -1):
        c = dense[top]
        if c:
            dense[top] = 0
            offset = top - phi
            for i, d in support:
                dense[offset + i] -= c * d
    return dense[:phi]


def expand(n: int, tensor: dict) -> tuple[int, ...]:
    """Dense power-basis coefficients (length phi(n)) of a basis dict."""
    if n == 1:
        return (tensor.get((), 0),)
    phi = cyclotomic_polynomial(n).degree
    dense = [0] * phi
    overflow = []
    rows = None
    for key, coeff in tensor.items():
        e = recompose(n, key)
        if e < phi:
            dense[e] += coeff
        elif n > _ROW_CACHE_LIMIT:
            overflow.append((e, coeff))
        else:
            if rows is None:
                rows = _monomial_rows(n)
            row = rows[e - phi]
            for i in range(phi):
                if row[i]:
                    dense[i] += coeff * row[i]
    if overflow:
        for i, c in enumerate(_divide_out(n, overflow, phi)):
            dense[i] += c
    return tuple(dense)
