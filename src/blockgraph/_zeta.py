"""Prime-power tensor-basis engine for exact root-of-unity arithmetic.

Z[zeta_n] factors as the tensor product over p^a || n of Z[zeta_{p^a}], and
the products  prod_p zeta_{p^a}^{t_p}  with 0 <= t_p < phi(p^a) form an
integral basis.  A value is held as a sparse dict mapping exponent tuples
(t_p ordered by prime) to integer coefficients.  The only rewrite rule ever
needed is the p-th cyclotomic relation inside one component:

    zeta^{(p-1)p^{a-1} + r} = -(zeta^r + zeta^{p^{a-1}+r} + ... )

which keeps all work proportional to the number of nonzero terms.  The
validator works in this basis directly: it converts each table value once to
the lcm M of the table's conductors and sums every orthogonality relation
there with mul.  The dense power basis mod Phi_n is only materialized for
canonical values at their minimal conductors, by expand, which is one long
division by Phi_n.
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


def mul(n: int, a: dict, b: dict, out: dict | None = None, scale: int = 1) -> dict:
    """Product of two basis dicts at the same conductor n, times scale and
    added into out when it is given."""
    comps = components(n)
    if out is None:
        out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple((x + y) % c.power for x, y, c in zip(ka, kb, comps))
            _reduce_into(out, n, key, scale * ca * cb)
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


def expand(n: int, tensor: dict) -> tuple[int, ...]:
    """Dense power-basis coefficients (length phi(n)) of a basis dict."""
    phi_n = cyclotomic_polynomial(n)
    degree = len(phi_n) - 1
    dense = [0] * n
    for key, coeff in tensor.items():
        dense[recompose(n, key)] += coeff
    # long division by the monic Phi_n, keeping only the remainder
    support = [(j, c) for j, c in enumerate(phi_n[:degree]) if c]
    for i in range(n - 1, degree - 1, -1):
        q = dense[i]
        if q:
            for j, c in support:
                dense[i - degree + j] -= q * c
    return tuple(dense[:degree])
