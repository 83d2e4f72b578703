"""Cyclotomic polynomials over Z as coefficient tuples, lowest degree first.

Phi_n is the product of (1 - x^(n/s))^mu(s) over the squarefree divisors s
of n, computed as a power series cut at degree phi(n).  Multiplying by
1 - x^d is one descending pass c[i] -= c[i-d]; dividing by it, that is
multiplying by 1 + x^d + x^2d + ..., is one ascending pass c[i] += c[i-d].
Writing 1 - x^k for x^k - 1 changes the sign by (-1)^(sum of mu(s)), which
is 1 for n > 1.
"""

from __future__ import annotations

from functools import lru_cache

from ._numtheory import euler_phi, factorize


@lru_cache(maxsize=128)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, lowest degree first."""
    if n < 1:
        raise ValueError("cyclotomic polynomial needs n >= 1")
    if n == 1:
        return (-1, 1)
    degree = euler_phi(n)
    coeffs = [1] + [0] * degree
    # (n // s, mu(s)) for the squarefree divisors s of n
    factors = [(n, 1)]
    for p in factorize(n):
        factors += [(d // p, -mu) for d, mu in factors]
    for d, mu in factors:
        if mu == 1:
            for i in range(degree, d - 1, -1):
                coeffs[i] -= coeffs[i - d]
        else:
            for i in range(d, degree + 1):
                coeffs[i] += coeffs[i - d]
    return tuple(coeffs)


def cyclotomic_value(n: int, x: int) -> int:
    """Phi_n(x), by Horner's rule."""
    value = 0
    for c in reversed(cyclotomic_polynomial(n)):
        value = value * x + c
    return value
