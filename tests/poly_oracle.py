"""Test-support oracle: dense polynomials over Z and cyclotomic polynomials
by exact division.

A polynomial is stored as a tuple of ints with no trailing zeros; the zero
polynomial is the empty tuple.  Phi_n is x^n - 1 divided exactly by Phi_d
for every proper divisor d of n.  The program builds Phi_n from its Moebius
product as a bare coefficient tuple; this module keeps the polynomial ring
(schoolbook product, long division) as the naive reference the tests
compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from blockgraph._numtheory import divisors


def _trim(coeffs) -> tuple[int, ...]:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True)
class IntPolynomial:
    """Exact integer polynomial; coeffs[i] is the coefficient of x^i."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", _trim(coeffs))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coeffs])

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPolynomial(out)

    def divmod(self, divisor: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """Long division; requires divisor monic (or at least leading +-1)."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        lead = divisor.coeffs[-1]
        if lead not in (1, -1):
            raise ValueError("division only implemented for unit leading coefficient")
        rem = list(self.coeffs)
        dd = divisor.degree
        support = [(j, c) for j, c in enumerate(divisor.coeffs) if c]
        quot = [0] * max(0, len(rem) - dd)
        for i in range(len(rem) - dd - 1, -1, -1):
            q = rem[i + dd] * lead
            if q:
                quot[i] = q
                for j, c in support:
                    rem[i + j] -= q * c
        return IntPolynomial(quot), IntPolynomial(rem)

    def exact_div(self, divisor: "IntPolynomial") -> "IntPolynomial":
        quot, rem = self.divmod(divisor)
        if not rem.is_zero():
            raise ArithmeticError("division was not exact")
        return quot

    def __call__(self, x: int) -> int:
        value = 0
        for c in reversed(self.coeffs):
            value = value * x + c
        return value

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            term = "x" if i == 1 else f"x^{i}" if i else ""
            mag = "" if abs(c) == 1 and i else str(abs(c))
            sep = "" if mag == "" or not term else "*"
            body = f"{mag}{sep}{term}"
            parts.append(f"- {body}" if c < 0 else f"+ {body}" if parts else body)
        head = parts[0]
        if head.startswith("- "):
            head = "-" + head[2:]
        return " ".join([head] + parts[1:])


def x_power_minus_one(n: int) -> IntPolynomial:
    coeffs = [0] * (n + 1)
    coeffs[0] = -1
    coeffs[n] = 1
    return IntPolynomial(coeffs)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> IntPolynomial:
    """Phi_n, computed by dividing x^n - 1 by Phi_d over all proper d | n."""
    if n < 1:
        raise ValueError("cyclotomic polynomial needs n >= 1")
    poly = x_power_minus_one(n)
    for d in divisors(n):
        if d != n:
            poly = poly.exact_div(cyclotomic_polynomial(d))
    return poly
