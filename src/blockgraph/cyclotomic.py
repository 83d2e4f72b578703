"""Exact arithmetic in rings of cyclotomic integers Z[zeta_n].

A value is stored at its minimal conductor n as the dense coefficient tuple
of the power basis 1, zeta, ..., zeta^(phi(n)-1), i.e. reduced mod Phi_n.
Rational integers always live at conductor 1.  All construction funnels
through the sparse prime-power engine in _zeta, which performs the
reduction, finds the minimal conductor, and only then expands to the dense
form, so the only division by Phi_n is at the minimal conductor.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd, lcm

from . import _zeta
from .errors import CycParseError, NotAlgebraicInteger
from .intpoly import cyclotomic_polynomial

__all__ = [
    "Cyclotomic",
    "zeta",
    "cyc_make",
    "cyc_add",
    "cyc_mul",
    "cyc_neg",
    "cyc_div_by_int",
    "galois",
    "conjugate",
    "parse_cyclotomic",
    "cyclotomic_polynomial",
]


@dataclass(frozen=True)
class Cyclotomic:
    """A cyclotomic integer in canonical minimal-conductor power-basis form."""

    conductor: int
    coeffs: tuple[int, ...]

    def is_zero(self) -> bool:
        return self.conductor == 1 and self.coeffs[0] == 0

    def is_rational(self) -> bool:
        return self.conductor == 1

    def as_int(self) -> int:
        if self.conductor != 1:
            raise ValueError(f"{self} is irrational")
        return self.coeffs[0]

    def monomials(self) -> dict[int, int]:
        return {e: c for e, c in enumerate(self.coeffs) if c}

    def tensor(self, n: int) -> dict[tuple[int, ...], int]:
        """Prime-power basis dict (see _zeta) at a multiple n of the conductor."""
        return _zeta.normalize_monomials(n, _scaled_monomials(self, n))

    def __add__(self, other):
        other = _coerce(other)
        n = lcm(self.conductor, other.conductor)
        merged = _scaled_monomials(self, n)
        for e, c in _scaled_monomials(other, n).items():
            merged[e] = merged.get(e, 0) + c
        return _build(n, merged)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.conductor, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other.is_rational():
            r = other.coeffs[0]
            if r == 0:
                return ZERO
            return Cyclotomic(self.conductor, tuple(c * r for c in self.coeffs))
        if self.is_rational():
            return other * self
        n = lcm(self.conductor, other.conductor)
        n0, tensor = _zeta.descend(n, _zeta.mul(n, self.tensor(n), other.tensor(n)))
        return Cyclotomic(n0, _zeta.expand(n0, tensor))

    __rmul__ = __mul__

    def __str__(self) -> str:
        if self.conductor == 1:
            return str(self.coeffs[0])
        parts = []
        for e, c in sorted(self.monomials().items()):
            root = f"E({self.conductor})" + (f"^{e}" if e > 1 else "") if e else ""
            if e == 0:
                body = str(abs(c))
            elif abs(c) == 1:
                body = root
            else:
                body = f"{abs(c)}*{root}"
            parts.append(("-" if c < 0 else "+", body))
        sign, body = parts[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            text += sign + body
        return text

    def __repr__(self) -> str:
        return f"Cyclotomic({self})"


ZERO = Cyclotomic(1, (0,))
ONE = Cyclotomic(1, (1,))


def _coerce(value) -> Cyclotomic:
    if isinstance(value, Cyclotomic):
        return value
    if isinstance(value, int):
        return Cyclotomic(1, (value,))
    raise TypeError(f"cannot interpret {value!r} as a cyclotomic integer")


def _scaled_monomials(a: Cyclotomic, n: int) -> dict[int, int]:
    stretch = n // a.conductor
    return {e * stretch: c for e, c in a.monomials().items()}


def _build(n: int, monomials: dict[int, int]) -> Cyclotomic:
    tensor = _zeta.normalize_monomials(n, monomials)
    n0, tensor = _zeta.descend(n, tensor)
    return Cyclotomic(n0, _zeta.expand(n0, tensor))


def cyc_make(n: int, terms) -> Cyclotomic:
    """Sum of coefficient * zeta_n^exponent terms, canonicalized."""
    if n < 1:
        raise ValueError("conductor must be a positive integer")
    monomials: dict[int, int] = {}
    for e, c in terms:
        e %= n
        monomials[e] = monomials.get(e, 0) + c
    return _build(n, monomials)


def zeta(n: int, e: int = 1) -> Cyclotomic:
    return cyc_make(n, [(e, 1)])


def cyc_add(a, b) -> Cyclotomic:
    return _coerce(a) + _coerce(b)


def cyc_mul(a, b) -> Cyclotomic:
    return _coerce(a) * _coerce(b)


def cyc_neg(a) -> Cyclotomic:
    return -_coerce(a)


def cyc_div_by_int(a: Cyclotomic, d: int) -> Cyclotomic:
    """Exact division by a positive integer; requires a/d integral, which in
    Z[zeta_n] means every power-basis coefficient is divisible by d."""
    if d < 1:
        raise ValueError("divisor must be a positive integer")
    a = _coerce(a)
    if any(c % d for c in a.coeffs):
        raise NotAlgebraicInteger(f"({a})/{d} is not an algebraic integer")
    return Cyclotomic(a.conductor, tuple(c // d for c in a.coeffs))


def galois(a: Cyclotomic, k: int) -> Cyclotomic:
    """Image under zeta -> zeta^k for gcd(k, conductor) = 1."""
    a = _coerce(a)
    n = a.conductor
    if gcd(k, n) != 1:
        raise ValueError(f"{k} is not invertible mod {n}")
    tensor = _zeta.galois(n, a.tensor(n), k % n)
    n0, tensor = _zeta.descend(n, tensor)
    return Cyclotomic(n0, _zeta.expand(n0, tensor))


def conjugate(a: Cyclotomic) -> Cyclotomic:
    a = _coerce(a)
    return a if a.conductor == 1 else galois(a, a.conductor - 1)


# -- expression grammar ------------------------------------------------------
#
#   expr  := ['-'] term { ('+' | '-') term }
#   term  := integer [ '*' root ] | root
#   root  := 'E(' integer ')' [ '^' integer ]

_TOKEN = re.compile(r"\s*(\d+|E\(|[()^*+-])")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise CycParseError(f"bad character at {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def parse_cyclotomic(text: str) -> Cyclotomic:
    """Parse the E(n) expression grammar into a canonical value."""
    tokens = _tokenize(text)
    if not tokens:
        raise CycParseError("empty cyclotomic expression")
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        if pos >= len(tokens) or (expected is not None and tokens[pos] != expected):
            raise CycParseError(f"expected {expected or 'token'} in {text!r}")
        pos += 1
        return tokens[pos - 1]

    def parse_root():
        take("E(")
        n_text = take()
        if not n_text.isdigit() or int(n_text) < 1:
            raise CycParseError(f"bad root order in {text!r}")
        take(")")
        e = 1
        if peek() == "^":
            take("^")
            e_text = take()
            if not e_text.isdigit():
                raise CycParseError(f"bad exponent in {text!r}")
            e = int(e_text)
        return int(n_text), e

    def parse_term(sign):
        tok = peek()
        if tok == "E(":
            n, e = parse_root()
            return n, e, sign
        if tok is None or not tok.isdigit():
            raise CycParseError(f"expected term in {text!r}")
        coeff = sign * int(take())
        if peek() == "*":
            take("*")
            n, e = parse_root()
            return n, e, coeff
        return 1, 0, coeff

    terms = []
    sign = -1 if peek() == "-" else 1
    if peek() == "-":
        take("-")
    terms.append(parse_term(sign))
    while peek() in ("+", "-"):
        sign = 1 if take() == "+" else -1
        terms.append(parse_term(sign))
    if pos != len(tokens):
        raise CycParseError(f"trailing tokens in {text!r}")

    common = lcm(*(n for n, _, _ in terms))
    monomials: dict[int, int] = {}
    for n, e, c in terms:
        key = e * (common // n) % common
        monomials[key] = monomials.get(key, 0) + c
    return _build(common, monomials)
