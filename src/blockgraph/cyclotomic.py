"""Exact arithmetic in rings of cyclotomic integers Z[zeta_n].

A value is stored at its minimal conductor n as the dense coefficient tuple
of the power basis 1, zeta, ..., zeta^(phi(n)-1), i.e. reduced mod Phi_n.
Rational integers always live at conductor 1.  All construction funnels
through the sparse prime-power engine in _zeta, which performs the
reduction, finds the minimal conductor, and only then expands to the dense
form, so no arithmetic ever divides by a large Phi_n.

The module also provides the reduction maps into finite fields that the
block criterion consumes: a ReductionContext fixes a maximal ideal over p
in Z[zeta_m] by a residue field F_p[y]/(f) together with the image
zeta_bar of zeta_{m'} (m' the p'-part of m), a primitive m'-th root of
unity there.  make_reduction_context builds the one ideal the block
computation uses, at the conductor of the table's values, from
_gf.find_irreducible and a root of unity.  reduction_contexts enumerates
every ideal as a Galois twist of that one, zeta_bar -> zeta_bar^s with one
s per orbit of multiplication by p on (Z/m')*, in the same field, and
serves only as the oracle for the independence checks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd, lcm

import numpy as np

from . import _gf, _zeta
from ._numtheory import coprime_part, euler_phi, is_prime, multiplicative_order
from .errors import ConductorMismatch, CycParseError, NotAlgebraicInteger
from .intpoly import IntPolynomial, cyclotomic_polynomial

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
    "IntPolynomial",
    "FiniteFieldElt",
    "ReductionContext",
    "make_reduction_context",
    "reduction_contexts",
    "reduce_cyclotomic",
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
        a = _zeta.normalize_monomials(n, _scaled_monomials(self, n))
        b = _zeta.normalize_monomials(n, _scaled_monomials(other, n))
        n0, tensor = _zeta.descend(n, _zeta.mul(n, a, b))
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
    tensor = _zeta.galois(n, _zeta.normalize_monomials(n, a.monomials()), k % n)
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

    def __init__(self, m: int, p: int, field: _gf.GF, zeta_bar: np.ndarray):
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
    field = _gf.GF(p, _gf.find_irreducible(p, multiplicative_order(p, m_prime)))
    return ReductionContext(m, p, field, _gf._root_of_unity(field, m_prime))


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
