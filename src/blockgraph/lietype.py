"""Number theory of the finite simple groups of Lie type.

Covers the 16 families: group orders, Zsigmondy primes, the cyclotomic
index e_ell(q), regular numbers, the maximal-torus data table used for
Sylow normalizer arguments, and the predicate deciding when the Steinberg
character lies in a principal ell-block (exactly when e_ell(q) is a
regular number).

Orders: |S| = q^N prod Phi_e(q)^{m_e} / d, where the generic order is
described once, by the (degree, +-1 twist) pairs of weyl_degrees, or by a
Phi_e table for 3D4, 2B2, 2F4 and 2G2.  The multiplicities m_e are derived
from the pairs; the value multiplies out the Phi_e(q)^{m_e}, and the
factorization factors each Phi_e(q) on its own.

Regular numbers: e is regular exactly when as many degrees d as codegrees
d - 2 satisfy zeta_e^x = eps, counted over the (degree, twist) pairs of
weyl_degrees; the +-1 twists make one criterion cover the untwisted
families and 2A, 2D and 2E6 alike.  For 3D4, 2B2, 2F4 and 2G2 every e is
regular.  The test suite checks the criterion against closed-form rules
for 2A and 2D and the explicit set for 2E6.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from ._numtheory import (
    factorize,
    is_prime,
    multiplicative_order,
    prime_divisors_of,
)
from .errors import (
    BadPrime,
    ConditionViolated,
    DefiningPrime,
    InvalidDescriptor,
    NotADivisor,
    TitsGroup,
)
from .intpoly import cyclotomic_value

__all__ = [
    "FAMILIES",
    "GenericLieGroup",
    "lie_group",
    "check_rank",
    "Factored",
    "group_order",
    "e_of",
    "zsigmondy",
    "is_regular",
    "steinberg_in_principal_block",
    "Table2Row",
    "table2_row",
    "zsigmondy_prime_of_Te",
    "weyl_degrees",
    "count_criterion_regular",
]

FAMILIES = (
    "A", "B", "C", "D", "E6", "E7", "E8", "F4", "G2",
    "2A", "2D", "2E6", "3D4", "2B2", "2F4", "2G2",
)

_FIXED_RANK = {"E6": 6, "E7": 7, "E8": 8, "F4": 4, "G2": 2,
               "2E6": 6, "3D4": 4, "2B2": 2, "2F4": 4, "2G2": 2}

_MINIMUM_RANK = {"A": 1, "B": 2, "C": 3, "D": 4, "2A": 2, "2D": 4}

_VERY_TWISTED = {"2B2": 2, "2F4": 2, "2G2": 3}

_ALL_E_REGULAR = {"3D4", "2B2", "2F4", "2G2"}


@dataclass(frozen=True)
class GenericLieGroup:
    """A finite simple group of Lie type: family, rank, and q = p^f."""

    family: str
    rank: int
    p: int
    f: int

    @property
    def q(self) -> int:
        return self.p**self.f

    def __str__(self) -> str:
        if self.family in _FIXED_RANK:
            return f"{self.family}({self.q})"
        return f"{self.family}{self.rank}({self.q})"


def _prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise InvalidDescriptor(f"q = {q} is not a prime power")
    factors = factorize(q)
    if len(factors) != 1:
        raise InvalidDescriptor(f"q = {q} is not a prime power")
    [(p, f)] = factors.items()
    return p, f


def check_rank(family: str, rank: int) -> None:
    """Rejects a rank the family does not have: the fixed rank of an
    exceptional or very twisted family, the least rank of a classical one."""
    fixed = _FIXED_RANK.get(family)
    if fixed is not None and rank != fixed:
        raise InvalidDescriptor(f"{family} has rank {fixed}, not {rank}")
    if family in _MINIMUM_RANK and rank < _MINIMUM_RANK[family]:
        raise InvalidDescriptor(f"{family}_n needs n >= {_MINIMUM_RANK[family]}")


def lie_group(family: str, rank: int, q: int) -> GenericLieGroup:
    """Validated descriptor; rejects non-simple configurations."""
    if family not in FAMILIES:
        raise InvalidDescriptor(f"unknown family {family!r}")
    p, f = _prime_power(q)

    check_rank(family, rank)

    if family in _VERY_TWISTED:
        if p != _VERY_TWISTED[family]:
            raise InvalidDescriptor(f"{family} requires characteristic {_VERY_TWISTED[family]}")
        if family == "2F4" and f == 1:
            raise TitsGroup(
                "2F4(2)' is treated as a sporadic group here; note that both "
                "irreducible constituents of the restricted Steinberg character "
                "lie in its principal 3-, 5- and 13-blocks"
            )
        if f < 3 or f % 2 == 0:
            raise InvalidDescriptor(f"{family} needs q = {p}^f with f odd and >= 3")
        return GenericLieGroup(family, rank, p, f)

    not_simple = {
        ("A", 1, 2), ("A", 1, 3),   # solvable
        ("2A", 2, 2),               # U3(2) is solvable
        ("B", 2, 2),                # Sp4(2) is not simple
        ("G2", 2, 2),               # G2(2) is not simple
    }
    if (family, rank, q) in not_simple:
        raise InvalidDescriptor(f"{family}{rank}({q}) is not a simple group")
    return GenericLieGroup(family, rank, p, f)


# -- Weyl degrees, twists, orders ---------------------------------------------

_EXCEPTIONAL_DEGREES = {
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
    "F4": (2, 6, 8, 12),
    "G2": (2, 6),
}


def weyl_degrees(family: str, rank: int) -> tuple[tuple[int, int], ...]:
    """(degree, twist eigenvalue) pairs; twists are +-1.  3D4 and the very
    twisted families are excluded: their regularity needs no degrees, and
    their orders come from a Phi_e table."""
    if family == "A" or family == "2A":
        sign = -1 if family == "2A" else 1
        return tuple((d, sign**d if sign == -1 else 1) for d in range(2, rank + 2))
    if family in ("B", "C"):
        return tuple((2 * i, 1) for i in range(1, rank + 1))
    if family == "D":
        return tuple((2 * i, 1) for i in range(1, rank)) + ((rank, 1),)
    if family == "2D":
        return tuple((2 * i, 1) for i in range(1, rank)) + ((rank, -1),)
    if family in _EXCEPTIONAL_DEGREES:
        return tuple((d, 1) for d in _EXCEPTIONAL_DEGREES[family])
    if family == "2E6":
        return tuple((d, -1 if d % 2 else 1) for d in _EXCEPTIONAL_DEGREES["E6"])
    raise ValueError(f"no degree data for family {family}")


def positive_roots(family: str, rank: int) -> int:
    n = rank
    return {
        "A": n * (n + 1) // 2, "2A": n * (n + 1) // 2,
        "B": n * n, "C": n * n,
        "D": n * (n - 1), "2D": n * (n - 1),
        "E6": 36, "2E6": 36, "E7": 63, "E8": 120, "F4": 24, "G2": 6,
        "3D4": 12, "2B2": 2, "2F4": 12, "2G2": 3,
    }[family]


def center_index(family: str, rank: int, q: int) -> int:
    """|Z| of the simply connected group, i.e. the diagonal index |A0 : S|."""
    if family == "A":
        return gcd(rank + 1, q - 1)
    if family == "2A":
        return gcd(rank + 1, q + 1)
    if family in ("B", "C", "E7"):
        return gcd(2, q - 1)
    if family == "D":
        return gcd(4, pow(q, rank, 4) - 1)
    if family == "2D":
        return gcd(4, pow(q, rank, 4) + 1)
    if family == "E6":
        return gcd(3, q - 1)
    if family == "2E6":
        return gcd(3, q + 1)
    return 1


# Phi_e multiplicities of the families that have no weyl_degrees pairs.
_PHI_EXPONENTS = {
    "3D4": {1: 2, 2: 2, 3: 2, 6: 2, 12: 1},
    "2B2": {1: 1, 4: 1},
    "2F4": {1: 2, 2: 2, 4: 2, 6: 1, 12: 1},
    "2G2": {1: 1, 2: 1, 6: 1},
}


def _cyclotomic_exponents(family: str, rank: int) -> dict[int, int]:
    """Multiplicity m_e of each Phi_e in the generic order (x-power excluded).

    x^d - 1 is the product of Phi_e over e | d, and x^d + 1 the product
    over e | 2d with e not dividing d."""
    if family in _PHI_EXPONENTS:
        return dict(_PHI_EXPONENTS[family])
    mult: dict[int, int] = {}
    for d, eps in weyl_degrees(family, rank):
        top = d if eps == 1 else 2 * d
        for e in range(1, top + 1):
            if top % e == 0 and (eps == 1 or d % e):
                mult[e] = mult.get(e, 0) + 1
    return mult


@dataclass(frozen=True)
class Factored:
    value: int
    factors: dict[int, int]


def _order_value(group: GenericLieGroup) -> int:
    """|S| = q^N prod Phi_e(q)^{m_e} / d, in plain integer arithmetic."""
    family, rank, q = group.family, group.rank, group.q
    value = q ** positive_roots(family, rank)
    for e, m in _cyclotomic_exponents(family, rank).items():
        value *= cyclotomic_value(e, q) ** m
    d = center_index(family, rank, q)
    if value % d:
        raise ArithmeticError("center index does not divide the group order")
    return value // d


def group_order(group: GenericLieGroup) -> Factored:
    """|S| with its prime factorization.

    Each Phi_e(q) is factored on its own and its exponents scaled by m_e;
    the whole product can be far beyond Pollard rho.  Distinct e can give
    the same value (Phi_2(2) = Phi_6(2) = 3), so nothing is keyed by it."""
    family, rank, q = group.family, group.rank, group.q
    factors = {group.p: group.f * positive_roots(family, rank)}
    for e, m in _cyclotomic_exponents(family, rank).items():
        for r, k in factorize(cyclotomic_value(e, q)).items():
            factors[r] = factors.get(r, 0) + k * m
    for r, k in factorize(center_index(family, rank, q)).items():
        factors[r] -= k
    return Factored(_order_value(group), {r: k for r, k in sorted(factors.items()) if k})


# -- e_ell(q), Zsigmondy primes ------------------------------------------------


def e_of(ell: int, q: int) -> int:
    """Multiplicative order of q mod ell (odd ell) or mod 4 (ell = 2)."""
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    if q % ell == 0:
        raise BadPrime(f"{ell} divides q = {q}")
    if ell == 2:
        return 1 if q % 4 == 1 else 2
    return multiplicative_order(q, ell)


def zsigmondy(t: int, n: int) -> int | None:
    """Smallest prime dividing t^n - 1 but no t^m - 1 with 0 < m < n, or
    None in the exception cases (n = 6, t = 2; n = 2 with t + 1 a power
    of 2).  Such a prime always divides Phi_n(t), so only that value is
    factored."""
    if t < 2 or n < 2:
        raise ValueError("Zsigmondy primes need t, n > 1")
    candidates = [
        r for r in prime_divisors_of(cyclotomic_value(n, t))
        if multiplicative_order(t, r) == n
    ]
    return min(candidates) if candidates else None


# -- regular numbers -----------------------------------------------------------


def count_criterion_regular(pairs, e: int) -> bool:
    """Eigenvalue-count criterion on (degree, twist) pairs: e is regular
    exactly when as many degrees as codegrees satisfy zeta_e^d = eps."""

    def matches(d: int, eps: int) -> bool:
        if eps == 1:
            return d % e == 0
        return e % 2 == 0 and d % e == e // 2

    a = sum(1 for d, eps in pairs if matches(d, eps))
    b = sum(1 for d, eps in pairs if matches(d - 2, eps))
    return a == b


def is_regular(family: str, rank: int, e: int) -> bool:
    """Whether e is a regular number of the family at this rank."""
    if e < 1:
        raise ValueError("e must be a positive integer")
    if family not in FAMILIES:
        raise InvalidDescriptor(f"unknown family {family!r}")
    if family in _ALL_E_REGULAR:
        return True
    return count_criterion_regular(weyl_degrees(family, rank), e)


def steinberg_in_principal_block(group: GenericLieGroup, ell: int) -> bool:
    """True when the Steinberg character of the group lies in the principal
    ell-block, i.e. when e_ell(q) is a regular number."""
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    if ell == group.p:
        raise DefiningPrime(f"ell = {ell} is the defining characteristic")
    if _order_value(group) % ell:
        raise NotADivisor(f"{ell} does not divide |{group}|")
    return is_regular(group.family, group.rank, e_of(ell, group.q))


# -- the torus data table ------------------------------------------------------


@dataclass(frozen=True)
class Table2Row:
    """Per-family Sylow-torus data evaluated at (n, q): the diagonal index
    d, the torus order |T|, its Sylow Phi_e-part |T_e|, the index e, the
    relative Weyl group order |N/C|, and the multiplicative order of p mod
    a Zsigmondy prime r of |T_e|."""

    d: int
    torus_order: int
    sylow_e_order: int
    e: int
    relative_weyl_order: int
    ord_r_of_p: int


def _exact_sqrt(n: int) -> int:
    r = isqrt(n)
    if r * r != n:
        raise ArithmeticError(f"{n} is not a perfect square")
    return r


def _row_formulas(group: GenericLieGroup) -> Table2Row:
    n, q, f = group.rank, group.q, group.f
    fam = group.family
    phi = lambda e: cyclotomic_value(e, q)
    if fam == "A":
        return Table2Row(gcd(n + 1, q - 1), (q ** (n + 1) - 1) // (q - 1),
                         phi(n + 1), n + 1, n + 1, (n + 1) * f)
    if fam in ("B", "C"):
        return Table2Row(gcd(2, q - 1), q**n + 1, phi(2 * n), 2 * n, 2 * n, 2 * n * f)
    if fam == "D":
        return Table2Row(gcd(4, q**n - 1), q**n - 1, phi(n), n, n, n * f)
    if fam == "E6":
        d = gcd(3, q - 1)
        return Table2Row(d, phi(9) // d, phi(9) // d, 9, 9, 9 * f)
    if fam == "E7":
        d = gcd(2, q - 1)
        return Table2Row(d, phi(2) * phi(18) // d, phi(18), 18, 18, 18 * f)
    if fam == "E8":
        return Table2Row(1, phi(30), phi(30), 30, 30, 30 * f)
    if fam == "F4":
        return Table2Row(1, phi(12), phi(12), 12, 12, 12 * f)
    if fam == "G2":
        return Table2Row(1, phi(6), phi(6), 6, 6, 6 * f)
    if fam == "2A":
        d = gcd(n + 1, q + 1)
        if n % 2 == 0:
            return Table2Row(d, (q ** (n + 1) + 1) // (q + 1),
                             phi(2 * (n + 1)), 2 * (n + 1), n + 1, 2 * (n + 1) * f)
        return Table2Row(d, q**n + 1, phi(2 * n), 2 * n, n, 2 * n * f)
    if fam == "2D":
        return Table2Row(gcd(4, q**n + 1), q**n + 1, phi(2 * n), 2 * n, n, 2 * n * f)
    if fam == "2E6":
        d = gcd(3, q + 1)
        return Table2Row(d, phi(18) // d, phi(18) // d, 18, 18, 18 * f)
    if fam == "3D4":
        return Table2Row(1, phi(12), phi(12), 12, 12, 12 * f)
    if fam == "2B2":
        t = q + _exact_sqrt(2 * q) + 1
        return Table2Row(1, t, t, 4, 4, 4 * f)
    if fam == "2F4":
        t = q**2 + _exact_sqrt(2 * q**3) + q + _exact_sqrt(2 * q) + 1
        return Table2Row(1, t, t, 12, 12, 12 * f)
    if fam == "2G2":
        t = q - _exact_sqrt(3 * q) + 1
        return Table2Row(1, t, t, 6, 6, 6 * f)
    raise ValueError(f"no table row for family {fam}")


def _row_conditions(group: GenericLieGroup) -> str | None:
    n, q = group.rank, group.q
    fam = group.family
    if fam == "A":
        if (n, q) in ((2, 2), (2, 4), (5, 2)):
            return f"(n,q) != ({n},{q})"
    elif fam == "B":
        if (n, q) == (3, 2):
            return "(n,q) != (3,2)"
        if n == 2 and q % 2 == 0:
            return "q odd when n = 2"
    elif fam == "C":
        if (n, q) == (3, 2):
            return "(n,q) != (3,2)"
    elif fam == "D":
        if (n, q) == (6, 2):
            return "(n,q) != (6,2)"
    elif fam == "F4":
        if q == 2:
            return "q != 2"
    elif fam == "G2":
        if q % 3 == 0:
            return "3 does not divide q"
        if q == 2:
            return "q > 2"
    elif fam == "2A":
        if (n, q) == (2, 2):
            return "(n,q) != (2,2)"
        if n % 2 and (n, q) == (3, 2):
            return "(n,q) != (3,2)"
    return None


def table2_row(group: GenericLieGroup) -> Table2Row:
    """The data-table row evaluated at (n, q); raises ConditionViolated when
    the row's side conditions exclude this group."""
    failed = _row_conditions(group)
    if failed is not None:
        raise ConditionViolated(f"{group} fails the data-table condition: {failed}")
    return _row_formulas(group)


def zsigmondy_prime_of_Te(group: GenericLieGroup) -> int | None:
    """Smallest prime r dividing |T_e| whose order mod p matches the
    ord_r(p) column, or None when |T_e| has no such Zsigmondy prime.  The
    formulas are evaluated even where the table's side conditions exclude
    the row (those are exactly the discrete fallback cases)."""
    row = _row_formulas(group)
    target = row.ord_r_of_p
    for r in prime_divisors_of(row.sylow_e_order):
        if multiplicative_order(group.p, r) == target:
            return r
    return None
