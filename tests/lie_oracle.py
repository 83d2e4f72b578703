"""Test-support oracle: the closed-form orders and twisted regular numbers
of the groups of Lie type.

The program computes |S| = q^N prod Phi_e(q)^{m_e} / d from one
description, the (degree, twist) pairs of the Weyl group plus a Phi_e table
for 3D4, 2B2, 2F4 and 2G2.  This module keeps the textbook product of
q^i -+ 1 factors for every family, with its own table of exceptional
degrees, as the reference the tests compare against.

The program also decides regularity for 2A, 2D and 2E6 by the twisted
degree/codegree count.  This module keeps the closed-form rules read off
the Sylow-torus centralizers of unitary and orthogonal groups, and the
explicit set for 2E6, as the reference for that.
"""

from __future__ import annotations

from blockgraph.lietype import center_index, positive_roots

_EXCEPTIONAL_DEGREES = {
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
    "F4": (2, 6, 8, 12),
    "G2": (2, 6),
}


def _order_simply_connected(family: str, rank: int, q: int) -> int:
    n = rank
    qn = q ** positive_roots(family, rank)
    if family == "A":
        prod = 1
        for i in range(2, n + 2):
            prod *= q**i - 1
        return qn * prod
    if family == "2A":
        prod = 1
        for i in range(2, n + 2):
            prod *= q**i - (-1) ** i
        return qn * prod
    if family in ("B", "C"):
        prod = 1
        for i in range(1, n + 1):
            prod *= q ** (2 * i) - 1
        return qn * prod
    if family in ("D", "2D"):
        prod = q**n - 1 if family == "D" else q**n + 1
        for i in range(1, n):
            prod *= q ** (2 * i) - 1
        return qn * prod
    if family in _EXCEPTIONAL_DEGREES:
        prod = 1
        for d in _EXCEPTIONAL_DEGREES[family]:
            prod *= q**d - 1
        return qn * prod
    if family == "2E6":
        prod = 1
        for d in _EXCEPTIONAL_DEGREES["E6"]:
            prod *= q**d - (-1 if d % 2 else 1)
        return qn * prod
    if family == "3D4":
        return qn * (q**2 - 1) * (q**6 - 1) * (q**8 + q**4 + 1)
    if family == "2B2":
        return q**2 * (q**2 + 1) * (q - 1)
    if family == "2F4":
        return q**12 * (q**6 + 1) * (q**4 - 1) * (q**3 + 1) * (q - 1)
    if family == "2G2":
        return q**3 * (q**3 + 1) * (q - 1)
    raise ValueError(f"no order formula for {family}")


def oracle_order(family: str, rank: int, q: int) -> int:
    """|S|: the closed-form simply connected order over the center index."""
    sc = _order_simply_connected(family, rank, q)
    d = center_index(family, rank, q)
    if sc % d:
        raise ArithmeticError("center index does not divide the group order")
    return sc // d


REGULAR_2E6 = frozenset({1, 2, 3, 4, 6, 8, 12, 18})


def _unitary_cost(e: int) -> int:
    # dimensions a Phi_e-torus factor occupies inside a unitary group
    if e % 4 == 0:
        return e
    if e % 2 == 0:
        return e // 2
    return 2 * e


def oracle_twisted_regular(family: str, rank: int, e: int) -> bool:
    """Whether e is regular for 2A, 2D or 2E6, by the closed-form rules."""
    if family == "2A":
        return (rank + 1) % _unitary_cost(e) <= 1
    if family == "2D":
        n = rank
        if e % 2:
            return (n - 1) % e == 0
        half = e // 2
        if n % half == 1 % half:
            return True
        return n % half == 0 and (n // half) % 2 == 1
    if family == "2E6":
        return e in REGULAR_2E6
    raise ValueError(f"no closed-form regularity rule for {family}")
