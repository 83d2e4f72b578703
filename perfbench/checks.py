"""Checks on the program's outputs, computed apart from the program.

Character values are evaluated from the documented E(n) text format in
complex floating point; symmetric-group facts come from partitions (hook
lengths, cycle types, p-cores); PSL(2,p) facts from the known degree
formula; Lie-type facts from textbook order formulas, Springer's
regular-number lists and brute-force scans, with sympy as the primality
oracle.  No check reads a value the program computed as its expectation
except where a check compares two program outputs for consistency, which
it says.

Every check returns a list of problems; an empty list means it passed.

Run this file to recompute the stored regular-number sets from the Weyl
group degrees:  python3 perfbench/checks.py
"""

from __future__ import annotations

import cmath
import json
import math
import re
from collections import Counter
from itertools import combinations

import numpy as np

# -- character values from the text format -----------------------------------------

_TERM = re.compile(r"\s*([+-]?)\s*(?:(\d+)(?:\s*\*\s*E\((\d+)\)(?:\^(\d+))?)?|E\((\d+)\)(?:\^(\d+))?)\s*")


def eval_entry(entry) -> complex:
    """Complex value of an irr entry: an integer or an E(n) expression."""
    if isinstance(entry, int):
        return complex(entry)
    total = 0j
    pos = 0
    while pos < len(entry):
        m = _TERM.match(entry, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot read {entry!r}")
        sign, coeff, n1, e1, n2, e2 = m.groups()
        if n1 is None and n2 is None:
            value = complex(int(coeff))
        else:
            n, e = (n1, e1) if n1 is not None else (n2, e2)
            root = cmath.exp(2j * math.pi * int(e or 1) / int(n))
            value = (int(coeff) if coeff is not None else 1) * root
        total += -value if sign == "-" else value
        pos = m.end()
    return total


class TableData:
    """A printed table read back as plain numbers."""

    def __init__(self, text: str):
        doc = json.loads(text)
        self.name = doc["name"]
        self.order = doc["order"]
        self.sizes = [c["size"] for c in doc["classes"]]
        self.element_orders = [c["order"] for c in doc["classes"]]
        self.values = np.array([[eval_entry(v) for v in row] for row in doc["irr"]])
        self.degrees = [round(row[0].real) for row in self.values]


# -- elementary number theory ------------------------------------------------------------


def prime_factors(n: int) -> dict[int, int]:
    """Trial division; only used on group orders of tables here."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def p_part(n: int, p: int) -> int:
    part = 1
    while n % p == 0:
        n //= p
        part *= p
    return part


def check_character_table(t: TableData) -> list[str]:
    """Class sizes add up to |G| and the rows are orthonormal for the
    class-size weighted inner product, in floating point."""
    problems = []
    if sum(t.sizes) != t.order:
        problems.append(f"{t.name}: class sizes add up to {sum(t.sizes)}, not {t.order}")
    gram = (t.values * np.array(t.sizes)) @ np.conj(t.values).T / t.order
    if np.max(np.abs(gram - np.eye(len(t.sizes)))) > 1e-9:
        problems.append(f"{t.name}: rows are not orthonormal")
    return problems


# -- blocks -----------------------------------------------------------------------------


def check_partition(t: TableData, p: int, blocks) -> list[str]:
    """The partition covers every row once, the trivial character is in
    some block, weak block orthogonality holds for every block, and a row
    is a singleton block exactly when it has p-defect zero."""
    problems = []
    rows = sorted(r for b in blocks for r in b)
    n = len(t.degrees)
    if rows != list(range(n)):
        return [f"{t.name} p={p}: blocks do not partition the rows"]
    regular = [k for k, o in enumerate(t.element_orders) if o % p]
    singular = [k for k, o in enumerate(t.element_orders) if o % p == 0]
    for b in blocks:
        x = t.values[list(b)]
        sums = x[:, regular].T @ np.conj(x[:, singular])
        scale = np.abs(x[:, regular]).T @ np.abs(x[:, singular]) + 1.0
        if sums.size and np.max(np.abs(sums) / scale) > 1e-9:
            problems.append(f"{t.name} p={p}: block {list(b)} breaks weak block orthogonality")
    group_p = p_part(t.order, p)
    singletons = {b[0] for b in blocks if len(b) == 1}
    defect_zero = {r for r, d in enumerate(t.degrees) if p_part(d, p) == group_p}
    if singletons != defect_zero:
        problems.append(
            f"{t.name} p={p}: singleton blocks {sorted(singletons)} "
            f"!= defect-zero rows {sorted(defect_zero)}"
        )
    return problems


def check_graph_agrees_with_blocks(name, graph, partitions) -> list[str]:
    """Consistency of two program outputs: an edge exactly where the
    principal blocks share a nontrivial row."""
    principal = {p: set(next(b for b in part if 0 in b)) for p, part in partitions.items()}
    expected = [
        (p, q)
        for p, q in combinations(sorted(graph.vertices), 2)
        if (principal[p] & principal[q]) - {0}
    ]
    if [tuple(e) for e in graph.edges] != expected:
        return [f"{name}: edges {list(graph.edges)} do not follow from the blocks {expected}"]
    return []


# -- graph shapes of the bundled tables ------------------------------------------------------

# The paper: the block graph of a simple group is complete except for J1 and
# J4; J1's misses only {3, 5}.  Bessenrodt-Zhang: symmetric and alternating
# groups have complete block graphs; nilpotent groups have edgeless ones.
COMPLETE_TABLES = {"A5", "A6", "S5", "L2_7", "L2_11", "L5_2", "Sz8"}
EDGELESS_TABLES = {"C2", "C6", "C12", "D8", "Q8"}
EDGED_TABLES = {"S3", "S4", "A4", "SL23"}
J1_MISSING = (3, 5)


def check_corpus_graph(name: str, order: int, vertices, edges) -> list[str]:
    vertices = list(vertices)
    edges = [tuple(e) for e in edges]
    primes = sorted(prime_factors(order))
    if vertices != primes:
        return [f"{name}: vertices {vertices} != primes of |G| {primes}"]
    all_pairs = list(combinations(primes, 2))
    if name in COMPLETE_TABLES and edges != all_pairs:
        return [f"{name}: graph is not complete: {edges}"]
    if name == "J1" and edges != [e for e in all_pairs if e != J1_MISSING]:
        return [f"J1: graph is not K6 minus {{3,5}}: {edges}"]
    if name in EDGELESS_TABLES and edges:
        return [f"{name}: nilpotent group with edges {edges}"]
    if name in EDGED_TABLES and not edges:
        return [f"{name}: graph has no edge"]
    known = COMPLETE_TABLES | EDGELESS_TABLES | EDGED_TABLES | {"J1"}
    if name not in known:
        return [f"{name}: no expected shape for this table"]
    return []


# -- symmetric groups -----------------------------------------------------------------------


def partitions(n: int, largest: int | None = None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def hook_degree(shape) -> int:
    n = sum(shape)
    conjugate = [sum(1 for part in shape if part > j) for j in range(shape[0])] if shape else []
    hooks = 1
    for i, part in enumerate(shape):
        for j in range(part):
            hooks *= (part - j - 1) + (conjugate[j] - i - 1) + 1
    return math.factorial(n) // hooks


def centralizer_order(cycle_type) -> int:
    z = 1
    for length, mult in Counter(cycle_type).items():
        z *= length**mult * math.factorial(mult)
    return z


def p_core(shape, p: int) -> tuple[int, ...]:
    """Remove rim p-hooks on the abacus: slide every bead up its runner."""
    k = len(shape)
    beta = [part + (k - 1 - i) for i, part in enumerate(shape)]
    runners = Counter(b % p for b in beta)
    slid = sorted((r + p * level for r, count in runners.items() for level in range(count)), reverse=True)
    core = [b - (k - 1 - i) for i, b in enumerate(slid)]
    return tuple(part for part in core if part > 0)


def check_symmetric(n: int, t: TableData, partitions_by_prime, graph) -> list[str]:
    """Class sizes n!/z_lambda, hook-length degrees, Nakayama's conjecture
    for every prime dividing n!, and the graph those blocks imply."""
    problems = []
    shapes = list(partitions(n))
    if Counter(t.sizes) != Counter(math.factorial(n) // centralizer_order(s) for s in shapes):
        problems.append(f"S{n}: class sizes differ from n!/z_lambda")
    if Counter(t.degrees) != Counter(hook_degree(s) for s in shapes):
        problems.append(f"S{n}: degrees differ from the hook-length formula")
    principal_shapes = {}
    for p, blocks in partitions_by_prime.items():
        by_core: dict[tuple, list[int]] = {}
        for s in shapes:
            by_core.setdefault(p_core(s, p), []).append(hook_degree(s))
        expected = Counter(tuple(sorted(d)) for d in by_core.values())
        found = Counter(tuple(sorted(t.degrees[r] for r in b)) for b in blocks)
        if found != expected:
            problems.append(f"S{n} p={p}: blocks differ from Nakayama's p-core rule")
        principal_shapes[p] = {s for s in shapes if p_core(s, p) == p_core((n,), p)}
    # Edges implied by the p-cores: principal blocks share a shape other
    # than (n), the trivial character.
    expected_edges = [
        (p, q)
        for p, q in combinations(sorted(partitions_by_prime), 2)
        if (principal_shapes[p] & principal_shapes[q]) - {(n,)}
    ]
    if [tuple(e) for e in graph.edges] != expected_edges:
        problems.append(f"S{n}: edges {list(graph.edges)} != p-core edges {expected_edges}")
    return problems


def psl2_degrees(p: int) -> Counter:
    if p % 4 == 1:
        return Counter({1: 1, p: 1, p + 1: (p - 5) // 4, p - 1: (p - 1) // 4, (p + 1) // 2: 2})
    return Counter({1: 1, p: 1, p + 1: (p - 3) // 4, p - 1: (p - 3) // 4, (p - 1) // 2: 2})


def check_psl2(p: int, t: TableData, graph) -> list[str]:
    problems = []
    if t.order != p * (p * p - 1) // 2:
        problems.append(f"L2({p}): order {t.order}")
    if len(t.sizes) != (p + 5) // 2:
        problems.append(f"L2({p}): {len(t.sizes)} classes, expected {(p + 5) // 2}")
    if Counter(t.degrees) != psl2_degrees(p):
        problems.append(f"L2({p}): degrees {sorted(t.degrees)} differ from the formula")
    primes = sorted(prime_factors(t.order))
    if list(graph.vertices) != primes or [tuple(e) for e in graph.edges] != list(combinations(primes, 2)):
        problems.append(f"L2({p}): block graph is not complete on {primes}")
    return problems


# -- Lie type -----------------------------------------------------------------------------------

# Springer's regular numbers for the untwisted exceptional Weyl groups;
# `python3 perfbench/checks.py` recomputes them from the degrees.
REGULAR_NUMBERS = {
    "E6": {1, 2, 3, 4, 6, 8, 9, 12},
    "E7": {1, 2, 3, 6, 7, 9, 14, 18},
    "E8": {1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 20, 24, 30},
    "F4": {1, 2, 3, 4, 6, 8, 12},
    "G2": {1, 2, 3, 6},
}
WEYL_DEGREES = {
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
    "F4": (2, 6, 8, 12),
    "G2": (2, 6),
}


def regular_by_counting(degrees) -> set[int]:
    """Springer: e is regular when as many degrees as codegrees (degree - 2)
    are divisible by e."""
    top = max(degrees)
    return {
        e
        for e in range(1, top + 1)
        if sum(d % e == 0 for d in degrees) == sum((d - 2) % e == 0 for d in degrees)
    }


def ennola(e: int) -> int:
    """Ennola duality: e* is the order of -z for z of order e, and twisted
    type 2X has e regular exactly when e* is regular for X."""
    if e % 2:
        return 2 * e
    if e % 4 == 2:
        return e // 2
    return e


def regular_numbers_known(family: str, rank: int) -> set[int] | None:
    """Springer's lists where they are simple closed forms; None elsewhere."""
    if family == "A":
        return {d for d in range(1, rank + 2) if rank % d == 0 or (rank + 1) % d == 0}
    if family in REGULAR_NUMBERS:
        return REGULAR_NUMBERS[family]
    if family == "2A":
        untwisted = regular_numbers_known("A", rank)
        return {e for e in range(1, 4 * rank + 8) if ennola(e) in untwisted}
    if family == "2E6":
        return {e for e in range(1, 40) if ennola(e) in REGULAR_NUMBERS["E6"]}
    return None


def textbook_order(family: str, n: int, q: int) -> int:
    """|S| from the standard order formulas (Carter, Simple groups of Lie type)."""
    g = math.gcd
    if family == "A":
        return q ** (n * (n + 1) // 2) * math.prod(q**i - 1 for i in range(2, n + 2)) // g(n + 1, q - 1)
    if family == "2A":
        return (
            q ** (n * (n + 1) // 2)
            * math.prod(q**i - (-1) ** i for i in range(2, n + 2))
            // g(n + 1, q + 1)
        )
    if family == "2D":
        return (
            q ** (n * (n - 1))
            * (q**n + 1)
            * math.prod(q ** (2 * i) - 1 for i in range(1, n))
            // g(4, q**n + 1)
        )
    if family in WEYL_DEGREES:
        degrees = WEYL_DEGREES[family]
        center = {"E6": g(3, q - 1), "E7": g(2, q - 1)}.get(family, 1)
        return q ** sum(d - 1 for d in degrees) * math.prod(q**d - 1 for d in degrees) // center
    if family == "2E6":
        return (
            q**36
            * math.prod(q**d - (-1) ** d for d in WEYL_DEGREES["E6"])
            // g(3, q + 1)
        )
    if family == "3D4":
        return q**12 * (q**8 + q**4 + 1) * (q**6 - 1) * (q**2 - 1)
    if family == "2B2":
        return q**2 * (q**2 + 1) * (q - 1)
    if family == "2G2":
        return q**3 * (q**3 + 1) * (q - 1)
    if family == "2F4":
        return q**12 * (q**6 + 1) * (q**4 - 1) * (q**3 + 1) * (q - 1)
    raise ValueError(f"no order formula for {family}")


def e_by_scan(ell: int, q: int) -> int:
    """Least e >= 1 with q^e = 1 mod ell (mod 4 when ell = 2)."""
    modulus = 4 if ell == 2 else ell
    e, power = 1, q % modulus
    while power != 1:
        e += 1
        power = power * q % modulus
    return e


def zsigmondy_by_scan(t: int, n: int) -> int | None:
    """Strip from t^n - 1 every prime that divides some t^m - 1 with m < n,
    then take the least prime factor of what is left."""
    from sympy import factorint

    rest = t**n - 1
    for m in range(1, n):
        common = math.gcd(rest, t**m - 1)
        while common > 1:
            rest //= common
            common = math.gcd(rest, common)
    if rest == 1:
        return None
    return min(factorint(rest))


def check_lie(name, descriptor, result) -> list[str]:
    from sympy import isprime

    family, rank, q = descriptor
    problems = []
    expected_order = textbook_order(family, rank, q)
    if result.order != expected_order:
        problems.append(f"{name}: order {result.order} != {expected_order}")
    if math.prod(p**k for p, k in result.factors.items()) != result.order:
        problems.append(f"{name}: factorization does not multiply back to the order")
    if not all(isprime(p) for p in result.factors):
        problems.append(f"{name}: a factor is not prime")
    p = min(prime_factors(q))
    if set(result.verdicts) != set(result.factors) - {p}:
        problems.append(f"{name}: verdicts for {sorted(result.verdicts)}")
    regular = regular_numbers_known(family, rank)
    for ell, (e, verdict) in result.verdicts.items():
        if e != e_by_scan(ell, q):
            problems.append(f"{name}: e_{ell}(q) = {e}, scan gives {e_by_scan(ell, q)}")
        elif regular is not None and verdict != (e in regular):
            problems.append(f"{name}: Steinberg verdict at ell = {ell} (e = {e}) is {verdict}")
    for e, r in result.zsigmondy.items():
        if r != zsigmondy_by_scan(q, e):
            problems.append(f"{name}: Zsigmondy prime of q^{e} - 1 is {r}")
    row = result.table2
    if row is not None:
        f = 0
        while q % p ** (f + 1) == 0:
            f += 1
        if row.ord_r_of_p != row.e * f:
            problems.append(f"{name}: table row ord_r(p) {row.ord_r_of_p} != e*f")
        if regular is not None and row.e not in regular:
            problems.append(f"{name}: table row e = {row.e} is not regular")
        if (expected_order * row.d) % row.sylow_e_order:
            problems.append(f"{name}: |T_e| does not divide the simply connected order")
    return problems


if __name__ == "__main__":
    for family, degrees in WEYL_DEGREES.items():
        found = regular_by_counting(degrees)
        status = "matches" if found == REGULAR_NUMBERS[family] else "DIFFERS from"
        print(f"{family}: {sorted(found)} {status} the stored list")
