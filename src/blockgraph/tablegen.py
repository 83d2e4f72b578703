"""Character tables of small permutation groups by the Dixon-Schneider
method; the independent oracle behind the bundled table corpus.

The pipeline: enumerate the group, partition it into conjugacy classes,
then diagonalize the class-sum matrices simultaneously over F_rho for a
prime rho = 1 (mod exponent) large enough that every lift is forced.  The
common eigenvectors are the central characters mod rho; each degree is
the one divisor d <= sqrt|G| of |G| whose square is |G| / s mod rho, s
from the second orthogonality relation, and the character values are
recovered per class by an order-o discrete Fourier transform over F_rho
whose coefficients are the (small, nonnegative) root-of-unity
multiplicities, lifted verbatim.  A value chi(g^u) depends on u only through
the class of g^u, so the transform of each class is first summed over the
powers landing in each class, once for all characters, and each character
then takes one short sum per multiplicity.  Each distinct value is built
once per table, and its cells share it.  Each eigenspace of the simultaneous
split is held in reduced row echelon form, so a vector of the span has its
coordinates at the pivot columns, and restricting a class matrix to the
space needs no second elimination.

The solver itself only consumes abstract class data (sizes, element
orders, power maps, and a callback producing class-sum matrices), so other
element representations can reuse it; the PermGroup front end here is the
bounded desk-scale oracle that tests and the dixon CLI subcommand use.

PermGroup holds its elements as one order x degree numpy array of the
smallest unsigned dtype that fits a point, and works on them in batches:
products are fancy indexing (x*g is x[g]), and one sorted index, built once
per group, turns a whole array of products into element positions with one
searchsorted.  The index keys each element by its images of a base, a list
of points whose images tell any two elements apart (Sims; Seress 2003,
ch. 4), packed into one int64 in radix degree when degree^|base| < 2^63 and
the base columns' bytes otherwise; a lookup then compares the whole rows,
so a non-member is still refused.  Enumeration is breadth-first one layer
at a time, keyed by whole rows since no base exists yet, conjugation by a
generator is an index array over all elements, and row i of a class matrix
is one batched product, one lookup and one bincount.  The element order and
the class numbering are those of the element-at-a-time walk, which
chartab.certified_table's stable sort turns into the column order of tied
classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isqrt, lcm

import numpy as np

from ._numtheory import divisors, factorize, is_prime
from .chartab import CharacterTable, ConjClass, certified_table
from .cyclotomic import cyc_make
from .errors import SizeExceeded

__all__ = [
    "PermGroup",
    "enumerate_group",
    "conjugacy_classes",
    "dixon_table",
    "table_from_class_data",
]

DEFAULT_BOUND = 10**6


# -- permutation groups -------------------------------------------------------


def _row_keys(rows: np.ndarray) -> np.ndarray:
    # each row's bytes as one opaque key, so sorting and searching compare rows
    rows = np.ascontiguousarray(rows)
    width = rows.dtype.itemsize * rows.shape[1]
    if not width:  # the empty permutation, on 0 points
        return np.zeros(len(rows), dtype="V0")
    return rows.view(np.dtype((np.void, width)))[:, 0]


@dataclass(frozen=True, eq=False)
class PermGroup:
    """An enumerated permutation group.

    Row x of an order x degree array maps point c to x[c]; the product
    x*g (apply g first, then x) is x[g], and elements[:, g] multiplies
    every element by g at once.  elements[0] is the identity.
    """

    degree: int
    generators: np.ndarray  # one generator per row
    elements: np.ndarray

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def _index(self) -> tuple[list[int], np.ndarray, np.ndarray]:
        # a base: each point is one that some element of the stabilizer of
        # the points before it moves, until that stabilizer is trivial
        base = []
        rows = self.elements
        while len(rows) > 1:
            point = int(np.argmax((rows != np.arange(self.degree)).any(axis=0)))
            base.append(point)
            rows = rows[rows[:, point] == point]
        keys = self._base_keys(self.elements, base)
        perm = np.argsort(keys)
        return base, keys[perm], perm

    def _base_keys(self, rows: np.ndarray, base: list[int]) -> np.ndarray:
        # the images of the base points, packed in radix degree when they fit
        if self.degree ** len(base) >= 2**63:
            return _row_keys(rows[:, base])
        keys = np.zeros(len(rows), dtype=np.int64)
        for point in base:
            keys *= self.degree
            keys += rows[:, point]
        return keys

    def index_of(self, rows: np.ndarray) -> np.ndarray:
        """Positions in elements of the rows of a k x degree array."""
        rows = np.asarray(rows, dtype=self.elements.dtype)
        base, keys, perm = self._index
        pos = np.minimum(np.searchsorted(keys, self._base_keys(rows, base)), len(keys) - 1)
        found = perm[pos]
        # rows that agree on the base are equal only if they are elements
        if not np.array_equal(self.elements[found], rows):
            raise ValueError("not an element of the group")
        return found


def enumerate_group(generators, bound: int = DEFAULT_BOUND) -> PermGroup:
    """Closure of the generators under products, breadth-first.

    Each layer multiplies the frontier by every generator (frontier-major,
    generator-minor) and keeps the first occurrence of each new element.
    """
    gens = [tuple(g) for g in generators]
    if not gens:
        raise ValueError("at least one generator required")
    degree = len(gens[0])
    for g in gens:
        if len(g) != degree or sorted(g) != list(range(degree)):
            raise ValueError(f"not a permutation of {degree} points: {g}")
    dtype = np.min_scalar_type(max(degree - 1, 0))
    gen_rows = np.array(gens, dtype=dtype)
    frontier = np.arange(degree, dtype=dtype)[None, :]
    layers = [frontier]
    seen = _row_keys(frontier)  # sorted
    order = 1
    while len(frontier):
        candidates = frontier[:, gen_rows].reshape(len(frontier) * len(gens), degree)
        keys, first = np.unique(_row_keys(candidates), return_index=True)
        pos = np.searchsorted(seen, keys)
        new = seen[np.minimum(pos, len(seen) - 1)] != keys
        frontier = candidates[np.sort(first[new])]
        seen = np.insert(seen, pos[new], keys[new])
        layers.append(frontier)
        order += len(frontier)
        if len(frontier) and order > bound:  # the identity alone is always allowed
            raise SizeExceeded(f"group order exceeds bound {bound}")
    return PermGroup(degree, gen_rows, np.concatenate(layers))


@dataclass(frozen=True)
class ClassData:
    """Everything the Dixon solver needs, detached from group elements."""

    order: int
    sizes: tuple[int, ...]
    element_orders: tuple[int, ...]
    power_maps: tuple[tuple[int, ...], ...]  # power_maps[k][j] = class of rep_k^j
    identity_class: int


def conjugacy_classes(group: PermGroup) -> tuple[ClassData, tuple[int, ...], list[list[int]]]:
    """Class data plus the element -> class map and per-class element lists.

    Classes are numbered in order of their first element, and each member
    list is a depth-first walk from it under conjugation by the generators.
    """
    elements = group.elements
    # actions[a][i] = index of g_a^-1 x_i g_a
    actions = []
    for g in group.generators:
        g_inv = np.argsort(g)
        conjugates = elements[:, g]
        # relabel the images one column at a time: an index array of the
        # full order x degree shape would be intp, eight times the elements
        for c in range(group.degree):
            conjugates[:, c] = g_inv[conjugates[:, c]]
        actions.append(group.index_of(conjugates).tolist())
    class_of = [-1] * group.order
    members: list[list[int]] = []
    for start in range(group.order):
        if class_of[start] != -1:
            continue
        cls = len(members)
        class_of[start] = cls
        orbit = [start]
        queue = [start]
        while queue:
            i = queue.pop()
            for action in actions:
                j = action[i]
                if class_of[j] == -1:
                    class_of[j] = cls
                    orbit.append(j)
                    queue.append(j)
        members.append(orbit)

    identity = elements[0]
    orders = []
    powers = []
    for orbit in members:
        rep = elements[orbit[0]]
        acc = rep
        row = [identity]
        while not np.array_equal(acc, identity):
            row.append(acc)
            acc = acc[rep]
        orders.append(len(row))
        powers.append(np.array(row))
    power_classes = np.array(class_of)[group.index_of(np.concatenate(powers))]
    power_maps = tuple(
        tuple(pm.tolist()) for pm in np.split(power_classes, np.cumsum(orders)[:-1])
    )
    sizes = tuple(len(m) for m in members)
    data = ClassData(group.order, sizes, tuple(orders), power_maps, class_of[0])
    return data, tuple(class_of), members


def _class_matrix_builder(group: PermGroup, class_of, members, reps_idx):
    class_of = np.array(class_of)
    reps = group.elements[reps_idx]
    c = len(members)

    def build(i: int) -> list[list[int]]:
        inverses = np.argsort(group.elements[members[i]], axis=1).astype(reps.dtype)
        # products[a, k] = x_a^-1 z_k for x_a in class i and z_k the k-th rep
        products = inverses[:, reps]
        j = class_of[group.index_of(products.reshape(len(members[i]) * c, group.degree))]
        cells = j * c + np.tile(np.arange(c), len(members[i]))
        return np.bincount(cells, minlength=c * c).reshape(c, c).tolist()

    return build


# -- the solver over F_rho ----------------------------------------------------


def _choose_modulus(order: int, max_size: int, exponent: int) -> int:
    floor = 2 * isqrt(order) * max_size
    rho = exponent + 1
    while rho <= floor or not is_prime(rho):
        rho += exponent
    return rho


def _element_of_order(m: int, rho: int) -> int:
    if m == 1:
        return 1
    cofactor = (rho - 1) // m
    primes = list(factorize(m))
    for a in range(2, rho):
        z = pow(a, cofactor, rho)
        if z != 1 and all(pow(z, m // ell, rho) != 1 for ell in primes):
            return z
    raise ArithmeticError("no element of the requested order mod rho")


def _poly_roots(f: list[int], rho: int) -> list[int]:
    """Distinct roots in F_rho of a polynomial splitting over F_rho."""

    def _poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] = (out[i + j] + ca * cb) % rho
        return out

    def _poly_divmod(a, b):
        # long division over F_rho; the remainder has no trailing zeros
        inv = pow(b[-1], -1, rho)
        rem = a[:]
        quot = [0] * max(0, len(a) - len(b) + 1)
        for i in range(len(quot) - 1, -1, -1):
            c = rem[i + len(b) - 1] * inv % rho
            quot[i] = c
            if c:
                for j, d in enumerate(b):
                    rem[i + j] = (rem[i + j] - c * d) % rho
        while rem and rem[-1] == 0:
            rem.pop()
        return quot, rem

    def _pow_mod(base, e, f):
        # base^e mod f by square and multiply
        result = [1]
        while e:
            if e & 1:
                result = _poly_divmod(_poly_mul(result, base), f)[1]
            base = _poly_divmod(_poly_mul(base, base), f)[1]
            e >>= 1
        return result

    def poly_gcd(a, b):
        while any(b):
            a, b = b, _poly_divmod(a, b)[1]
        return a

    f = [c % rho for c in f]
    while f and f[-1] == 0:
        f.pop()
    if len(f) <= 1:
        return []
    # keep only distinct linear factors: gcd(x^rho - x, f)
    xr_minus_x = _pow_mod([0, 1], rho, f) + [0, 0]
    xr_minus_x[1] = (xr_minus_x[1] - 1) % rho
    while xr_minus_x and xr_minus_x[-1] == 0:
        xr_minus_x.pop()
    g = poly_gcd(f, xr_minus_x)
    g = [c * pow(g[-1], -1, rho) % rho for c in g]

    roots: list[int] = []
    stack = [g]
    while stack:
        h = stack.pop()
        if len(h) == 1:
            continue
        if len(h) == 2:
            roots.append((-h[0]) * pow(h[1], -1, rho) % rho)
            continue
        a = 0
        while True:
            # gcd with (x+a)^((rho-1)/2) - 1 splits the roots on average
            power = _pow_mod([a % rho, 1], (rho - 1) // 2, h) or [0]
            power[0] = (power[0] - 1) % rho
            split = poly_gcd(h, power)
            if 1 < len(split) < len(h):
                split = [c * pow(split[-1], -1, rho) % rho for c in split]
                stack.append(split)
                stack.append(_poly_divmod(h, split)[0])
                break
            a += 1
    return sorted(roots)


def _charpoly(a: list[list[int]], rho: int) -> list[int]:
    """Characteristic polynomial mod rho via Hessenberg reduction."""
    n = len(a)
    h = [row[:] for row in a]
    for col in range(n - 2):
        pivot = next((r for r in range(col + 1, n) if h[r][col] % rho), None)
        if pivot is None:
            continue
        if pivot != col + 1:
            h[pivot], h[col + 1] = h[col + 1], h[pivot]
            for r in range(n):
                h[r][pivot], h[r][col + 1] = h[r][col + 1], h[r][pivot]
        inv = pow(h[col + 1][col] % rho, -1, rho)
        for r in range(col + 2, n):
            factor = h[r][col] * inv % rho
            if factor:
                for cc in range(n):
                    h[r][cc] = (h[r][cc] - factor * h[col + 1][cc]) % rho
                for rr in range(n):
                    h[rr][col + 1] = (h[rr][col + 1] + factor * h[rr][r]) % rho
    # p_k = charpoly of leading k x k Hessenberg block
    polys = [[1]]
    for k in range(1, n + 1):
        poly = [0] + polys[k - 1]  # x * p_{k-1}
        diag = h[k - 1][k - 1] % rho
        poly = [(c - diag * pc) % rho for c, pc in zip(poly, polys[k - 1] + [0])]
        prod = 1
        for i in range(k - 1, 0, -1):
            prod = prod * h[i][i - 1] % rho
            term = prod * h[i - 1][k - 1] % rho
            if term:
                lower = polys[i - 1] + [0] * (len(poly) - len(polys[i - 1]))
                poly = [(c - term * lc) % rho for c, lc in zip(poly, lower)]
        polys.append(poly)
    return polys[n]


def _rref(rows: list[list[int]], rho: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form mod rho of the span of rows: its nonzero
    rows, each with a 1 at its pivot column, and those pivot columns."""
    a = [[v % rho for v in row] for row in rows]
    pivots: list[int] = []
    for c in range(len(a[0])):
        r = len(pivots)
        pivot = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = pow(a[r][c], -1, rho)
        a[r] = [v * inv % rho for v in a[r]]
        for i in range(len(a)):
            f = a[i][c]
            if i != r and f:
                a[i] = [(v - f * w) % rho for v, w in zip(a[i], a[r])]
        pivots.append(c)
        if len(pivots) == len(a):
            break
    return a[: len(pivots)], pivots


def _nullspace(mat: list[list[int]], rho: int) -> list[list[int]]:
    # one basis vector per free column: 1 there, minus the row entry at each pivot
    rows, pivots = _rref(mat, rho)
    basis = []
    for free in (c for c in range(len(mat[0])) if c not in pivots):
        vec = [0] * len(mat[0])
        vec[free] = 1
        for row, c in zip(rows, pivots):
            vec[c] = -row[free] % rho
        basis.append(vec)
    return basis


def table_from_class_data(
    name: str, data: ClassData, class_matrix, provenance: str | None = None
) -> CharacterTable:
    """Run Dixon-Schneider on abstract class data.

    class_matrix(i) must return the matrix M_i with M_i[j][k] counting the
    pairs (x, y) in K_i x K_j with x*y = z_k; it is called lazily, in
    ascending class-size order, until the class algebra is fully split.
    """
    c = len(data.sizes)
    exponent = lcm(*data.element_orders)
    rho = _choose_modulus(data.order, max(data.sizes), exponent)
    z = _element_of_order(exponent, rho)

    # simultaneous eigenspaces of the class matrices, ascending class size,
    # each held as its reduced echelon rows and their pivot columns
    spaces = [([[int(i == j) for j in range(c)] for i in range(c)], list(range(c)))]
    processing = sorted(
        (i for i in range(c) if i != data.identity_class),
        key=lambda i: (data.sizes[i], i),
    )
    for i in processing:
        if all(len(basis) == 1 for basis, _ in spaces):
            break
        mat = class_matrix(i)
        new_spaces = []
        for basis, pivots in spaces:
            d = len(basis)
            if d == 1:
                new_spaces.append((basis, pivots))
                continue
            images = [
                [sum(mat[j][k] * v[k] for k in range(c)) % rho for j in range(c)] for v in basis
            ]
            # a vector of the span has its coordinates at the pivot columns
            a_t = [[image[col] for image in images] for col in pivots]
            for s, image in enumerate(images):
                spanned = [sum(a_t[r][s] * basis[r][k] for r in range(d)) % rho for k in range(c)]
                if image != spanned:
                    raise ArithmeticError("image left the invariant subspace")
            split_total = 0
            for lam in _poly_roots(_charpoly(a_t, rho), rho):
                shifted = [
                    [(a_t[r][s] - (lam if r == s else 0)) % rho for s in range(d)]
                    for r in range(d)
                ]
                sub = [
                    [sum(coeff[s] * basis[s][k] for s in range(d)) % rho for k in range(c)]
                    for coeff in _nullspace(shifted, rho)
                ]
                split_total += len(sub)
                new_spaces.append(_rref(sub, rho))
            if split_total != d:
                raise ArithmeticError("eigenspace split lost dimensions")
        spaces = new_spaces
    if not all(len(basis) == 1 for basis, _ in spaces):
        raise ArithmeticError("class algebra failed to split; corrupt class data")

    identity = data.identity_class
    omegas = []
    for (vec,), _ in spaces:
        if not vec[identity]:
            raise ArithmeticError("central character vanishes at the identity; corrupt class data")
        inv = pow(vec[identity], -1, rho)
        omegas.append([v * inv % rho for v in vec])

    inverse_class = [pm[o - 1] if o > 1 else k for k, (pm, o) in enumerate(zip(data.power_maps, data.element_orders))]
    size_inv = [pow(s, -1, rho) for s in data.sizes]
    # the value at class k of order o has multiplicities
    # m_t = (1/o) sum_u chi(g^u) z_o^(-ut), and chi(g^u) depends on u only
    # through the class j of g^u; so dft[k][t] lists, for each such j, the
    # sum of (1/o) z_o^(-ut) over the u with g^u in j
    dft = []
    for k, o in enumerate(data.element_orders):
        z_o = pow(z, exponent // o, rho)
        z_pow = [pow(z_o, e, rho) for e in range(o)]
        inv_o = pow(o, -1, rho)
        sums = [{} for _ in range(o)]
        for u, j in enumerate(data.power_maps[k]):
            for t in range(o):
                sums[t][j] = sums[t].get(j, 0) + z_pow[-u * t % o]
        dft.append([[(j, w * inv_o % rho) for j, w in row.items()] for row in sums])
    bound = isqrt(data.order)
    # a degree d divides |G| and d^2 = |G| / s mod rho; two such d <= bound
    # would have rho | (d1 - d2)(d1 + d2) with 0 < d1 + d2 <= 2 bound < rho
    degree_of_square = {d * d % rho: d for d in divisors(data.order) if d <= bound}
    made = {}  # each distinct value is built once, as one object
    rows = []
    for omega in omegas:
        s_val = sum(omega[k] * omega[inverse_class[k]] % rho * size_inv[k] for k in range(c)) % rho
        degree = degree_of_square.get(data.order * pow(s_val, -1, rho) % rho) if s_val else None
        if degree is None:
            raise ArithmeticError("degree recovery failed; modulus too small")
        chi_mod = [degree * omega[k] % rho * size_inv[k] % rho for k in range(c)]
        values = []
        for k in range(c):
            terms = []
            total = 0
            for t, weights in enumerate(dft[k]):
                m_t = sum(chi_mod[j] * w for j, w in weights) % rho
                if m_t > bound:
                    raise ArithmeticError("multiplicity lift out of range")
                total += m_t
                if m_t:
                    terms.append((t, m_t))
            if total != degree:
                raise ArithmeticError("root-of-unity multiplicities do not sum to the degree")
            key = (data.element_orders[k], tuple(terms))
            if key not in made:
                made[key] = cyc_make(*key)
            values.append(made[key])
        rows.append(values)

    classes = [
        ConjClass(size, order) for size, order in zip(data.sizes, data.element_orders)
    ]
    return certified_table(name, data.order, classes, rows, provenance)


def dixon_table(group: PermGroup, name: str = "G", provenance: str | None = None) -> CharacterTable:
    """Character table of an enumerated permutation group."""
    data, class_of, members = conjugacy_classes(group)
    reps_idx = [m[0] for m in members]
    build = _class_matrix_builder(group, class_of, members, reps_idx)
    return table_from_class_data(name, data, build, provenance)
