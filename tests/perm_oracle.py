"""Test-support oracle: the tuple-based permutation layer of the Dixon
generator.

Group elements are tuples of point images, products are composed one tuple
at a time, and each lookup goes through a dict keyed by element.  The
program holds the elements in one numpy array and works in batches; this
module keeps the element-at-a-time computation as the reference the tests
compare against, element order, class numbering and class matrices
included.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from blockgraph.errors import SizeExceeded
from blockgraph.tablegen import DEFAULT_BOUND, ClassData


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    # apply b first, then a
    return tuple(a[x] for x in b)


def _inverse(a: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def _perm_order(a: tuple[int, ...]) -> int:
    order = 1
    seen = [False] * len(a)
    for start in range(len(a)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = a[x]
            length += 1
        order = lcm(order, length)
    return order


@dataclass(frozen=True)
class PermGroup:
    degree: int
    generators: tuple[tuple[int, ...], ...]
    elements: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def enumerate_group(generators, bound: int = DEFAULT_BOUND) -> PermGroup:
    """Closure of the generators under products, breadth-first."""
    gens = [tuple(g) for g in generators]
    if not gens:
        raise ValueError("at least one generator required")
    degree = len(gens[0])
    for g in gens:
        if len(g) != degree or sorted(g) != list(range(degree)):
            raise ValueError(f"not a permutation of {degree} points: {g}")
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    elements = [identity]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = _compose(x, g)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
                    elements.append(y)
                    if len(elements) > bound:
                        raise SizeExceeded(f"group order exceeds bound {bound}")
        frontier = new
    return PermGroup(degree, tuple(gens), tuple(elements))


def conjugacy_classes(group: PermGroup) -> tuple[ClassData, tuple[int, ...], list[list[int]]]:
    """Class data plus the element -> class map and per-class element lists."""
    index_of = {x: i for i, x in enumerate(group.elements)}
    inv_gens = [_inverse(g) for g in group.generators]
    class_of = [-1] * group.order
    members: list[list[int]] = []
    reps: list[int] = []
    for start in range(group.order):
        if class_of[start] != -1:
            continue
        cls = len(members)
        reps.append(start)
        class_of[start] = cls
        orbit = [start]
        queue = [start]
        while queue:
            i = queue.pop()
            x = group.elements[i]
            for g, gi in zip(group.generators, inv_gens):
                j = index_of[_compose(gi, _compose(x, g))]
                if class_of[j] == -1:
                    class_of[j] = cls
                    orbit.append(j)
                    queue.append(j)
        members.append(orbit)

    sizes = tuple(len(m) for m in members)
    orders = tuple(_perm_order(group.elements[r]) for r in reps)
    power_maps = []
    for r, o in zip(reps, orders):
        rep = group.elements[r]
        acc = tuple(range(group.degree))
        row = []
        for _ in range(o):
            row.append(class_of[index_of[acc]])
            acc = _compose(acc, rep)
        power_maps.append(tuple(row))
    identity_class = class_of[index_of[tuple(range(group.degree))]]
    data = ClassData(group.order, sizes, orders, tuple(power_maps), identity_class)
    return data, tuple(class_of), members


def _class_matrix_builder(group: PermGroup, class_of, members, reps_idx):
    index_of = {x: i for i, x in enumerate(group.elements)}

    def build(i: int) -> list[list[int]]:
        c = len(members)
        mat = [[0] * c for _ in range(c)]
        reps = [group.elements[r] for r in reps_idx]
        for xi in members[i]:
            x_inv = _inverse(group.elements[xi])
            for k, z in enumerate(reps):
                j = class_of[index_of[_compose(x_inv, z)]]
                mat[j][k] += 1
        return mat

    return build
