import hashlib
import random
import time

import perm_oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.combinatorics import Permutation, PermutationGroup
from sympy.polys.matrices import DomainMatrix

from blockgraph.chartab import print_table, validate
from blockgraph.errors import SizeExceeded
from blockgraph.tablegen import (
    _class_matrix_builder,
    _nullspace,
    _poly_roots,
    _rref,
    conjugacy_classes,
    dixon_table,
    enumerate_group,
    table_from_class_data,
)


A5_GENERATORS = [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)]


def symmetric_generators(n):
    # the transposition (0 1) and the n-cycle (0 1 ... n-1)
    return [(1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)]


def psl2_generators(p):
    # x -> x + 1 and x -> -1/x on the projective line, infinity as point p
    inf = p
    shift = tuple(inf if x == inf else (x + 1) % p for x in range(p + 1))
    invert = tuple(0 if x == inf else inf if x == 0 else -pow(x, -1, p) % p for x in range(p + 1))
    return [shift, invert]


def relabel(generators, a, b):
    # conjugate every generator by the point map x -> a*x + b (mod degree)
    n = len(generators[0])
    s = [(a * x + b) % n for x in range(n)]
    out = []
    for g in generators:
        h = [0] * n
        for x in range(n):
            h[s[x]] = s[g[x]]
        out.append(tuple(h))
    return out


@st.composite
def generator_sets(draw):
    # uniform permutations: st.permutations stays close to the identity,
    # which yields mostly tiny groups
    degree = draw(st.sampled_from(range(1, 8)))
    count = draw(st.sampled_from((1, 2, 3)))
    rng = draw(st.randoms(use_true_random=False))
    return [tuple(rng.sample(range(degree), degree)) for _ in range(count)]


class TestEnumerate:
    def test_cyclic_three(self):
        group = enumerate_group([(1, 2, 0)])
        assert group.order == 3

    def test_a5(self):
        group = enumerate_group([(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)])
        assert group.order == 60

    def test_size_bound(self):
        # <(0 1), a 10-cycle> is the full symmetric group on 10 points
        ten_cycle = tuple((i + 1) % 10 for i in range(10))
        swap = (1, 0) + tuple(range(2, 10))
        with pytest.raises(SizeExceeded):
            enumerate_group([swap, ten_cycle], bound=1000)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            enumerate_group([(0, 0, 1)])

    def test_index_of_rejects_a_non_member(self):
        group = enumerate_group([(1, 0, 2)])
        assert group.index_of([(1, 0, 2), (0, 1, 2)]).tolist() == [1, 0]
        with pytest.raises(ValueError):
            group.index_of([(0, 2, 1)])

    def test_trivial_group_within_any_bound(self):
        assert enumerate_group([(0, 1)], bound=0).order == 1

    def test_s12_fails_fast_at_default_bound(self):
        # S12 has order 12! > 10^6; enumeration must stop at the bound
        start = time.perf_counter()
        with pytest.raises(SizeExceeded):
            enumerate_group(symmetric_generators(12))
        assert time.perf_counter() - start < 30.0


class TestConjugacyClasses:
    def test_a5_class_sizes(self):
        group = enumerate_group([(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)])
        data, _, _ = conjugacy_classes(group)
        assert sorted(data.sizes) == [1, 12, 12, 15, 20]
        assert sorted(data.element_orders) == [1, 2, 3, 5, 5]

    def test_c2_two_singletons(self):
        group = enumerate_group([(1, 0)])
        data, _, _ = conjugacy_classes(group)
        assert data.sizes == (1, 1)

    def test_s3_sizes(self):
        group = enumerate_group([(1, 2, 0), (1, 0, 2)])
        data, _, _ = conjugacy_classes(group)
        assert sorted(data.sizes) == [1, 2, 3]

    def test_power_maps_start_at_identity(self):
        group = enumerate_group([(1, 2, 3, 0)])
        data, _, _ = conjugacy_classes(group)
        for pm in data.power_maps:
            assert pm[0] == data.identity_class


class TestAgainstTupleOracle:
    """The array layer against the element-at-a-time tuple layer."""

    @settings(max_examples=40, deadline=None)
    @given(gens=generator_sets())
    def test_same_elements_classes_and_matrices(self, gens):
        group = enumerate_group(gens)
        oracle = perm_oracle.enumerate_group(gens)
        assert [tuple(x) for x in group.elements.tolist()] == list(oracle.elements)

        data, class_of, members = conjugacy_classes(group)
        oracle_data, oracle_class_of, oracle_members = perm_oracle.conjugacy_classes(oracle)
        assert data == oracle_data
        assert class_of == oracle_class_of
        assert members == oracle_members

        reps = [m[0] for m in members]
        build = _class_matrix_builder(group, class_of, members, reps)
        oracle_build = perm_oracle._class_matrix_builder(oracle, class_of, members, reps)
        for i in range(len(members)):
            assert build(i) == oracle_build(i)

        sympy_group = PermutationGroup([Permutation(list(g)) for g in gens])
        assert sorted(data.sizes) == sorted(len(k) for k in sympy_group.conjugacy_classes())


def transpositions(count, degree):
    # the disjoint transpositions (0 1), (2 3), ..., one generator each
    gens = []
    for i in range(count):
        g = list(range(degree))
        g[2 * i], g[2 * i + 1] = 2 * i + 1, 2 * i
        gens.append(tuple(g))
    return gens


class TestBaseKeys:
    """PermGroup keys each element by the images of a base."""

    @pytest.mark.parametrize(
        "generators", [A5_GENERATORS, psl2_generators(7), [(1, 2, 3, 4, 0)]]
    )
    def test_row_agreeing_on_the_base_is_not_an_element(self, generators):
        group = enumerate_group(generators)
        base = group._index[0]
        free = [c for c in range(group.degree) if c not in base]
        assert len(free) >= 2
        # the base images fix a member, so any other row with them is not one
        rows = group.elements.copy()
        rows[:, free[:2]] = rows[:, free[1::-1]]
        for row in rows:
            with pytest.raises(ValueError):
                group.index_of(row[None, :])

    @pytest.mark.parametrize("count, degree, kind", [(14, 28, "V"), (13, 26, "i")])
    def test_transpositions_against_the_oracle(self, count, degree, kind):
        # 28^14 >= 2^63 needs the row keys of the base columns; 26^13 packs
        gens = transpositions(count, degree)
        group = enumerate_group(gens)
        base, keys, _ = group._index
        assert base == list(range(0, 2 * count, 2)) and keys.dtype.kind == kind
        oracle = perm_oracle.enumerate_group(gens)
        assert [tuple(x) for x in group.elements.tolist()] == list(oracle.elements)
        assert conjugacy_classes(group) == perm_oracle.conjugacy_classes(oracle)

    @pytest.mark.parametrize("degree, kind", [(512, "V"), (511, "i")])
    def test_class_matrices_at_the_packing_limit(self, degree, kind):
        # seven base points: 512^7 = 2^63 no longer packs, 511^7 does
        gens = transpositions(7, degree)
        group = enumerate_group(gens)
        assert group._index[1].dtype.kind == kind
        oracle = perm_oracle.enumerate_group(gens)
        data, class_of, members = conjugacy_classes(group)
        assert (data, class_of, members) == perm_oracle.conjugacy_classes(oracle)
        reps = [m[0] for m in members]
        build = _class_matrix_builder(group, class_of, members, reps)
        oracle_build = perm_oracle._class_matrix_builder(oracle, class_of, members, reps)
        for i in range(0, len(members), 9):  # a sample keeps the tuple oracle quick
            assert build(i) == oracle_build(i)

    @pytest.mark.parametrize("generators", [[()], [(0,)]])
    def test_trivial_group_has_an_empty_base(self, generators):
        group = enumerate_group(generators)
        assert group._index[0] == []
        assert group.index_of(group.elements).tolist() == [0]
        assert dixon_table(group, "1").degrees() == (1,)


class TestGoldenBytes:
    """print_table output pinned byte for byte.  Columns of equal element
    order and class size keep their class discovery order, so these digests
    also pin the order in which conjugacy_classes finds the classes."""

    @pytest.mark.parametrize(
        "name, generators, digest",
        [
            (
                "S6",
                symmetric_generators(6),
                "49f37959ba08464ceee4f430eec43f3ba37c9c37439c185263b19a7e767e1910",
            ),
            (
                "L2(13)",
                psl2_generators(13),
                "c6e12c0d5ed79d61e0ddcbe6773c11b9666e31b45b66ba8fe90a4ee8e1b66baa",
            ),
            (
                "S8",
                symmetric_generators(8),
                "be3d136e89436026519f23cfe0c02d4ca2619596feeb33776530a4f58a064802",
            ),
            (
                "L2(31)",
                psl2_generators(31),
                "9344e274a3c97257b164a339de9efdb304b228a57dbb56fdb121294d04a4689c",
            ),
        ],
    )
    def test_print_table_digest(self, name, generators, digest):
        table = dixon_table(enumerate_group(relabel(generators, 5, 3)), name)
        assert hashlib.sha256(print_table(table).encode()).hexdigest() == digest


class TestDixon:
    def test_trivial_group(self):
        table = dixon_table(enumerate_group([(0,)]), "1")
        assert table.degrees() == (1,)

    def test_s3_degrees(self):
        table = dixon_table(enumerate_group([(1, 2, 0), (1, 0, 2)]), "S3")
        assert sorted(table.degrees()) == [1, 1, 2]

    def test_a5_degrees(self):
        table = dixon_table(enumerate_group([(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)]), "A5")
        assert sorted(table.degrees()) == [1, 3, 3, 4, 5]

    def test_rows_match_class_count(self):
        for gens in ([(1, 2, 0)], [(1, 2, 3, 0), (1, 0, 2, 3)]):
            group = enumerate_group(gens)
            data, _, _ = conjugacy_classes(group)
            table = dixon_table(group)
            assert len(table.irr) == len(data.sizes)

    def test_emitted_tables_validate(self):
        for gens in (
            [(1, 2, 0), (1, 0, 2)],
            [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)],
            [(1, 2, 3, 4, 5, 0)],
        ):
            table = dixon_table(enumerate_group(gens))
            assert validate(table) == []

    def test_poly_roots_of_a_power_of_x(self):
        # x^rho mod x^15 leaves zero coefficients at the top of x^rho - x;
        # the charpoly x^15 arises in the Dixon table of PSL(2,32)
        assert _poly_roots([0] * 15 + [1], 380557) == [0]


def _corrupted_table(generators, name, cls, row, col, delta):
    """The Dixon table of a group with delta added to one cell of one class
    matrix; the solver reads the matrix only if it needs that class."""
    group = enumerate_group(generators)
    data, class_of, members = conjugacy_classes(group)
    build = _class_matrix_builder(group, class_of, members, [m[0] for m in members])

    def class_matrix(i):
        mat = build(i)
        if i == cls:
            mat[row][col] += delta
        return mat

    return table_from_class_data(name, data, class_matrix)


class TestCorruptClassData:
    """Class data that is not a group's must end in ArithmeticError."""

    @pytest.mark.parametrize(
        "generators, cls, row, col, delta",
        [
            # |G| / s is a quadratic non-residue mod rho
            (psl2_generators(7), 2, 1, 3, 2),
            (symmetric_generators(5), 1, 5, 4, 1),
            # a common eigenvector vanishes at the identity class
            (psl2_generators(7), 2, 5, 0, 1),
        ],
    )
    def test_pinned_corruptions(self, generators, cls, row, col, delta):
        with pytest.raises(ArithmeticError):
            _corrupted_table(generators, "G", cls, row, col, delta)

    def test_central_character_of_norm_zero(self):
        # C4 gives rho = 5; mod 5 this matrix has the eigenvalues 0, 1, 2, 3
        # in the eigenvectors (1,0,2,0), (1,1,0,0), (1,0,0,1), (1,0,1,0), and
        # the first has s = 1 + 2*0*0 + 2^2 = 0 mod 5
        data, _, _ = conjugacy_classes(enumerate_group([(1, 2, 3, 0)]))
        mat = [[1, 0, 2, 1], [0, 1, 0, 0], [1, 4, 2, 4], [0, 0, 0, 2]]
        with pytest.raises(ArithmeticError):
            table_from_class_data("C4", data, lambda i: [row[:] for row in mat])

    @pytest.mark.parametrize(
        "name, generators", [("A5", A5_GENERATORS), ("S4", symmetric_generators(4))]
    )
    def test_single_cell_sweep(self, name, generators):
        group = enumerate_group(generators)
        clean = print_table(dixon_table(group, name))
        c = len(conjugacy_classes(group)[0].sizes)
        rng = random.Random(2024)
        for _ in range(300):
            cell = (rng.randrange(c), rng.randrange(c), rng.randrange(c))
            delta = rng.choice((-2, -1, 1, 2, 3))
            try:
                table = _corrupted_table(generators, name, *cell, delta)
            except ArithmeticError:
                continue
            assert print_table(table) == clean, (cell, delta)


@st.composite
def matrices_mod_p(draw):
    p = draw(st.sampled_from((2, 3, 5, 7, 1000003)))
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    # entries from a few residues, so that rank deficiency is common
    pool = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=3))
    row = st.lists(st.sampled_from([0] + pool), min_size=m, max_size=m)
    return p, draw(st.lists(row, min_size=n, max_size=n))


class TestRowReduction:
    """_rref and _nullspace against sympy's row reduction over GF(p)."""

    @settings(max_examples=200, deadline=None)
    @given(case=matrices_mod_p())
    def test_against_sympy(self, case):
        p, rows = case
        field = GF(p)
        shape = (len(rows), len(rows[0]))
        mat = DomainMatrix([[field(x) for x in row] for row in rows], shape, field)
        reduced, pivots = mat.rref()
        expected = [[int(x) % p for x in row] for row in reduced.to_list()]
        assert _rref(rows, p) == (expected[: len(pivots)], list(pivots))
        # from the monic echelon form, sympy puts 1 at the free column and
        # minus the row entry at each pivot, the convention of _nullspace
        null = reduced.nullspace_from_rref(pivots)
        assert _nullspace(rows, p) == [[int(x) % p for x in row] for row in null.to_list()]
