from dataclasses import replace
from functools import lru_cache
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Poly, symbols
from sympy import cyclotomic_poly as sympy_cyclotomic

from blockgraph._numtheory import coprime_part, divisors, p_adic_valuation, p_part
from blockgraph.blocks import _radical_images, block_partition, central_character, principal_block_rows
from blockgraph.chartab import prime_divisors
from blockgraph.cyclotomic import Cyclotomic, conjugate, cyc_div_by_int, cyc_make
from blockgraph.intpoly import cyclotomic_polynomial
from blockgraph.tablegen import conjugacy_classes, dixon_table, enumerate_group
from ideal_oracle import oracle_partition, reduce_cyclotomic, reduction_contexts

A5_GENS = [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)]
S5_GENS = [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]


class TestCentralCharacter:
    def test_trivial_row_gives_class_sizes(self, corpus):
        table = corpus("A5")
        omega = central_character(table, 0)
        assert [v.as_int() for v in omega.values] == [c.size for c in table.classes]

    def test_identity_class_gives_one(self, corpus):
        table = corpus("L2_7")
        for row in range(table.num_classes):
            assert central_character(table, row).values[0] == Cyclotomic(1, (1,))

    def test_s3_degree_two_row(self, corpus):
        table = corpus("S3")
        row = next(r for r in range(3) if table.row_degree(r) == 2)
        omega = central_character(table, row)
        # transposition class |K| = 3, value 0; 3-cycle class |K| = 2, value -1
        assert [v.as_int() for v in omega.values] == [1, 0, -1]


class TestBlockPartition:
    def test_c2_single_block_defect_one(self, corpus):
        partition = block_partition(corpus("C2"), 2)
        assert partition.blocks == ((0, 1),)
        assert partition.defects == (1,)
        assert partition.principal_index == 0

    def test_a5_p5(self, corpus):
        table = corpus("A5")
        partition = block_partition(table, 5)
        principal = partition.blocks[partition.principal_index]
        assert sorted(table.row_degree(r) for r in principal) == [1, 3, 3, 4]
        defect_zero = [b for b, d in zip(partition.blocks, partition.defects) if d == 0]
        assert len(defect_zero) == 1 and table.row_degree(defect_zero[0][0]) == 5

    def test_a5_p2(self, corpus):
        table = corpus("A5")
        rows = principal_block_rows(table, 2)
        assert sorted(table.row_degree(r) for r in rows) == [1, 3, 3, 5]

    def test_s3_p3_all_rows(self, corpus):
        assert principal_block_rows(corpus("S3"), 3) == {0, 1, 2}

    def test_s3_p2(self, corpus):
        table = corpus("S3")
        rows = principal_block_rows(table, 2)
        assert sorted(table.row_degree(r) for r in rows) == [1, 1]

    def test_prime_not_dividing_order(self, corpus):
        for name, p in [("A5", 7), ("S4", 5), ("C6", 5)]:
            table = corpus(name)
            partition = block_partition(table, p)
            assert all(len(b) == 1 for b in partition.blocks)
            assert all(d == 0 for d in partition.defects)
            # block_partition answers without reducing; the reduction agrees
            omegas = [central_character(table, row).values for row in range(table.num_classes)]
            images = np.concatenate(
                [_radical_images(list(column), p) for column in zip(*omegas)], axis=1
            )
            assert len({tuple(image) for image in images.tolist()}) == table.num_classes

    @pytest.mark.parametrize("p", [1, 0, -5, 4, 6, 25])
    def test_not_a_prime(self, corpus, p):
        with pytest.raises(ValueError, match="not prime"):
            block_partition(corpus("A5"), p)

    def test_prime_above_int64_range(self, corpus):
        table = corpus("A5")
        p = 2147483659
        partition = block_partition(table, p)
        assert partition.blocks == tuple((row,) for row in range(table.num_classes))
        # only a table that no group has can make such a p divide the order
        fake = replace(table, group_order=table.group_order * p)
        with pytest.raises(ValueError, match="below 2"):
            block_partition(fake, p)

    def test_defect_zero_iff_full_p_part_singleton(self, corpus, all_corpus_names):
        for name in all_corpus_names:
            table = corpus(name)
            nu = {p: p_adic_valuation(table.group_order, p) for p in prime_divisors(table)}
            for p in prime_divisors(table):
                partition = block_partition(table, p)
                for block, defect in zip(partition.blocks, partition.defects):
                    singleton_full = len(block) == 1 and p_adic_valuation(
                        table.row_degree(block[0]), p
                    ) == nu[p]
                    assert (defect == 0) == singleton_full, (name, p, block)

    def test_block_count_at_most_p_regular_classes(self, corpus, all_corpus_names):
        for name in all_corpus_names:
            table = corpus(name)
            for p in prime_divisors(table):
                regular = sum(1 for c in table.classes if c.element_order % p)
                assert len(block_partition(table, p).blocks) <= regular, (name, p)


class TestSteinbergRows:
    def test_unique_full_defining_part_row_is_defect_zero(self, corpus):
        for name, p in [("L2_7", 7), ("L2_11", 11), ("Sz8", 2), ("L5_2", 2)]:
            table = corpus(name)
            part = p_part(table.group_order, p)
            rows = [r for r in range(table.num_classes) if table.row_degree(r) == part]
            assert len(rows) == 1, name
            partition = block_partition(table, p)
            index = partition.block_of_row(rows[0])
            assert partition.blocks[index] == (rows[0],)
            assert partition.defects[index] == 0


class TestPrincipalBlockCovering:
    def test_a5_inside_s5(self):
        """The principal block of S5 covers only the principal block of A5:
        restricting any S5 principal-block character to A5 yields
        constituents inside the principal block of A5, for p = 2, 3, 5."""
        a5 = enumerate_group(A5_GENS)
        s5 = enumerate_group(S5_GENS)
        a5_data, _, a5_members = conjugacy_classes(a5)
        s5_data, s5_class_of, _ = conjugacy_classes(s5)
        s5_index = {tuple(x): i for i, x in enumerate(s5.elements)}

        # fusion: A5 class -> S5 class, via an A5 representative inside S5
        fusion_by_class = [
            s5_class_of[s5_index[tuple(a5.elements[members[0]])]] for members in a5_members
        ]

        a5_table = dixon_table(a5, "A5")
        s5_table = dixon_table(s5, "S5")

        def column_map(table, data):
            # match canonical table columns to group classes by (order, size)
            remaining = list(range(len(data.sizes)))
            mapping = []
            for cls in table.classes:
                j = next(
                    i for i in remaining
                    if data.sizes[i] == cls.size and data.element_orders[i] == cls.element_order
                )
                remaining.remove(j)
                mapping.append(j)
            return mapping

        a5_cols = column_map(a5_table, a5_data)  # table column -> A5 class
        s5_cols = column_map(s5_table, s5_data)
        s5_col_of_class = {cls: col for col, cls in enumerate(s5_cols)}

        for p in (2, 3, 5):
            principal_a5 = principal_block_rows(a5_table, p)
            principal_s5 = principal_block_rows(s5_table, p)
            for chi in principal_s5:
                for psi in range(a5_table.num_classes):
                    total = Cyclotomic(1, (0,))
                    for col in range(a5_table.num_classes):
                        a5_class = a5_cols[col]
                        s5_col = s5_col_of_class[fusion_by_class[a5_class]]
                        term = (
                            a5_table.classes[col].size
                            * s5_table.irr[chi][s5_col]
                            * conjugate(a5_table.irr[psi][col])
                        )
                        total = total + term
                    multiplicity = cyc_div_by_int(total, 60).as_int()
                    if multiplicity:
                        assert psi in principal_a5, (p, chi, psi)


class TestIdealIndependence:
    def test_small_tables_all_factors(self, corpus):
        for name in ("S3", "A5", "SL23"):
            table = corpus(name)
            for p in prime_divisors(table):
                partitions = {
                    oracle_partition(table, p, ctx).blocks
                    for ctx in reduction_contexts(table.exponent, p)
                }
                assert partitions == {block_partition(table, p).blocks}, (name, p)


def cyclotomics(m):
    """Cyclotomic integers at the divisors of m."""
    return st.sampled_from(divisors(m)).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(-30, 30)), max_size=6
        ).map(lambda terms: cyc_make(n, terms))
    )


@lru_cache(maxsize=None)
def ideal_generators(m, p):
    """(p, Phi_{m'}(zeta_m)), which generate the radical of p in Z[zeta_m],
    and each irreducible factor of Phi_{m'} mod p evaluated at zeta_m, which
    lies in exactly one maximal ideal when there are several."""
    y = symbols("y")
    m_prime = coprime_part(m, p)
    phi = cyclotomic_polynomial(m_prime)
    radical = (p, cyc_make(m, list(enumerate(phi))))
    _, factors = Poly(sympy_cyclotomic(m_prime, y), y, modulus=p).factor_list()
    single = tuple(
        cyc_make(m, [(e, int(c)) for e, c in enumerate(reversed(f.all_coeffs()))])
        for f, _ in factors
    )
    return radical, single


def reduce_mod_phi(coeffs, phi, p):
    """Remainder of a polynomial (constant term first) by monic phi over F_p."""
    n = len(phi) - 1
    rem = [c % p for c in coeffs] + [0] * n
    for d in range(len(rem) - 1, n - 1, -1):
        top = rem[d]
        for j, c in enumerate(phi):
            rem[d - n + j] = (rem[d - n + j] - top * c) % p
    return rem[:n]


class TestRadicalReduction:
    """The image of Z[zeta_c] in F_p[x]/(Phi_{c'}) that block_partition
    compares, checked against the per-ideal oracle and the ring laws."""

    @pytest.mark.parametrize("m, p", [(30, 7), (15, 2), (20, 3), (12, 5), (40, 2), (45, 3)])
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_zero_exactly_when_zero_modulo_every_ideal(self, m, p, data):
        a = data.draw(cyclotomics(m))
        (prime, phi_at_zeta), single = ideal_generators(m, p)
        kind = data.draw(st.sampled_from(["any", "radical", "one ideal"]))
        if kind == "radical":
            a = prime * a + phi_at_zeta * data.draw(cyclotomics(m))
        elif kind == "one ideal":
            a = a * data.draw(st.sampled_from(single))
        radical_zero = not any(_radical_images([a], p)[0])
        ideal_zero = all(
            not any(reduce_cyclotomic(a, ctx).coeffs) for ctx in reduction_contexts(m, p)
        )
        assert radical_zero == ideal_zero, (a, kind)

    @settings(max_examples=150, deadline=None)
    @given(
        m=st.sampled_from([12, 18, 20, 24, 30, 36, 40, 45, 60]),
        p=st.sampled_from([2, 3, 5, 7, 2147483647, 2305843009213693951]),
        data=st.data(),
    )
    def test_ring_homomorphism(self, m, p, data):
        a, b = data.draw(cyclotomics(m)), data.draw(cyclotomics(m))
        one = Cyclotomic(1, (1,))
        image_a, image_b, image_sum, image_product, image_one = _radical_images(
            [a, b, a + b, a * b, one], p
        )
        c_prime = coprime_part(lcm(a.conductor, b.conductor), p)
        phi = cyclotomic_polynomial(c_prime)
        product = [0] * (2 * len(image_a) - 1)
        for i, x in enumerate(image_a):
            for j, y in enumerate(image_b):
                product[i + j] += x * y
        assert len(image_a) == len(phi) - 1
        assert image_sum == [(x + y) % p for x, y in zip(image_a, image_b)]
        assert image_product == reduce_mod_phi(product, phi, p)
        assert image_one == [1] + [0] * (len(phi) - 2)
