import pytest

from blockgraph.chartab import validate
from blockgraph.errors import SizeExceeded
from blockgraph.tablegen import _poly_roots, conjugacy_classes, dixon_table, enumerate_group


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
