import math

import pytest
import sympy

from blockgraph import _numtheory
from blockgraph._numtheory import factorize, multiplicative_order, prime_divisors_of
from blockgraph.errors import (
    BadPrime,
    ConditionViolated,
    DefiningPrime,
    FactorizationTooHard,
    InvalidDescriptor,
    NotADivisor,
    TitsGroup,
)
from blockgraph.lietype import (
    FAMILIES,
    e_of,
    group_order,
    is_regular,
    lie_group,
    steinberg_in_principal_block,
    table2_row,
    zsigmondy,
    zsigmondy_prime_of_Te,
)
from lie_oracle import oracle_order, oracle_twisted_regular

FIXED_RANKS = {"E6": 6, "E7": 7, "E8": 8, "F4": 4, "G2": 2,
               "2E6": 6, "3D4": 4, "2B2": 2, "2F4": 4, "2G2": 2}

KNOWN_ORDERS = [
    ("A", 1, 4, 60),
    ("A", 1, 7, 168),
    ("A", 2, 2, 168),
    ("A", 2, 4, 20160),
    ("A", 3, 2, 20160),
    ("A", 4, 2, 9999360),
    ("2A", 2, 3, 6048),
    ("2A", 3, 2, 25920),
    ("B", 2, 3, 25920),
    ("B", 3, 2, 1451520),
    ("C", 3, 2, 1451520),
    ("D", 4, 2, 174182400),
    ("G2", 2, 3, 4245696),
    ("2B2", 2, 8, 29120),
    ("2G2", 2, 27, 10073444472),
    ("3D4", 4, 2, 211341312),
    ("F4", 4, 2, 3311126603366400),
]


class TestOrders:
    @pytest.mark.parametrize("family,rank,q,expected", KNOWN_ORDERS)
    def test_known_orders(self, family, rank, q, expected):
        group = lie_group(family, rank, q)
        assert group_order(group).value == expected

    def test_sz8_factorization(self):
        factored = group_order(lie_group("2B2", 2, 8))
        assert factored.value == 29120
        assert factored.factors == {2: 6, 5: 1, 7: 1, 13: 1}

    def test_generic_order_route_agrees(self):
        samples = {
            "A": [(1, 5), (2, 3), (4, 2)], "B": [(2, 3), (3, 2), (2, 5)],
            "C": [(3, 2), (3, 3), (4, 2)], "D": [(4, 2), (4, 3), (5, 2)],
            "2A": [(2, 3), (3, 2), (4, 2)], "2D": [(4, 2), (4, 3), (5, 2)],
            "E6": [(6, 2), (6, 3), (6, 4)], "E7": [(7, 2), (7, 3), (7, 4)],
            "E8": [(8, 2), (8, 3), (8, 4)], "F4": [(4, 2), (4, 3), (4, 4)],
            "G2": [(2, 3), (2, 4), (2, 5)], "2E6": [(6, 2), (6, 3), (6, 4)],
            "3D4": [(4, 2), (4, 3), (4, 4)], "2B2": [(2, 8), (2, 32), (2, 128)],
            "2F4": [(4, 8), (4, 32), (4, 128)], "2G2": [(2, 27), (2, 243), (2, 2187)],
        }
        for family, points in samples.items():
            for rank, q in points:
                factored = group_order(lie_group(family, rank, q))
                assert factored.value == oracle_order(family, rank, q), (family, rank, q)
                assert math.prod(r**k for r, k in factored.factors.items()) == factored.value

    # q = 2 is where Phi_1(2) = 1 and Phi_2(2) = Phi_6(2) = 3
    @pytest.mark.parametrize("family,rank,qs", [
        ("A", 3, (2, 3, 4, 8)), ("B", 3, (2, 3, 4, 8)), ("C", 3, (2, 3, 4, 8)),
        ("D", 4, (2, 3, 4, 8)), ("2A", 5, (2, 3, 4, 8)), ("2D", 4, (2, 3, 4, 8)),
        ("E6", 6, (2, 3, 4, 8)), ("E7", 7, (2, 3, 4, 8)), ("E8", 8, (2, 3, 4, 8)),
        ("F4", 4, (2, 3, 4, 8)), ("G2", 2, (3, 4, 8)), ("2E6", 6, (2, 3, 4, 8)),
        ("3D4", 4, (2, 3, 4, 8)), ("2B2", 2, (8, 32)), ("2F4", 4, (8, 32)),
        ("2G2", 2, (27, 243)),
    ])
    def test_factors_match_sympy(self, family, rank, qs):
        for q in qs:
            factored = group_order(lie_group(family, rank, q))
            assert factored.factors == sympy.factorint(factored.value), (family, rank, q)


class TestDescriptors:
    @pytest.mark.parametrize(
        "family,rank,q",
        [("A", 1, 2), ("A", 1, 3), ("2A", 2, 2), ("B", 2, 2), ("G2", 2, 2),
         ("2B2", 2, 2), ("2B2", 2, 4), ("2G2", 2, 3), ("A", 1, 6), ("C", 2, 3),
         ("D", 3, 2), ("E6", 5, 2), ("X", 1, 2)],
    )
    def test_rejections(self, family, rank, q):
        with pytest.raises(InvalidDescriptor):
            lie_group(family, rank, q)

    def test_tits_group(self):
        with pytest.raises(TitsGroup) as err:
            lie_group("2F4", 4, 2)
        assert "principal 3-, 5- and 13-blocks" in str(err.value)

    def test_accepted_edge_cases(self):
        # simple groups that the data-table conditions exclude are still valid
        for family, rank, q in [("A", 2, 2), ("A", 2, 4), ("A", 5, 2),
                                ("B", 3, 2), ("D", 6, 2), ("2A", 3, 2), ("B", 2, 4)]:
            lie_group(family, rank, q)


class TestEOf:
    def test_examples(self):
        assert e_of(5, 2) == 4
        assert e_of(2, 7) == 2
        assert e_of(3, 4) == 1
        assert e_of(2, 5) == 1

    def test_bad_prime(self):
        with pytest.raises(BadPrime):
            e_of(2, 8)
        with pytest.raises(BadPrime):
            e_of(3, 27)


class TestZsigmondy:
    def test_exception_cases(self):
        assert zsigmondy(2, 6) is None
        assert zsigmondy(3, 2) is None  # 3 = 2^2 - 1
        assert zsigmondy(7, 2) is None
        assert zsigmondy(2, 4) == 5

    def test_brute_force_agreement(self):
        def oracle(t, n):
            # scan all prime divisors of t^n - 1 directly
            for r in prime_divisors_of(t**n - 1):
                if all((t**m - 1) % r for m in range(1, n)):
                    return r
            return None

        for t in range(2, 13):
            for n in range(2, 13):
                assert zsigmondy(t, n) == oracle(t, n), (t, n)

    def test_matches_sympy_scan(self):
        # the smallest prime of t^n - 1 that divides no t^m - 1 with m < n
        for t in range(2, 14):
            for n in range(2, 25):
                expected = next(
                    (r for r in sympy.primefactors(t**n - 1)
                     if all((t**m - 1) % r for m in range(1, n))),
                    None,
                )
                assert zsigmondy(t, n) == expected, (t, n)

    def test_multiplicative_order_matches_sympy(self):
        for n in range(2, 200):  # sympy.n_order takes n > 1 only
            for a in range(1, 200):
                if math.gcd(a, n) == 1:
                    assert multiplicative_order(a, n) == sympy.n_order(a, n), (a, n)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            zsigmondy(1, 5)
        with pytest.raises(ValueError):
            zsigmondy(5, 1)


class TestFactorizeBudget:
    def test_rho_steps_are_capped(self, monkeypatch):
        # both primes are past trial division, so rho has to split them
        n = 1000003 * 1000033
        assert factorize(n) == {1000003: 1, 1000033: 1}
        monkeypatch.setattr(_numtheory, "RHO_STEPS", 10)
        with pytest.raises(FactorizationTooHard):
            factorize(n)

    def test_primes_and_smooth_values_take_no_rho_step(self, monkeypatch):
        monkeypatch.setattr(_numtheory, "RHO_STEPS", 0)
        assert factorize(2**61 - 1) == {2**61 - 1: 1}
        assert factorize(9999991 * 2**10 * 3**5) == {2: 10, 3: 5, 9999991: 1}


class TestRegularNumbers:
    def test_e8_thirty(self):
        assert is_regular("E8", 8, 30)

    def test_a4_three_not_regular(self):
        assert not is_regular("A", 4, 3)

    def test_floor_one_and_two(self):
        for family in FAMILIES:
            ranks = [FIXED_RANKS[family]] if family in FIXED_RANKS else range(
                {"A": 1, "B": 2, "C": 3, "D": 4, "2A": 2, "2D": 4}[family], 13
            )
            for rank in ranks:
                assert is_regular(family, rank, 1), (family, rank)
                assert is_regular(family, rank, 2), (family, rank)

    def test_encoded_twisted_rules_match_count_criterion(self):
        # is_regular runs the count criterion; the oracle runs the closed forms
        for family, lo in (("2A", 2), ("2D", 4)):
            for rank in range(lo, 13):
                for e in range(1, 40):
                    assert is_regular(family, rank, e) == oracle_twisted_regular(family, rank, e), (
                        family, rank, e,
                    )
        for e in range(1, 40):
            assert is_regular("2E6", 6, e) == oracle_twisted_regular("2E6", 6, e), e

    def test_table_e_column_regular_up_to_rank_12(self):
        entries = (
            [("A", n, n + 1) for n in range(1, 13)]
            + [("B", n, 2 * n) for n in range(2, 13)]
            + [("C", n, 2 * n) for n in range(3, 13)]
            + [("D", n, n) for n in range(4, 13)]
            + [("2A", n, 2 * (n + 1)) for n in range(2, 13, 2)]
            + [("2A", n, 2 * n) for n in range(3, 13, 2)]
            + [("2D", n, 2 * n) for n in range(4, 13)]
            + [("E6", 6, 9), ("E7", 7, 18), ("E8", 8, 30), ("F4", 4, 12), ("G2", 2, 6),
               ("2E6", 6, 18), ("3D4", 4, 12), ("2B2", 2, 4), ("2F4", 4, 12), ("2G2", 2, 6)]
        )
        for family, rank, e in entries:
            assert is_regular(family, rank, e), (family, rank, e)


class TestTable2:
    def test_e8_row_at_two(self):
        row = table2_row(lie_group("E8", 8, 2))
        assert row.e == 30
        assert row.sylow_e_order == 331
        assert row.relative_weyl_order == 30
        assert row.ord_r_of_p == 30
        assert row.torus_order == 331

    def test_ree_row_at_27(self):
        row = table2_row(lie_group("2G2", 2, 27))
        assert row.sylow_e_order == 27 - 9 + 1 == 19
        assert row.e == 6

    def test_suzuki_row(self):
        row = table2_row(lie_group("2B2", 2, 8))
        assert row.sylow_e_order == 8 + 4 + 1 == 13
        assert row.e == 4 and row.ord_r_of_p == 12

    def test_condition_violated(self):
        with pytest.raises(ConditionViolated):
            table2_row(lie_group("A", 2, 2))
        with pytest.raises(ConditionViolated):
            table2_row(lie_group("F4", 4, 2))
        with pytest.raises(ConditionViolated):
            table2_row(lie_group("B", 2, 4))

    def test_zsigmondy_prime_of_sylow_torus(self):
        assert zsigmondy_prime_of_Te(lie_group("E8", 8, 2)) == 331
        assert zsigmondy_prime_of_Te(lie_group("A", 5, 2)) is None
        assert zsigmondy_prime_of_Te(lie_group("B", 2, 3)) == 5


class TestSteinbergPredicate:
    def test_examples(self):
        assert steinberg_in_principal_block(lie_group("A", 1, 7), 3) is True
        assert steinberg_in_principal_block(lie_group("A", 4, 2), 7) is False
        assert steinberg_in_principal_block(lie_group("2B2", 2, 8), 5) is True

    def test_errors(self):
        with pytest.raises(DefiningPrime):
            steinberg_in_principal_block(lie_group("A", 1, 7), 7)
        with pytest.raises(NotADivisor):
            steinberg_in_principal_block(lie_group("A", 1, 7), 5)


def _two_smallest_legal_q(family, rank):
    accepted = []
    q = 2
    while len(accepted) < 2:
        try:
            group = lie_group(family, rank, q)
            table2_row(group)
        except (InvalidDescriptor, ConditionViolated, ValueError):
            pass
        else:
            accepted.append(q)
        q += 1
        if q > 2000:
            raise AssertionError((family, rank))
    return accepted


ROWS = [
    ("A", 1), ("B", 2), ("C", 3), ("D", 4), ("E6", 6), ("E7", 7), ("E8", 8),
    ("F4", 4), ("G2", 2), ("2A", 2), ("2A", 3), ("2D", 4), ("2E6", 6), ("3D4", 4),
]
VERY_TWISTED_ROWS = [("2B2", 2, [8, 32]), ("2F4", 4, [8, 32]), ("2G2", 2, [27, 243])]


class TestTable2Integrity:
    @pytest.mark.parametrize("family,rank", ROWS)
    def test_divisibility_and_zsigmondy_order(self, family, rank):
        for q in _two_smallest_legal_q(family, rank):
            group = lie_group(family, rank, q)
            row = table2_row(group)
            order = group_order(group).value
            assert row.torus_order % row.sylow_e_order == 0, (family, rank, q)
            assert order % row.torus_order == 0, (family, rank, q)
            r = zsigmondy_prime_of_Te(group)
            if r is not None:
                assert multiplicative_order(group.p, r) == row.ord_r_of_p

    @pytest.mark.parametrize("family,rank,qs", VERY_TWISTED_ROWS)
    def test_very_twisted(self, family, rank, qs):
        for q in qs:
            group = lie_group(family, rank, q)
            row = table2_row(group)
            order = group_order(group).value
            assert row.torus_order % row.sylow_e_order == 0
            assert order % row.torus_order == 0
            r = zsigmondy_prime_of_Te(group)
            if r is not None:
                assert multiplicative_order(group.p, r) == row.ord_r_of_p
