"""The ideal oracle's finite fields: irreducibility, the counter-order search
and roots of unity, checked against sympy (a test-only oracle) and brute
force."""

import pytest
from sympy import Poly, symbols

from ideal_oracle import (
    GF,
    _element,
    _int_to_poly,
    _root_of_unity,
    find_irreducible,
    is_irreducible,
)
from blockgraph._numtheory import factorize, multiplicative_order

Y = symbols("y")


def sympy_irreducible(p, f):
    return Poly([int(c) for c in reversed(f)], Y, modulus=p).is_irreducible


def monic_polynomials(p, k):
    for counter in range(p**k):
        yield counter, _int_to_poly(p, k, counter)


def exact_order(field, z):
    one = field.one()
    power, n = z, 1
    while not field.equal(power, one):
        power, n = field.mul(power, z), n + 1
    return n


def scan_from_one(field, order):
    """The root-of-unity scan over every counter, constants included."""
    cofactor = (field.p**field.k - 1) // order
    one = field.one()
    for counter in range(1, field.p**field.k):
        z = field.pow(_element(field, counter), cofactor)
        if order == 1 or (
            not field.equal(z, one)
            and all(
                not field.equal(field.pow(z, order // ell), one)
                for ell in factorize(order)
            )
        ):
            return z
    raise AssertionError("no element of the requested order")


# The counter c of f = _int_to_poly(p, k, c) that find_irreducible returns
# at the degrees the bundled tables (at their value conductors and at their
# exponents) and the Dixon ladder S5-S8, PSL(2,p) for 13 <= p <= 41 give
# rise to.  The counters were recorded from the Ben-Or search that Rabin's
# test replaced.  They are the only check of the search above the degrees
# the sympy comparisons reach, and the oracle's ideals at the group
# exponents use degrees up to 180.
WORKLOAD_COUNTERS = {
    (2, 2): 3, (2, 3): 3, (2, 4): 3, (2, 6): 3, (2, 12): 9, (2, 20): 9,
    (2, 24): 27, (2, 36): 53, (2, 60): 3, (2, 84): 33, (2, 110): 83,
    (2, 180): 9, (3, 2): 1, (3, 4): 5, (3, 6): 5, (3, 16): 37, (3, 18): 34,
    (3, 20): 34, (3, 24): 83, (3, 36): 40, (3, 60): 11, (3, 84): 385,
    (3, 110): 34, (3, 180): 133, (5, 5): 21, (5, 6): 7, (5, 9): 38,
    (5, 10): 33, (5, 12): 9, (5, 18): 6, (5, 42): 102, (5, 60): 138,
    (5, 90): 102, (7, 12): 58, (7, 28): 57, (7, 40): 17, (7, 60): 155,
    (11, 3): 15, (11, 6): 13, (11, 22): 15, (13, 2): 2, (13, 12): 2,
    (17, 2): 3, (19, 2): 1, (19, 30): 393, (19, 36): 435, (23, 2): 1,
    (29, 2): 2, (31, 2): 1, (31, 6): 5, (37, 2): 2, (41, 2): 3,
}


class TestIsIrreducible:
    @pytest.mark.parametrize(
        "p,max_degree", [(2, 9), (3, 6), (5, 4), (7, 3)]
    )
    def test_agrees_with_sympy_on_every_monic(self, p, max_degree):
        for k in range(1, max_degree + 1):
            for counter, f in monic_polynomials(p, k):
                assert is_irreducible(p, f) == sympy_irreducible(p, f), (
                    p, k, counter,
                )


class TestFindIrreducible:
    @pytest.mark.parametrize(
        "p,max_degree", [(2, 10), (3, 7), (5, 5), (7, 4), (11, 3), (13, 3)]
    )
    def test_first_irreducible_in_counter_order(self, p, max_degree):
        for k in range(1, max_degree + 1):
            expected = next(
                f for _, f in monic_polynomials(p, k) if sympy_irreducible(p, f)
            )
            assert find_irreducible(p, k) == tuple(int(c) for c in expected)

    @pytest.mark.parametrize("p,k", sorted(WORKLOAD_COUNTERS))
    def test_workload_fields_are_pinned(self, p, k):
        f = find_irreducible(p, k)
        assert f == tuple(
            int(c) for c in _int_to_poly(p, k, WORKLOAD_COUNTERS[p, k])
        )
        assert sympy_irreducible(p, f)


class TestRootOfUnity:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_exact_order_and_same_as_full_scan(self, p):
        for order in range(1, 61):
            if order % p == 0:
                continue
            k = multiplicative_order(p, order) if order > 1 else 1
            field = GF(p, find_irreducible(p, k))
            z = _root_of_unity(field, order)
            assert exact_order(field, z) == order, (p, order)
            assert field.equal(z, scan_from_one(field, order)), (p, order)

    def test_rejects_order_not_dividing_group(self):
        field = GF(5, find_irreducible(5, 2))
        with pytest.raises(ValueError):
            _root_of_unity(field, 7)

    @pytest.mark.parametrize("p,k", [(5, 3), (7, 2), (11, 3), (13, 2)])
    def test_constant_roots_in_an_extension(self, p, k):
        # an order dividing p - 1 is met by constants even when k > 1, and
        # the scan must still try them first (at (7, 2, 3) the first
        # non-constant candidate gives 4 where the constants give 2)
        field = GF(p, find_irreducible(p, k))
        for order in range(2, p):
            if (p - 1) % order:
                continue
            z = _root_of_unity(field, order)
            assert not z[1:].any()
            assert exact_order(field, z) == order
            assert field.equal(z, scan_from_one(field, order)), (p, k, order)
