import random
import time
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from sympy import Poly, symbols
from sympy import cyclotomic_poly as sympy_cyclotomic

import blockgraph
import blockgraph.cyclotomic
import blockgraph.intpoly
from blockgraph._numtheory import coprime_part, divisors, euler_phi, factorize
from blockgraph.cyclotomic import (
    Cyclotomic,
    conjugate,
    cyc_add,
    cyc_div_by_int,
    cyc_make,
    cyc_mul,
    cyc_neg,
    cyclotomic_polynomial,
    galois,
    parse_cyclotomic,
    zeta,
)
from blockgraph.errors import CycParseError, NotAlgebraicInteger
from blockgraph.intpoly import cyclotomic_value
from ideal_oracle import (
    ConductorMismatch,
    make_reduction_context,
    reduce_cyclotomic,
    reduction_contexts,
)
from poly_oracle import IntPolynomial, x_power_minus_one
from poly_oracle import cyclotomic_polynomial as oracle_cyclotomic_polynomial

Y = symbols("y")


def rational(n):
    return Cyclotomic(1, (n,))


class TestMake:
    def test_zeta4_squared_is_minus_one(self):
        assert cyc_make(4, [(2, 1)]) == rational(-1)

    def test_sum_of_primitive_fifth_roots(self):
        assert cyc_make(5, [(1, 1), (2, 1), (3, 1), (4, 1)]) == rational(-1)

    def test_gauss_period_product(self):
        # independent oracle: expand the 9-term product as exponent sums
        # mod 7 and reduce with 1 + z + ... + z^6 = 0 by hand bookkeeping
        terms = {}
        for e1 in (1, 2, 4):
            for e2 in (3, 5, 6):
                e = (e1 + e2) % 7
                terms[e] = terms.get(e, 0) + 1
        constant = terms.pop(0, 0)
        # remaining exponents 1..6 all appear equally often -> rational
        assert len(set(terms.values())) == 1
        expected = constant - next(iter(terms.values()))
        assert expected == 2
        a = cyc_make(7, [(1, 1), (2, 1), (4, 1)])
        b = cyc_make(7, [(3, 1), (5, 1), (6, 1)])
        assert cyc_mul(a, b) == rational(expected)

    def test_rejects_zero_conductor(self):
        with pytest.raises(ValueError):
            cyc_make(0, [(0, 1)])

    def test_exponents_reduced_mod_n(self):
        assert cyc_make(5, [(7, 1)]) == zeta(5, 2)
        assert cyc_make(5, [(-1, 1)]) == zeta(5, 4)

    def test_large_conductor_expansion(self):
        # exponent above phi(n), so expansion divides by Phi_1155
        v = cyc_make(1155, [(1154, 1)])
        assert v.conductor == 1155
        assert v * zeta(1155, 1) == rational(1)


class TestRingOps:
    def test_add_examples(self):
        assert cyc_add(zeta(3), zeta(3, 2)) == rational(-1)
        assert cyc_mul(zeta(4), zeta(4)) == rational(-1)
        sqrt2 = cyc_add(zeta(8), zeta(8, 7))
        assert cyc_add(sqrt2, rational(0)) == sqrt2
        assert sqrt2.conductor == 8
        assert cyc_mul(sqrt2, sqrt2) == rational(2)

    def test_neg(self):
        assert cyc_neg(zeta(3)) + zeta(3) == rational(0)

    def test_ring_laws_random(self):
        rng = random.Random(2024)
        for _ in range(120):
            n = rng.randrange(1, 40)
            def value():
                return cyc_make(n, [(rng.randrange(n), rng.randrange(-5, 6)) for _ in range(3)])
            a, b, c = value(), value(), value()
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_mul_matches_naive_polynomial_reduction(self):
        # independent oracle: multiply power-basis polynomials and reduce
        # modulo Phi_n by long division over Z
        rng = random.Random(11)
        for n in [rng.randrange(2, 30) for _ in range(40)] + [513, 585, 1155, 2310]:
            a = cyc_make(n, [(rng.randrange(n), rng.randrange(-4, 5)) for _ in range(3)])
            b = cyc_make(n, [(rng.randrange(n), rng.randrange(-4, 5)) for _ in range(3)])
            lcm = a.conductor * b.conductor // gcd(a.conductor, b.conductor)
            pa = IntPolynomial(
                _embedded_coeffs(a, lcm)
            )
            pb = IntPolynomial(_embedded_coeffs(b, lcm))
            phi = IntPolynomial(cyclotomic_polynomial(lcm))
            _, rem = (pa * pb).divmod(phi)
            product = a * b
            assert IntPolynomial(_embedded_coeffs(product, lcm)).divmod(phi)[1] == rem

    def test_stretch_canonicalization(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randrange(1, 40)
            t = rng.randrange(1, 5)
            terms = [(rng.randrange(n), rng.randrange(-5, 6)) for _ in range(4)]
            assert cyc_make(n, terms) == cyc_make(n * t, [(e * t, c) for e, c in terms])

    def test_galois_orbit_sum_rational(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randrange(2, 36)
            a = cyc_make(n, [(rng.randrange(n), rng.randrange(-4, 5)) for _ in range(3)])
            total = rational(0)
            for k in range(1, a.conductor + 1):
                if gcd(k, a.conductor) == 1:
                    total = total + galois(a, k)
            assert total.is_rational()

    def test_conjugate_is_inverse_galois(self):
        v = zeta(7) + 2 * zeta(7, 3)
        assert conjugate(v) == galois(v, 6)
        assert conjugate(conjugate(v)) == v


def _embedded_coeffs(value, lcm):
    stretch = lcm // value.conductor
    coeffs = [0] * (stretch * (len(value.coeffs) - 1) + 1 or 1)
    for e, c in enumerate(value.coeffs):
        if c:
            coeffs[e * stretch] = c
    return coeffs


class TestDivision:
    def test_examples(self):
        assert cyc_div_by_int(rational(6), 3) == rational(2)
        v = zeta(3) - zeta(3, 2)
        assert cyc_div_by_int(v, 1) == v
        assert cyc_div_by_int(2 * zeta(5) + 2 * zeta(5, 4), 2) == zeta(5) + zeta(5, 4)

    def test_non_integral(self):
        with pytest.raises(NotAlgebraicInteger):
            cyc_div_by_int(zeta(5), 2)
        with pytest.raises(NotAlgebraicInteger):
            cyc_div_by_int(rational(3), 2)


class TestCyclotomicPolynomial:
    def test_small(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)

    def test_phi_30(self):
        # x^8 + x^7 - x^5 - x^4 - x^3 + x + 1
        assert cyclotomic_polynomial(30) == (1, 1, 0, -1, -1, -1, 0, 1, 1)

    def test_rejects_nonpositive(self):
        for n in (0, -3):
            with pytest.raises(ValueError):
                cyclotomic_polynomial(n)

    def test_product_identity_up_to_200(self):
        for n in range(1, 201):
            product = IntPolynomial((1,))
            for d in range(1, n + 1):
                if n % d == 0:
                    product = product * IntPolynomial(cyclotomic_polynomial(d))
            assert product == x_power_minus_one(n), n

    def test_matches_sympy_up_to_300(self):
        for n in range(1, 301):
            expected = Poly(sympy_cyclotomic(n, Y), Y).all_coeffs()[::-1]
            assert cyclotomic_polynomial(n) == tuple(int(c) for c in expected), n

    def test_matches_exact_division_below_1200(self):
        for n in range(1, 1200):
            assert cyclotomic_polynomial(n) == oracle_cyclotomic_polynomial(n).coeffs, n

    @pytest.mark.parametrize("n", [15015, 30030])
    def test_large_conductor_is_fast_and_exact(self, n):
        # Phi_n(2) = prod_{d | n} (2^d - 1)^mu(n/d), as an exact rational
        cyclotomic_polynomial.cache_clear()
        start = time.perf_counter()
        coeffs = cyclotomic_polynomial(n)
        assert time.perf_counter() - start < 0.5
        assert len(coeffs) - 1 == euler_phi(n)
        expected = Fraction(1)
        for d in divisors(n):
            s = n // d
            if all(s % (p * p) for p in factorize(s)):
                expected *= Fraction(2**d - 1) ** (-1) ** len(factorize(s))
        assert cyclotomic_value(n, 2) == expected

    def test_value_is_horner_evaluation(self):
        for n in range(1, 60):
            for x in (-3, 0, 1, 2, 7):
                assert cyclotomic_value(n, x) == IntPolynomial(cyclotomic_polynomial(n))(x)

    def test_int_polynomial_is_not_exported(self):
        assert not hasattr(blockgraph, "IntPolynomial")
        assert not hasattr(blockgraph.cyclotomic, "IntPolynomial")
        assert not hasattr(blockgraph.intpoly, "IntPolynomial")


class TestGrammar:
    def test_round_trips(self):
        texts = ["0", "1", "-5", "E(8)-E(8)^3", "-1-E(5)^2-E(5)^3",
                 "1+3*E(7)^2-2*E(7)^4", "-E(3)", "2*E(4)"]
        for text in texts:
            value = parse_cyclotomic(text)
            assert str(value) == text
            assert parse_cyclotomic(str(value)) == value

    def test_minimal_conductor_printing(self):
        assert str(parse_cyclotomic("E(4)^2")) == "-1"
        assert str(parse_cyclotomic("E(6)")) == "1+E(3)"
        assert str(parse_cyclotomic("E(5)+E(10)^2")) == "2*E(5)"

    def test_whitespace_ignored(self):
        assert parse_cyclotomic(" 2 * E( 5 ) ^ 3 + 1 ") == 2 * zeta(5, 3) + 1

    def test_errors(self):
        for bad in ["", "E(", "E(0)", "1 + ", "E(5)^", "2*", "x", "1++1", "1 2"]:
            with pytest.raises(CycParseError):
                parse_cyclotomic(bad)


class TestReduction:
    def test_context_exponent_six_p_two(self):
        ctx = make_reduction_context(6, 2)
        assert (ctx.m_prime, ctx.degree) == (3, 2)
        assert ctx.modulus == (1, 1, 1)  # the unique irreducible quadratic

    def test_context_exponent_four_p_two(self):
        ctx = make_reduction_context(4, 2)
        assert (ctx.m_prime, ctx.degree) == (1, 1)
        assert reduce_cyclotomic(rational(1), ctx).coeffs == (1,)

    def test_context_fifteen_factors(self):
        # brute-force oracle: scan all monic quartics over F_2 for factors
        phi15 = [c % 2 for c in cyclotomic_polynomial(15)]

        def poly_mul2(a, b):
            out = [0] * (len(a) + len(b) - 1)
            for i, ca in enumerate(a):
                for j, cb in enumerate(b):
                    out[i + j] ^= ca & cb
            return out

        quartic_factors = []
        for bits in range(16):
            cand = [bits & 1, bits >> 1 & 1, bits >> 2 & 1, bits >> 3 & 1, 1]
            for bits2 in range(16):
                other = [bits2 & 1, bits2 >> 1 & 1, bits2 >> 2 & 1, bits2 >> 3 & 1, 1]
                if poly_mul2(cand, other) == phi15:
                    quartic_factors.append(tuple(cand))
        ctx = make_reduction_context(15, 2)
        field = ctx.field
        zeta_bar = np.array(ctx.zeta_bar)
        assert field.equal(field.pow(zeta_bar, 15), field.one())
        assert not any(field.equal(field.pow(zeta_bar, 15 // q), field.one()) for q in (3, 5))

        def value_at(f, z):
            acc = field.zero()
            for c in reversed(f):
                acc = (field.mul(acc, z) + c * field.one()) % 2
            return acc

        vanishing = [f for f in set(quartic_factors) if not value_at(f, zeta_bar).any()]
        assert len(vanishing) == 1
        # golden ratio: image of E(5)+E(5)^4 satisfies z^2 + z - 1 = 0 mod 2
        z = np.array(reduce_cyclotomic(zeta(5) + zeta(5, 4), ctx).coeffs)
        assert np.array_equal(field.mul(z, z), (z + field.one()) % 2)

    def test_rational_reduction(self):
        ctx = make_reduction_context(3, 3)
        assert reduce_cyclotomic(rational(5), ctx).coeffs == (2,)

    def test_zeta3_maps_to_generator(self):
        ctx = make_reduction_context(6, 2)
        assert reduce_cyclotomic(zeta(3), ctx).coeffs == (0, 1)

    def test_conductor_mismatch(self):
        ctx = make_reduction_context(6, 2)
        with pytest.raises(ConductorMismatch):
            reduce_cyclotomic(zeta(5), ctx)

    def test_ring_homomorphism(self):
        rng = random.Random(3)
        for m, p in [(30, 7), (15, 2), (20, 3), (12, 5)]:
            ctx = make_reduction_context(m, p)
            field = ctx.field
            for _ in range(25):
                n = rng.choice([d for d in range(1, m + 1) if m % d == 0])
                a = cyc_make(n, [(rng.randrange(n), rng.randrange(-9, 10)) for _ in range(3)])
                b = cyc_make(n, [(rng.randrange(n), rng.randrange(-9, 10)) for _ in range(3)])
                ra = np.array(reduce_cyclotomic(a, ctx).coeffs)
                rb = np.array(reduce_cyclotomic(b, ctx).coeffs)
                assert reduce_cyclotomic(a + b, ctx).coeffs == tuple((ra + rb) % p)
                assert reduce_cyclotomic(a * b, ctx).coeffs == tuple(
                    int(v) for v in field.mul(ra, rb)
                )

    @pytest.mark.parametrize("m, p", [(15, 2), (35, 3), (16, 3), (21, 2), (60, 7), (77, 2)])
    def test_one_context_per_factor_of_phi(self, m, p):
        # sympy oracle: the maximal ideals over p in Z[zeta_m] are the
        # irreducible factors of Phi_{m'} mod p; each must vanish at the
        # zeta_bar of exactly one context
        m_prime = coprime_part(m, p)
        _, factors = Poly(sympy_cyclotomic(m_prime, Y), Y, modulus=p).factor_list()
        contexts = reduction_contexts(m, p)
        assert len(factors) > 1
        assert len(contexts) == len(factors)
        field = contexts[0].field

        def value_at(coeffs, z):
            acc = field.zero()
            for c in coeffs:
                acc = (field.mul(acc, z) + int(c) * field.one()) % p
            return acc

        for factor, _ in factors:
            coeffs = factor.all_coeffs()  # leading coefficient first
            roots = [
                ctx for ctx in contexts
                if not value_at(coeffs, np.array(ctx.zeta_bar)).any()
            ]
            assert len(roots) == 1, (m, p, factor)
