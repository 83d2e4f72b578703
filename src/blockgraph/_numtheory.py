"""Small exact number-theory helpers: primality, factorization, orders.

Everything works on Python ints of arbitrary size.  Factorization is trial
division up to a fixed bound followed by Pollard rho, which is plenty for the
desk-scale inputs here (group orders, cyclotomic polynomial values).  The rho
steps of one call are capped, so a value with no small enough factor fails
fast with FactorizationTooHard instead of running on.
"""

import math
from functools import lru_cache

from .errors import FactorizationTooHard

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Pollard rho steps allowed in one factorize call: a few seconds of work,
# about sqrt(p) steps for the smallest prime factor p left after trial
# division, so every factor below about 10^12 is found
RHO_STEPS = 10**6


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (the 12-base set is exact below 3.3e24)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int, budget: int) -> tuple[int, int]:
    # Floyd's cycle finding, one gcd per step; n must be odd composite.
    # Returns a proper factor and what is left of the budget of steps.
    if n % 2 == 0:
        return 2, budget
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            if not budget:
                raise FactorizationTooHard(f"no factor of {n} within {RHO_STEPS} rho steps")
            budget -= 1
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d, budget
    raise ArithmeticError(f"rho failed on {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}.

    Raises FactorizationTooHard when the Pollard rho steps of the call
    would pass RHO_STEPS.
    """
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    budget = RHO_STEPS
    factors: dict[int, int] = {}
    for p in range(2, 10000):
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d, budget = _pollard_rho(m, budget)
        stack.append(d)
        stack.append(m // d)
    return dict(sorted(factors.items()))


def prime_divisors_of(n: int) -> list[int]:
    """Ascending list of primes dividing n."""
    return sorted(factorize(n))


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


@lru_cache(maxsize=128)
def euler_phi(n: int) -> int:
    phi = n
    for p in factorize(n):
        phi = phi // p * (p - 1)
    return phi


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n."""
    part = 1
    while n % p == 0:
        part *= p
        n //= p
    return part


def p_adic_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        v += 1
        n //= p
    return v


def coprime_part(n: int, p: int) -> int:
    """The p'-part of n."""
    while n % p == 0:
        n //= p
    return n


def multiplicative_order(a: int, n: int) -> int:
    """Order of a in (Z/n)*; n >= 1, gcd(a, n) must be 1."""
    if n == 1:
        return 1
    a %= n
    if math.gcd(a, n) != 1:
        raise ValueError(f"{a} is not invertible mod {n}")
    order = euler_phi(n)
    for p in factorize(order):
        while order % p == 0 and pow(a, order // p, n) == 1:
            order //= p
    return order
