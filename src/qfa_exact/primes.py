"""The prime factors of what trial division leaves of a large modulus,
on the standard library alone.

`arith.smallest_modulus` trial-divides by the primes up to 1000 and
hands what is left of N, when it lies below arith._MILLER_RABIN_EXACT,
to `prime_factors`: Miller-Rabin on the 13 prime bases up to 41 decides
primality exactly there, and Pollard's rho with Brent's cycle search
splits each composite. Only such a modulus loads this module, so no
other start-up compiles it.
"""

from itertools import count
from math import gcd

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_RHO_BATCH = 128  # differences multiplied together per gcd


def is_prime(n: int) -> bool:
    """Whether n > 1 is prime, by Miller-Rabin on the prime bases up to
    41. Exact below 3 317 044 064 679 887 385 961 981, the least strong
    pseudoprime to all 13 (Sorenson and Webster, Math. Comp. 86, 2017)."""
    if n in _BASES:
        return True
    if any(n % base == 0 for base in _BASES):
        return False
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    for base in _BASES:
        x = pow(base, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_divisor(n: int) -> int:
    """A divisor 1 < g < n of a composite n: Pollard's rho walk
    y -> y^2 + c mod n with Brent's cycle search (Brent, BIT 20, 1980),
    which takes one gcd per _RHO_BATCH steps, steps back one at a time
    when a batch closes on n, and starts over with the next c when a
    walk finds no proper divisor."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def prime_factors(n: int) -> set[int]:
    """The distinct prime factors of n > 1; exact where `is_prime` is."""
    if is_prime(n):
        return {n}
    g = _rho_divisor(n)
    return prime_factors(g) | prime_factors(n // g)
