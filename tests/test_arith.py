"""The integer arithmetic module: standard library only, one home for the
size formulas, and an exact quadrant check of the angle multiplier."""

from math import prod

import pytest

import qfa_exact
from qfa_exact import arith, dfa, primes, synth
from test_lazy_imports import run_fresh


def test_arith_loads_no_other_package_module_and_no_numpy():
    # `primes` loads only when a modulus leaves a rest past trial division
    result = run_fresh(
        "import sys\n"
        "import qfa_exact.arith\n"
        "loaded = lambda: sorted(name for name in sys.modules if name.startswith('qfa_exact'))\n"
        "print(loaded(), qfa_exact.arith.smallest_modulus(10**6, 1), loaded())\n"
        "print(qfa_exact.arith.smallest_modulus(SEMIPRIME, 1), loaded())\n"
        "print('numpy' in sys.modules)",
        SEMIPRIME=SEMIPRIME,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "['qfa_exact', 'qfa_exact.arith'] 2 ['qfa_exact', 'qfa_exact.arith']",
        "999999929 ['qfa_exact', 'qfa_exact.arith', 'qfa_exact.primes']",
        "False",
    ]


@pytest.mark.parametrize("name", ["smallest_modulus", "smallest_modulus_alt", "smallest_nondivisor"])
def test_each_size_function_is_one_object_under_every_name(name):
    assert getattr(qfa_exact, name) is getattr(dfa, name) is getattr(arith, name)
    assert name in qfa_exact.__all__


def test_the_multiplier_lands_in_the_nonpositive_quadrant_in_integers():
    # cos(2*pi*r/N) <= 0 iff N <= 4r <= 3N, with r = q*l mod N: the exact
    # twin of select_angle's float check, on every 0 < l < N <= 600
    checked = 0
    for N in range(2, 601):
        for l in range(1, N):
            q, case = arith.angle_multiplier(N, l)
            assert N <= 4 * (q * l % N) <= 3 * N, (N, l, q)
            assert case == ("small_l" if 4 * l < N else "mid" if 4 * l <= 3 * N else "large_l"), (N, l)
            selection = synth.select_angle(N, l)
            assert (selection.q, selection.case_tag) == (q, case), (N, l)
            checked += 1
    assert checked == 179_700


# known factorizations: semiprimes and squares of primes near 10**9, the
# strong pseudoprime to the prime bases up to 23, and Carmichael numbers
# (6k+1)(12k+1)(18k+1) whose primes all lie past the trial-division limit
FACTORED = [
    (999999937, 999999929),
    (1000000007, 1000000009),
    (999999937, 999999937),
    (1000000007, 1000000007),
    (999999937, 999999937, 1009),
    (149491, 747451, 34233211),
    (1171, 2341, 3511),
    (1237, 2473, 3709),
    (1009, 1013),
    # rho's first walk overshoots and steps back (1009 * 1049), then
    # also closes on n and starts over (1009 * 1709, 1013 * 1109)
    (1009, 1049),
    (1009, 1709),
    (1013, 1109),
]
SEMIPRIME = 999999937 * 999999929  # 999999866000004473


def test_miller_rabin_agrees_with_a_sieve_and_refuses_pseudoprimes():
    limit = 20000
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for n in range(2, int(limit**0.5) + 1):
        if sieve[n]:
            sieve[n * n::n] = bytes(len(range(n * n, limit, n)))
    assert [n for n in range(2, limit) if primes.is_prime(n)] == [n for n in range(limit) if sieve[n]]
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 1171 * 2341 * 3511, 1237 * 2473 * 3709]
    for n in carmichael:  # Korselt: squarefree, and p - 1 divides n - 1 for each p
        assert all((n - 1) % (p - 1) == 0 for p in range(2, 4000) if n % p == 0 and primes.is_prime(p))
    strong = [2047, 3215031751, 3825123056546413051, 318665857834031151167461]
    for n in carmichael + strong:
        assert not primes.is_prime(n), n
    assert all(primes.is_prime(p) for p in (999999937, 999999929, 399165290221, 798330580441))
    # psi_12, the least strong pseudoprime to every prime base up to 37
    assert primes.prime_factors(318665857834031151167461) == {399165290221, 798330580441}


def test_the_exact_bound_is_the_least_composite_that_passes_every_base():
    # psi_13 = 1287836182261 * 2575672364521 is a strong pseudoprime to
    # every base up to 41, so a rest this large stays on trial division
    psi_13 = 1287836182261 * 2575672364521
    assert arith._MILLER_RABIN_EXACT == psi_13
    assert primes.is_prime(psi_13)
    assert len(primes._BASES) == 13 and primes._BASES[-1] == 41


def expected_smallest_modulus(factors, l):
    """Smallest p^(v_p(l) + 1) dividing N = prod(factors), read off the
    known factorization."""
    N = prod(factors)
    candidates = []
    for p in set(factors):
        power = p
        while l % power == 0:
            power *= p
        if N % power == 0:
            candidates.append(power)
    return min(candidates)


@pytest.mark.parametrize("factors", FACTORED)
def test_smallest_modulus_splits_known_factorizations(factors):
    N = prod(factors)
    assert primes.prime_factors(N // prod(p for p in factors if p < arith._TRIAL_LIMIT)) == {
        p for p in factors if p > arith._TRIAL_LIMIT}
    offsets = {1, 2, N - 1} | {prod(factors[:k]) for k in range(1, len(factors))}
    offsets |= {2 * factors[0], factors[0] ** 2, factors[-1] * 3}
    for l in sorted(l for l in offsets if 0 < l < N):
        assert arith.smallest_modulus(N, l) == expected_smallest_modulus(factors, l), (factors, l)


def test_moduli_up_to_a_million_stay_on_trial_division(monkeypatch):
    def refuse(n):
        raise AssertionError(f"split {n} by rho")

    monkeypatch.setattr(primes, "prime_factors", refuse)
    for N in (999983, 997 * 1003, 2 * 499979, 999 * 1000, 10**6):
        for l in (1, 2, N // 2, N - 1):
            expected = next(d for d in range(2, N + 1) if N % d == 0 and l % d)
            assert arith.smallest_modulus(N, l) == expected, (N, l)
