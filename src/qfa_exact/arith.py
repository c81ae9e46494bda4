"""The integer arithmetic behind the state counts, on the standard library
alone.

The classical side: a DFA for the unary or the modular-surplus promise
needs smallest_modulus(N, l) states, the smallest prime power dividing N
but not l, and one for the fixed surplus l needs smallest_nondivisor(l);
smallest_modulus_alt finds the first by brute force, so that the two
characterizations can be compared. The quantum side: angle_multiplier
picks the q that turns l steps of 2*pi*q/N into a nonpositive cosine,
which three states lift to an exact machine whatever the modulus.
The certificate searches count their candidates against
DEFAULT_ENUMERATION_BUDGET and raise EnumerationBudgetError past it;
both live here so that the CLI can name them without loading `dfa`.
"""

from functools import lru_cache

DEFAULT_ENUMERATION_BUDGET = 10**6


class EnumerationBudgetError(RuntimeError):
    """Raised when a certificate search would exceed its machine budget."""


# every N <= 10**6 is done before trial division passes this limit
_TRIAL_LIMIT = 1000
# `primes.prime_factors` is exact below this bound, the least strong
# pseudoprime to its 13 Miller-Rabin bases, so no answer rests on a
# probable prime
_MILLER_RABIN_EXACT = 3_317_044_064_679_887_385_961_981


def smallest_modulus(N: int, l: int) -> int:
    """Smallest d >= 2 dividing N but not l; the unary minimal-DFA size.

    Always exists: d = N itself divides N and cannot divide 0 < l < N.
    It is a prime power: the smallest p^(v_p(l) + 1) that divides N. So
    trial division finds it, stopping once p passes the best candidate
    or once p^2 passes what is left of N, which is then 1 or a prime P
    with P^2 not dividing N, a candidate exactly when P does not divide l.
    Past p = _TRIAL_LIMIT, what is left of N is split into its primes by
    `primes.prime_factors` instead, if it lies below _MILLER_RABIN_EXACT;
    a larger rest stays on trial division.
    """
    if not 0 < l < N:
        raise ValueError(f"need 0 < l < N, got l={l}, N={N}")
    best = rest = N
    p = 2
    while p * p <= rest and p < best:
        if p > _TRIAL_LIMIT and rest < _MILLER_RABIN_EXACT:
            from .primes import prime_factors  # compiled only for a modulus that needs it

            for prime in prime_factors(rest):
                power = prime
                while l % power == 0:
                    power *= prime
                if N % power == 0:
                    best = min(best, power)
            return best
        if rest % p == 0:
            power = p
            while l % power == 0:
                power *= p
            while rest % p == 0:
                rest //= p
            if N % power == 0:
                best = min(best, power)
        p += 1 if p == 2 else 2
    if 1 < rest < best and l % rest:
        best = rest
    return best


def smallest_nondivisor(l: int) -> int:
    """Smallest d >= 2 that does not divide l."""
    if l < 1:
        raise ValueError(f"need l >= 1, got {l}")
    d = 2
    while l % d == 0:
        d += 1
    return d


@lru_cache(maxsize=512)
def _reachable_offsets(N: int, d: int) -> bytes:
    # 1 at the residues (-p*N) mod d over one full period of p; l hits one
    # of these exactly when some p*N + l is divisible by d. One byte per
    # residue, and the cache holds every d of one N up to 512, so a scan
    # over l for one N builds each table once
    hits = bytearray(d)
    for p in range(d):
        hits[(-p * N) % d] = 1
    return bytes(hits)


def smallest_modulus_alt(N: int, l: int) -> int:
    """Smallest d >= 2 with p*N + l never divisible by d, by brute force.

    Checking p over [0, d) suffices: (p*N + l) mod d is periodic in p
    with period dividing d. Kept deliberately independent of
    `smallest_modulus` so the two characterizations can be compared.
    """
    if not 0 < l < N:
        raise ValueError(f"need 0 < l < N, got l={l}, N={N}")
    d = 2
    while _reachable_offsets(N, d)[l % d]:
        d += 1
    return d


def angle_multiplier(N: int, l: int) -> tuple[int, str]:
    """A multiplier q with cos(l * 2*pi*q/N) <= 0, for 0 < l < N, and the
    case tag of the regime that produced it (unchecked: the caller holds
    0 < l < N).

    Three regimes, decided by exact integer comparison of 4l against N
    and 3N:

    * N/4 <= l <= 3N/4 ("mid"): q = 1 already works.
    * l < N/4 ("small_l"): q = ceil(N/(4l)) stretches the step until
      l*theta reaches the second quadrant. The same ceiling is 1 once
      4l >= N, so one formula covers both regimes.
    * l > 3N/4 ("large_l"): take the first j >= 1 whose fractional part
      of j(N-l)/l lies strictly between 1/4 and 2/3, then
      q = floor((N/l)(j + 1/4)) + 1 wraps l*theta past enough full turns
      to end up with a nonpositive cosine. That j is l // (4(N-l)) + 1:
      the gap g = N - l is below l/3, so j*g climbs in steps narrower
      than the window (l/4, 2l/3) and enters it before it first wraps
      past l, at the first j with 4jg > l.
    """
    if 4 * l <= 3 * N:
        return -(-N // (4 * l)), "small_l" if 4 * l < N else "mid"
    j = l // (4 * (N - l)) + 1
    return (N * (4 * j + 1)) // (4 * l) + 1, "large_l"
