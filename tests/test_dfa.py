import json
import random
import time
from dataclasses import replace
from itertools import product
from math import gcd, lcm

import pytest

from qfa_exact import (
    BinaryPromiseSpec,
    Classification,
    Dfa,
    EnumerationBudgetError,
    UnaryPromiseSpec,
    build_binary_min_dfa,
    build_unary_min_dfa,
    certify_minimality_binary,
    certify_minimality_unary,
    enumerate_instances,
    run_dfa,
    smallest_modulus,
    smallest_modulus_alt,
    smallest_nondivisor,
    spec_to_dict,
)
from qfa_exact.dfa import _certify, _judged_sizes, _search, build_min_dfa, claimed_size
from qfa_exact.words import _STILL, _Lasso
from spec_grids import grid_specs


def naive_final_state(dfa, word):
    """Symbol-at-a-time oracle for the cycle-shortcutting run method."""
    if isinstance(word, int):
        word = dfa.alphabet[0] * word
    elif not isinstance(word, str):
        word = "".join(sym * count for sym, count in word)
    state = dfa.start
    for sym in word:
        state = dfa.delta[state][dfa.alphabet.index(sym)]
    return state


def assert_orbit_tables(dfa, counts):
    """Every entry of every orbit table agrees with stepping for each of
    `counts`; each cycle is a list of distinct states that its symbol
    closes, one list object shared by all its states; and a table holds
    at most one entry per state."""
    for k, table in dfa._orbits.items():
        assert len(table) <= dfa.num_states, (dfa.delta, k)
        for state, (tail, cycle, offset) in table.items():
            assert len(set(cycle)) == len(cycle) and dfa.delta[cycle[-1]][k] == cycle[0], (dfa.delta, k, cycle)
            assert all(table[x][1] is cycle for x in cycle), (dfa.delta, k, cycle)
            assert len(set(tail) | set(cycle)) == len(tail) + len(cycle), (dfa.delta, k, tail, cycle)
            for n in counts:
                stepped = state
                for _ in range(n):
                    stepped = dfa.delta[stepped][k]
                assert dfa._advance(state, k, n) == stepped, (dfa.delta, state, k, n)


def naive_accepts(dfa, word):
    return naive_final_state(dfa, word) in dfa.accepting


def brute_smallest_modulus(N, l):
    """The scan `smallest_modulus` ran before it factored N: d = 2, 3, ...
    up to the first divisor of N that does not divide l."""
    return next(d for d in range(2, N + 1) if N % d == 0 and l % d != 0)


def brute_smallest_nondivisor(l):
    return next(d for d in range(2, l + 2) if l % d != 0)


def test_run_dfa_examples():
    counter = build_binary_min_dfa(4)
    assert counter.accepts("")  # empty word: start state decides
    assert counter.accepts("aabb")
    assert not counter.accepts("aab")
    unary = build_unary_min_dfa(15, 5)
    assert unary.num_states == 3
    assert unary.accepts(15)
    assert not unary.accepts(5)


def test_run_dfa_matches_naive_oracle():
    machines = [
        build_binary_min_dfa(4),
        build_binary_min_dfa(2),
        build_unary_min_dfa(15, 5),
        Dfa(4, ("a",), ((1,), (2,), (3,), (2,)), 0, frozenset({2})),  # tail + 2-cycle
    ]
    for dfa in machines:
        if len(dfa.alphabet) == 1:
            for n in range(60):
                assert dfa.accepts(n) == naive_accepts(dfa, n), (dfa, n)
        else:
            for i in range(8):
                for m in range(12):
                    word = (("a", i), ("b", m))
                    assert dfa.accepts(word) == naive_accepts(dfa, word), (dfa, word)


def test_tail_plus_cycle_shortcut_at_huge_length():
    # 0 -> 1 -> 2 -> 3 -> 2 -> 3 -> ...; beyond the tail the state is
    # 2 + (n - 2) mod 2, so any even length of at least 2 sits on state 2
    dfa = Dfa(4, ("a",), ((1,), (2,), (3,), (2,)), 0, frozenset({2}))
    assert dfa.final_state_of(10**9) == 2
    assert dfa.final_state_of(10**9 + 1) == 3
    assert dfa.final_state_of(1) == 1


@pytest.mark.parametrize("seed", range(6))
def test_cached_orbits_match_naive_oracle_on_random_tails(seed):
    # one instance answers many words, so later words reuse orbits the
    # earlier ones cached, from every state the walks pass through
    rng = random.Random(seed)
    m = rng.randint(1, 7)
    alphabet = ("a", "b")[: rng.randint(1, 2)]
    delta = tuple(tuple(rng.randrange(m) for _ in alphabet) for _ in range(m))
    dfa = Dfa(m, alphabet, delta, rng.randrange(m), frozenset({0}))
    counts = range(3 * m + 3)  # below, at and beyond every tail + cycle
    for _ in range(2):
        if len(alphabet) == 1:
            for n in counts:
                assert dfa.final_state_of(n) == naive_final_state(dfa, n), (dfa, n)
        for _ in range(40):
            word = tuple((rng.choice(alphabet), rng.choice(counts)) for _ in range(3))
            assert dfa.final_state_of(word) == naive_final_state(dfa, word), (dfa, word)
    assert_orbit_tables(dfa, counts)


@pytest.mark.parametrize("seed", range(24))
def test_spliced_orbits_match_a_step_by_step_walk(seed):
    # the built minimal DFAs are pure cycles, whose walks close their
    # cycle at once; random tables have tails and several cycles, and
    # warming the tables from a shuffled set of states, one symbol at a
    # time, stops later walks on held tails and cycles alike, which they
    # then take on
    rng = random.Random(seed)
    m = rng.randint(1, 8)
    alphabet = ("a", "b")[: rng.randint(1, 2)]
    delta = tuple(tuple(rng.randrange(m) for _ in alphabet) for _ in range(m))
    counts = range(3 * m + 1)
    words = list(product(counts, repeat=len(alphabet)))
    columns = tuple(zip(*words))
    for _ in range(4):
        dfa = Dfa(m, alphabet, delta, rng.randrange(m), frozenset())
        warm = [(state, k) for state in range(m) for k in range(len(alphabet))]
        rng.shuffle(warm)
        for state, k in warm[: rng.randint(0, len(warm))]:
            dfa._advance(state, k, 0)
        expected = [naive_final_state(dfa, tuple(zip(alphabet, word))) for word in words]
        assert dfa._final_states(alphabet, columns) == expected, (delta, dfa.start)
        assert [dfa.final_state_of(tuple(zip(alphabet, word))) for word in words] == expected
        assert_orbit_tables(dfa, counts)


def test_a_long_tail_is_held_once_per_queried_state():
    # states 0..499 lead into the 7-cycle 500..506; a walk from 0 stops on
    # the entry of 250, held first, and takes on its tail
    tail, cycle = 500, 7
    delta = tuple((i + 1,) for i in range(tail + cycle - 1)) + ((tail,),)
    dfa = Dfa(tail + cycle, ("a",), delta, 0, frozenset({tail}))

    def closed_form(state, n):
        return state + n if state + n < tail else tail + (state + n - tail) % cycle

    starts = [250, 0, 499, 503, 500, 506]
    near_tail = [0, 1, 248, 249, 250, 251, 256, 257, 499, 500, 501, 506, 507, 1000]
    huge = [10**12 + r for r in range(-8, 8)]
    for state in starts:
        for n in near_tail:
            assert dfa._advance(state, 0, n) == naive_final_state(replace(dfa, start=state), n), (state, n)
        for n in huge:
            assert dfa._advance(state, 0, n) == closed_form(state, n), (state, n)
    states = replace(dfa, start=250)._final_states(("a",), ((*near_tail, *huge),))
    assert states == [closed_form(250, n) for n in (*near_tail, *huge)]
    assert_orbit_tables(dfa, range(0, 520, 13))
    table = dfa._orbits[0]
    assert set(table) == {0, 250, 499, *range(tail, tail + cycle)}
    assert [len(table[state][0]) for state in (0, 250, 499)] == [500, 250, 1]
    assert dfa.final_state_of(10**12) == closed_form(0, 10**12)


def _first_repeat(position):
    """(tail, period) of a walk whose next position depends only on its
    current one, given as a function of the step count: read off its
    first repeated position."""
    seen = {}
    n = 0
    while (at := position(n)) not in seen:
        seen[at] = n
        n += 1
    return seen[at], n - seen[at]


def _stepped(lasso, counts):
    """The positions after 0, 1, ..., counts - 1 steps along `lasso`, one
    step at a time."""
    positions = [0]
    for _ in range(counts - 1):
        after = positions[-1] + 1
        positions.append(after if after < lasso.tail + lasso.period else lasso.tail)
    return positions


@pytest.mark.parametrize("seed", range(12))
def test_lasso_index_equals_stepping_through_delta(seed):
    # every orbit of a random table is the lasso of its tail and cycle
    # lengths: its index reads the orbit's path, counts past the tail
    # reduced around the cycle
    rng = random.Random(seed)
    m = rng.randint(1, 9)
    alphabet = ("a", "b")[: rng.randint(1, 2)]
    delta = tuple(tuple(rng.randrange(m) for _ in alphabet) for _ in range(m))
    dfa = Dfa(m, alphabet, delta, 0, frozenset())
    for x in range(m):
        for k in range(len(alphabet)):
            tail, cycle, offset = dfa._orbit(x, k)
            path = [*tail, *cycle[offset:], *cycle[:offset]]
            lasso = _Lasso((len(tail), len(cycle)))
            assert _first_repeat(lambda n: path[lasso.index(n)]) == lasso
            state = x
            for n in range(3 * m + 3):
                assert path[lasso.index(n)] == state, (delta, x, k, n)
                state = delta[state][k]
            for n in (10**12, 10**12 + 1, 10**12 + 7):
                assert path[lasso.index(n)] == dfa._advance(x, k, n)


def test_lasso_along_equals_stepping():
    # the walk in k of the count lowest + k * step, stepped one count at
    # a time: `along` gives its exact tail and period, and its index the
    # position; a step of 0 stands still
    for tail, period in product(range(6), range(1, 7)):
        lasso = _Lasso((tail, period))
        stepped = _stepped(lasso, 200)
        assert [lasso.index(n) for n in range(200)] == stepped
        for lowest, step in product(range(8), range(9)):
            along = lasso.along(lowest, step)
            assert along == _first_repeat(lambda k: stepped[lowest + k * step]), (lasso, lowest, step)
            for k in range(along.tail + 2 * along.period + 2):
                assert stepped[lowest + along.index(k) * step] == stepped[lowest + k * step]
    assert _Lasso((3, 4)).along(2, 0) == _Lasso((0, 7)).along(0, 0) == (0, 1)


def test_lasso_join_is_commutative_and_associative_with_a_still_identity():
    lassos = [_Lasso((tail, period)) for tail in range(4) for period in range(1, 7)]
    still = _Lasso((0, 1))
    for a in lassos:
        assert a.join(still) == still.join(a) == a
        assert a.join(_STILL) is a and _STILL.join(a) is a
        for b in lassos:
            assert a.join(b) == b.join(a)
            # the pair of positions of both walks, taken in step
            assert a.join(b) == _first_repeat(lambda n: (a.index(n), b.index(n))), (a, b)
            for c in lassos:
                assert a.join(b).join(c) == a.join(b.join(c))


def test_replace_starts_with_an_empty_orbit_cache():
    dfa = Dfa(3, ("a",), ((1,), (2,), (0,)), 0, frozenset({0}))
    assert dfa.accepts(3)
    shifted = replace(dfa, delta=((1,), (1,), (0,)))
    assert shifted._orbits == {}
    assert shifted.final_state_of(3) == naive_final_state(shifted, 3) == 1


def test_run_dfa_rejects_unknown_symbols():
    with pytest.raises(ValueError):
        build_binary_min_dfa(3).accepts("abc")
    assert run_dfa(build_binary_min_dfa(3), "ab")


def test_long_unary_input_is_cheap():
    dfa = build_unary_min_dfa(16, 8)
    start = time.perf_counter()
    assert dfa.accepts(10**15 * 16)
    assert not dfa.accepts(10**15 * 16 + 8)
    assert time.perf_counter() - start < 0.01


@pytest.mark.parametrize(
    "N,l,expected",
    [(16, 8, 16), (10, 5, 2), (15, 5, 3), (7, 3, 7), (12, 9, 2), (36, 6, 4)],
)
def test_smallest_modulus_examples(N, l, expected):
    assert smallest_modulus(N, l) == expected
    assert brute_smallest_modulus(N, l) == expected


@pytest.mark.parametrize("l,expected", [(1, 2), (4, 3), (12, 5), (6, 4), (60, 7)])
def test_smallest_nondivisor_examples(l, expected):
    assert smallest_nondivisor(l) == expected
    assert brute_smallest_nondivisor(l) == expected


def test_smallest_nondivisor_sequence():
    assert [smallest_nondivisor(l) for l in range(1, 13)] == [2, 3, 2, 3, 2, 4, 2, 3, 2, 3, 2, 5]


@pytest.mark.parametrize("N,l,expected", [(16, 8, 16), (7, 3, 7), (12, 9, 2)])
def test_smallest_modulus_alt_examples(N, l, expected):
    assert smallest_modulus_alt(N, l) == expected


def test_formula_validation():
    with pytest.raises(ValueError):
        smallest_modulus(7, 0)
    with pytest.raises(ValueError):
        smallest_modulus_alt(7, 7)
    with pytest.raises(ValueError):
        smallest_nondivisor(0)


def test_smallest_modulus_matches_the_scan_up_to_2000():
    # the scan tests divisors of N only, so it reads l through gcd(N, l)
    # alone: it runs once per (N, gcd), and the factored form on every l
    for N in range(2, 2001):
        scanned = {}
        for l in range(1, N):
            g = gcd(N, l)
            if g not in scanned:
                scanned[g] = brute_smallest_modulus(N, g)
            assert smallest_modulus(N, l) == scanned[g], (N, l)


@pytest.mark.parametrize(
    "N,l,expected",
    [
        (1000000007, 1, 1000000007),  # prime: Miller-Rabin past the trial-division limit
        (2**40, 2**39, 2**40),
        (3**25 * 7, 3**24, 7),  # the leftover prime beats the prime power 3^25
        (2 * 999999937, 2, 999999937),
        (999983**2, 999983, 999983**2),  # a prime square is found at its root
        (10**12 + 39, 10**6, 10**12 + 39),
    ],
)
def test_smallest_modulus_factors_large_moduli_at_once(N, l, expected):
    start = time.perf_counter()
    assert smallest_modulus(N, l) == expected
    assert time.perf_counter() - start < 1.0


def test_characterizations_agree_on_a_sweep():
    for N in range(2, 121):
        for l in range(1, N):
            assert smallest_modulus(N, l) == smallest_modulus_alt(N, l), (N, l)


def test_prime_modulus_forces_full_size():
    primes = [n for n in range(2, 101) if all(n % d for d in range(2, n))]
    for N in primes:
        for l in range(1, N):
            assert smallest_modulus(N, l) == N


def test_coprime_composite_case_gives_smallest_prime_factor():
    for N in (4, 6, 9, 10, 12, 15, 21, 49, 100):
        spf = next(d for d in range(2, N + 1) if N % d == 0)
        for l in range(1, N):
            if _gcd(N, l) == 1:
                assert smallest_modulus(N, l) == spf, (N, l)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def test_unary_min_dfa_solves_its_family():
    for N, l in [(7, 3), (15, 5), (16, 8), (12, 9), (30, 10)]:
        dfa = build_unary_min_dfa(N, l)
        assert dfa.num_states == smallest_modulus(N, l)
        for word, label in enumerate_instances(UnaryPromiseSpec(N, 0, l), i_max=40):
            assert dfa.accepts(word) == (label is Classification.YES), (N, l, word)


def test_min_dfa_of_every_general_unary_spec_solves_it():
    # the counter's state after n symbols depends on n mod d, and d
    # divides N, so the witnesses with i <= 3 meet every class it can reach
    for N in range(2, 31):
        for r_yes, r_no in product(range(N), repeat=2):
            if r_yes == r_no:
                continue
            spec = UnaryPromiseSpec(N, r_yes, r_no)
            dfa = build_min_dfa(spec)
            assert claimed_size(spec) == (dfa.num_states, "smallest_modulus")
            assert dfa.num_states == smallest_modulus(N, spec.gap)
            for word, label in enumerate_instances(spec, i_max=3):
                assert dfa.accepts(word) == (label is Classification.YES), (spec, word)


@pytest.mark.parametrize(
    "spec,size",
    [(BinaryPromiseSpec(12), (5, "smallest_nondivisor")), (BinaryPromiseSpec(1), (2, "smallest_nondivisor")),
     (BinaryPromiseSpec(5, 15), (3, "smallest_modulus")), (BinaryPromiseSpec(10, 13), (13, "smallest_modulus")),
     (UnaryPromiseSpec(16, 0, 8), (16, "smallest_modulus"))],
)
def test_claimed_size_and_min_dfa_per_family(spec, size):
    assert claimed_size(spec) == size
    dfa = build_min_dfa(spec)
    assert dfa.num_states == size[0]
    for word, label in enumerate_instances(spec, i_max=12, j_max=2):
        assert dfa.accepts(word) == (label is Classification.YES)


def test_claimed_size_rejects_non_specs():
    for bad in (None, 7, {"family": "B", "l": 4}):
        with pytest.raises(TypeError):
            claimed_size(bad)
        with pytest.raises(TypeError):
            build_min_dfa(bad)


def test_binary_min_dfa_figure_shape_and_language():
    dfa = build_binary_min_dfa(4)
    assert dfa.delta == ((1, 3), (2, 0), (3, 1), (0, 2))
    assert dfa.accepting == {0}
    # counts-congruent-mod-d language, checked against direct simulation
    for i in range(6):
        for m in range(10):
            assert dfa.accepts((("a", i), ("b", m))) == ((i - m) % 4 == 0)
    with pytest.raises(ValueError):
        build_binary_min_dfa(1)


def test_binary_min_dfa_solves_both_families():
    for l in (1, 2, 4, 9, 12):
        dfa = build_binary_min_dfa(smallest_nondivisor(l))
        for word, label in enumerate_instances(BinaryPromiseSpec(l), i_max=24):
            assert dfa.accepts(word) == (label is Classification.YES)
    for N, l in [(5, 2), (15, 5), (13, 10)]:
        dfa = build_binary_min_dfa(smallest_modulus(N, l))
        for word, label in enumerate_instances(BinaryPromiseSpec(l, N), i_max=16, j_max=3):
            assert dfa.accepts(word) == (label is Classification.YES)
    # a rejected instance traced by hand: a^2 b^6 lands two back-steps off
    assert not build_binary_min_dfa(3).accepts((("a", 2), ("b", 6)))


def literal_certify_unary(N, l, i_max):
    """Oracle for the certificate search: build every tail+cycle DFA as a
    real object and run every witness through it. Returns the machine
    count and the first machine that survives, if any."""
    d = smallest_modulus(N, l)
    checked = 0
    for m in range(1, d):
        for tail in range(m):
            delta = tuple(((i + 1,) if i < m - 1 else (tail,)) for i in range(m))
            for mask in range(2**m):
                checked += 1
                dfa = Dfa(m, ("a",), delta, 0, frozenset(i for i in range(m) if mask >> i & 1))
                if all(dfa.accepts(i * N) for i in range(i_max + 1)) and not any(
                    dfa.accepts(i * N + l) for i in range(i_max + 1)
                ):
                    return checked, dfa
    return checked, None


@pytest.mark.parametrize("N,l", [(6, 3), (15, 5), (7, 3), (12, 9)])
def test_certify_unary_matches_literal_enumeration(N, l):
    # the default bound certifies; the weak ones let small machines through
    for i_max in (None, 0, 1, 2):
        cert = certify_minimality_unary(N, l, i_max)
        checked, survivor = literal_certify_unary(N, l, cert.witness_bounds[0])
        assert cert.machines_checked == checked, i_max
        assert cert.certified == (survivor is None), i_max
        if survivor is not None:
            assert cert.counterexample.to_dict() == survivor.to_dict()
            assert cert.counterexample_words == (0, l)
    assert certify_minimality_unary(N, l).certified


@pytest.mark.parametrize("N,l", [(6, 3), (15, 5), (7, 3), (12, 9), (16, 12)])
def test_certify_unary_past_the_witness_cut_equals_the_literal_enumeration(N, l):
    # witnesses past i = 2d + 2 are not drawn; the literal search draws them
    d = smallest_modulus(N, l)
    for i_max in (2 * d + 2, 2 * d + 3, 3 * d + 7):
        cert = certify_minimality_unary(N, l, i_max)
        checked, survivor = literal_certify_unary(N, l, i_max)
        assert cert.witness_bounds == (i_max, None)
        assert (cert.machines_checked, cert.certified) == (checked, survivor is None)
        assert cert.to_dict() == {**certify_minimality_unary(N, l).to_dict(), "witness_bounds": [i_max, None]}


@pytest.mark.parametrize("N,l", [(6, 3), (15, 5), (7, 3), (12, 9), (16, 12)])
def test_certify_unary_around_the_witness_cut_equals_the_literal_enumeration(N, l):
    # witnesses past i = d - 2 are not drawn; the literal search draws
    # every one up to i_max, just below, at and just past the cut
    d = smallest_modulus(N, l)
    for i_max in (d - 3, d - 2, d - 1, 2 * d + 2):
        if i_max < 0:
            continue
        cert = certify_minimality_unary(N, l, i_max)
        checked, survivor = literal_certify_unary(N, l, i_max)
        assert cert.witness_bounds == (i_max, None)
        assert (cert.machines_checked, cert.certified) == (checked, survivor is None), i_max
        if survivor is not None:
            assert cert.counterexample.to_dict() == survivor.to_dict()


def test_certify_unary_takes_a_huge_witness_bound_in_constant_space():
    start = time.perf_counter()
    cert = certify_minimality_unary(7, 3, i_max=10**12)
    assert time.perf_counter() - start < 1.0
    assert (cert.certified, cert.machines_checked, cert.witness_bounds) == (True, 642, (10**12, None))


def test_certify_unary_examples():
    cert = certify_minimality_unary(7, 3, i_max=16)
    assert cert.certified and cert.claimed_d == 7
    cert = certify_minimality_unary(15, 5, i_max=16)
    assert cert.certified and cert.claimed_d == 3
    cert = certify_minimality_unary(6, 3, i_max=16)
    assert cert.certified and cert.claimed_d == 2
    assert cert.machines_checked == 2


def test_certify_unary_reports_impostors_under_weak_witnesses():
    # with i_max=0 the only witnesses are a^0 and a^8, and a 2-state
    # tail machine separates them; the search must surface it rather
    # than certify
    cert = certify_minimality_unary(16, 8, i_max=0)
    assert not cert.certified
    assert cert.counterexample.num_states < cert.claimed_d == 16
    assert cert.counterexample.accepts(0)
    assert not cert.counterexample.accepts(8)
    assert cert.counterexample_words == (0, 8)


def test_certify_unary_budget_error_is_explicit():
    with pytest.raises(EnumerationBudgetError):
        certify_minimality_unary(31, 7)
    with pytest.raises(EnumerationBudgetError):
        certify_minimality_unary(7, 3, budget=10)


def test_certify_refuses_a_negative_budget_after_its_bounds():
    for certify, args in (
        (certify_minimality_unary, (7, 3)),
        (certify_minimality_binary, (BinaryPromiseSpec(4),)),
        (certify_minimality_binary, (BinaryPromiseSpec(2, 5),)),
    ):
        with pytest.raises(ValueError, match="budget must be nonnegative, got -1"):
            certify(*args, budget=-1)
        with pytest.raises(ValueError, match="bound"):
            certify(*args, -1, budget=-1)
    with pytest.raises(EnumerationBudgetError):
        certify_minimality_binary(BinaryPromiseSpec(1), budget=0)


def test_certify_budget_admits_exactly_its_count():
    assert certify_minimality_unary(7, 3, budget=642).machines_checked == 642
    with pytest.raises(EnumerationBudgetError):
        certify_minimality_unary(7, 3, budget=641)


def test_certify_binary_examples():
    cert = certify_minimality_binary(BinaryPromiseSpec(4))
    assert cert.certified and cert.claimed_d == 3
    assert cert.machines_checked == 130  # 2 one-state + 2^4 * 2^2 * 2 two-state
    cert1 = certify_minimality_binary(BinaryPromiseSpec(1))
    assert cert1.certified and cert1.claimed_d == 2
    assert cert1.machines_checked == 2


def test_certify_binary_modular_family():
    cert = certify_minimality_binary(BinaryPromiseSpec(1, 2), i_max=16, j_max=4)
    assert cert.certified and cert.claimed_d == 2
    cert = certify_minimality_binary(BinaryPromiseSpec(2, 4), i_max=16, j_max=4)
    assert cert.certified and cert.claimed_d == 4


def literal_certify_binary(spec, i_max, j_max):
    """Oracle for the binary certificate search: build every DFA below
    the claimed size, try accepting subsets one by one and run every
    witness symbol by symbol. Returns the machine count, the first
    machine that survives (if any) and the first yes- and no-words."""
    d = smallest_nondivisor(spec.l) if spec.N is None else smallest_modulus(spec.N, spec.l)
    instances = enumerate_instances(spec, i_max, j_max)
    words = (
        next(word for word, label in instances if label is Classification.YES),
        next(word for word, label in instances if label is Classification.NO),
    )
    checked = 0
    for m in range(1, d):
        for flat in product(range(m), repeat=2 * m):
            delta = tuple((flat[2 * i], flat[2 * i + 1]) for i in range(m))
            for start in range(m):
                for mask in range(2**m):
                    checked += 1
                    dfa = Dfa(m, ("a", "b"), delta, start, frozenset(i for i in range(m) if mask >> i & 1))
                    if all(
                        naive_accepts(dfa, word) == (label is Classification.YES)
                        for word, label in instances
                    ):
                        return checked, dfa, words
    return checked, None, words


@pytest.mark.parametrize(
    "spec", [BinaryPromiseSpec(2), BinaryPromiseSpec(4), BinaryPromiseSpec(2, 4), BinaryPromiseSpec(1, 2)]
)
@pytest.mark.parametrize("i_max,j_max", [(0, 0), (1, 0), (2, 1)])
def test_certify_binary_matches_literal_enumeration(spec, i_max, j_max):
    cert = certify_minimality_binary(spec, i_max, j_max)
    checked, survivor, words = literal_certify_binary(spec, i_max, j_max)
    assert cert.machines_checked == checked
    assert cert.certified == (survivor is None)
    if survivor is None:
        assert cert.counterexample is None and cert.counterexample_words is None
    else:
        assert cert.counterexample.to_dict() == survivor.to_dict()
        assert cert.counterexample_words == words


def _column_walks(column):
    """Per state x, the states visited from x along `column` (the targets
    of one symbol) up to the first repeat, and the index of the first
    state on the cycle that the repeat closes."""
    walks = []
    for x in range(len(column)):
        path = [x]
        while column[path[-1]] not in path:
            path.append(column[path[-1]])
        walks.append((path, path.index(column[path[-1]])))
    return walks


def _state_after(walk, n):
    """The state after n steps along a walk of `_column_walks`."""
    path, cycle_start = walk
    if n < len(path):
        return path[n]
    return path[cycle_start + (n - cycle_start) % (len(path) - cycle_start)]


def per_witness_search(spec, d, witness_bounds, witnesses, words):
    """Oracle for the binary certificate search, on plain int tuples: the
    `to_dict()` of judging every (table, start) below d states in
    enumeration order on every (a-count, b-count, is_yes) witness.

    A candidate works iff no state ends both a yes- and a no-witness.
    Then the first accepting subset that works, in the order 0, 1, ...,
    is the set of its yes-states, so the candidate counts that subset's
    index + 1, and a refuted candidate counts all 2^m subsets. `words`
    are the first yes- and no-word, reported with a counterexample."""
    a_counts = sorted({n_a for n_a, _, _ in witnesses})
    b_counts = sorted({n_b for _, n_b, _ in witnesses})
    indexed = [(a_counts.index(n_a), b_counts.index(n_b), is_yes) for n_a, n_b, is_yes in witnesses]
    record = {"spec": spec_to_dict(spec), "claimed_d": d, "witness_bounds": list(witness_bounds)}
    checked = 0
    for m in range(1, d):
        states = range(m)
        # per column of targets and per state, the state after each count
        after_a, after_b = {}, {}
        for column in product(states, repeat=m):
            walks = _column_walks(column)
            after_a[column] = [[_state_after(walk, n) for n in a_counts] for walk in walks]
            after_b[column] = [[_state_after(walk, n) for n in b_counts] for walk in walks]
        for flat in product(states, repeat=2 * m):
            a_column, b_column = flat[::2], flat[1::2]
            ends = after_b[b_column]
            for start, reached in enumerate(after_a[a_column]):
                label = [None] * m
                for k_a, k_b, is_yes in indexed:
                    end = ends[reached[k_a]][k_b]
                    if label[end] is None:
                        label[end] = is_yes
                    elif label[end] is not is_yes:
                        checked += 2**m
                        break
                else:
                    accepting = [x for x in states if label[x]]
                    return {
                        **record,
                        "machines_checked": checked + sum(1 << x for x in accepting) + 1,
                        "certified": False,
                        "counterexample": {
                            "states": m,
                            "alphabet": ["a", "b"],
                            "delta": [list(row) for row in zip(a_column, b_column)],
                            "start": start,
                            "accepting": accepting,
                        },
                        "counterexample_words": [list(word) for word in words],
                    }
    return {
        **record, "machines_checked": checked, "certified": True, "counterexample": None, "counterexample_words": None
    }


def reference_certify_binary(spec, i_max=64, j_max=8):
    """Oracle for the class reduction in `certify_minimality_binary`: the
    `to_dict()` of the same search over every witness word. The words
    come from the public `enumerate_instances`, not the certificate's own
    witness columns, and d from the scans above."""
    d = brute_smallest_nondivisor(spec.l) if spec.N is None else brute_smallest_modulus(spec.N, spec.l)
    instances = enumerate_instances(spec, i_max, j_max)
    witnesses = [
        (dict(word).get("a", 0), dict(word).get("b", 0), label is Classification.YES) for word, label in instances
    ]
    sides = Classification.YES, Classification.NO
    words = [next(word for word, label in instances if label is side) for side in sides]
    return per_witness_search(spec, d, (i_max, j_max), witnesses, words)


def test_judged_sizes_equal_judging_each_candidate_on_random_triples():
    # a spec's yes-witnesses a^i b^i meet every a-class of its no-side,
    # so there the yes-set alone fixes the no-set of a (table, start);
    # random triples do not, so a class must be the (yes-set, no-set)
    # pair. The triples stand for the words a^(a-class) b^(b-class)
    d = 4
    length = d - 2 + lcm(*range(1, d))
    spec = BinaryPromiseSpec(2, 4)  # only a label in the records compared
    words = [word for word, _ in enumerate_instances(spec, 0, 0)]
    outcomes = set()
    for seed in range(24):
        rng = random.Random(seed)
        triples = {
            (rng.randrange(length), rng.randrange(length), rng.random() < 0.5) for _ in range(rng.randint(2, 8))
        }
        lanes = {}
        for a_class, b_class, is_yes in triples:
            lanes.setdefault(a_class, [0, 0])[not is_yes] |= 1 << b_class
        expected = per_witness_search(spec, d, (0, 0), triples, words)
        judged = _search(spec, d, (0, 0), ("a", "b"), _judged_sizes(d, length, list(lanes.items())))
        assert judged.to_dict() == expected, triples
        outcomes.add(judged.counterexample and judged.counterexample.num_states)
    # certified (every size refuted at once), and a smaller DFA of each size
    assert outcomes == {None, 1, 2, 3}


# every binary spec with l <= 60 (`B`) or N <= 24 (`BN`) that the
# default budget certifies: those with d <= 4
IN_BUDGET_BINARY_SPECS = [
    spec
    for spec in [BinaryPromiseSpec(l) for l in range(1, 61)]
    + [BinaryPromiseSpec(l, N) for N in range(2, 25) for l in range(1, N)]
    if claimed_size(spec)[0] <= 4
]


def test_certify_binary_equals_the_per_witness_oracle_on_every_in_budget_spec():
    checked = 0
    for spec in IN_BUDGET_BINARY_SPECS:
        assert certify_minimality_binary(spec).to_dict() == reference_certify_binary(spec), spec
        checked += 1
    assert checked == 200


def test_certify_binary_equals_the_per_witness_oracle_under_weak_witnesses():
    # low bounds leave many specs with a smaller DFA that separates every
    # witness, so this pins which candidate is found first and its count
    checked = refuted = 0
    for spec in IN_BUDGET_BINARY_SPECS:
        for bounds in [(0, 0), (1, 0), (2, 1), (3, 2)]:
            cert = certify_minimality_binary(spec, *bounds)
            assert cert.to_dict() == reference_certify_binary(spec, *bounds), (spec, bounds)
            checked += 1
            refuted += not cert.certified
    assert (checked, refuted) == (800, 132)


def _cut_bounds(spec):
    # the bounds past which the class reduction draws no new witness:
    # T + L - 1 along i, and along j the last j of the lasso in j of the
    # b-count l + jN, whose tail is the first j with l + jN >= T; and the
    # 2L - 1 that once bounded j
    d, _ = claimed_size(spec)
    tail, cycle = d - 2, lcm(*range(1, d))
    N = spec.N or 0
    j_tail = 0 if not N or spec.l >= tail else -(-(tail - spec.l) // N)
    j_period = cycle // gcd(N, cycle) if N else 1
    cuts_i = [tail + cycle - 1, tail + cycle, tail + cycle + 1]
    cuts_j = {max(0, j_tail + j_period + k) for k in (-2, -1, 0)} | {2 * cycle - 1, 2 * cycle, 2 * cycle + 1}
    return [(0, 0), (1, 0), (2, 1), (64, 8)] + list(product(cuts_i, sorted(cuts_j)))


@pytest.mark.parametrize(
    "spec",
    [
        BinaryPromiseSpec(1),
        BinaryPromiseSpec(1, 2),
        BinaryPromiseSpec(2),
        BinaryPromiseSpec(1, 3),
        BinaryPromiseSpec(3, 6),
        BinaryPromiseSpec(6),
        BinaryPromiseSpec(2, 4),
        BinaryPromiseSpec(6, 12),
    ],
)
def test_certify_binary_equals_the_per_witness_oracle_at_the_cut_points(spec):
    for bounds in _cut_bounds(spec):
        cert = certify_minimality_binary(spec, *bounds)
        assert cert.to_dict() == reference_certify_binary(spec, *bounds), bounds


@pytest.mark.parametrize("spec", [BinaryPromiseSpec(12), BinaryPromiseSpec(2, 5)])
def test_certify_binary_d5_equals_the_per_witness_oracle(spec):
    cert = certify_minimality_binary(spec, budget=5 * 10**6)
    assert cert.claimed_d == 5
    assert cert.to_dict() == reference_certify_binary(spec)


@pytest.mark.parametrize("spec", [BinaryPromiseSpec(12), BinaryPromiseSpec(2, 5)])
@pytest.mark.parametrize("bounds", [(64, 0), (0, 0), (1, 0), (2, 1)])
def test_certify_binary_d5_equals_the_per_witness_oracle_under_weak_witnesses(spec, bounds):
    # (64, 8) is the test above. Here every pair but `B` l=12 at (64, 0)
    # finds a smaller DFA, with 2, 3 or 4 states, so the walk in
    # enumeration order runs after sizes refuted in bulk
    cert = certify_minimality_binary(spec, *bounds, budget=5 * 10**6)
    assert cert.to_dict() == reference_certify_binary(spec, *bounds)


def test_certify_binary_counterexamples_under_weak_witnesses():
    cert = certify_minimality_binary(BinaryPromiseSpec(4), 0, 0)
    assert not cert.certified and cert.machines_checked == 9
    assert cert.counterexample_words == ((), (("b", 4),))
    assert cert.counterexample.accepts("") and not cert.counterexample.accepts("bbbb")
    cert = certify_minimality_binary(BinaryPromiseSpec(2, 4), 1, 0)
    assert not cert.certified and cert.machines_checked == 321


def test_certify_binary_d5_within_a_raised_budget():
    # l=2, N=5 needs 5 states, so every DFA with 1-4 states is tried:
    # 4 211 930 with their start states and accepting subsets
    cert = certify_minimality_binary(BinaryPromiseSpec(2, 5), budget=5 * 10**6)
    assert cert.certified and cert.claimed_d == 5
    assert cert.machines_checked == 4_211_930


def test_certify_binary_budget_error():
    with pytest.raises(EnumerationBudgetError):
        certify_minimality_binary(BinaryPromiseSpec(2, 5))  # d=5: ~4.2M machines
    with pytest.raises(EnumerationBudgetError):
        certify_minimality_binary(BinaryPromiseSpec(2, 31))


@pytest.mark.parametrize("spec", [BinaryPromiseSpec(4), BinaryPromiseSpec(2, 5), BinaryPromiseSpec(2, 31)])
@pytest.mark.parametrize("bounds", [(-1, 8), (64, -1)])
def test_certify_binary_checks_its_bounds_before_its_budget(spec, bounds):
    with pytest.raises(ValueError, match="instance bounds must be nonnegative"):
        certify_minimality_binary(spec, *bounds)


def _outcome(certify, *args):
    """A certificate's `to_dict()`, or the message of its budget refusal."""
    try:
        return certify(*args).to_dict()
    except EnumerationBudgetError as exc:
        return str(exc)


def test_one_path_gives_each_family_its_certificate():
    # an `A` spec is certified on its offset form (N, gap), `B` and `BN`
    # specs as they are; the budget refuses `B` l=12 and most `BN` specs
    count = 0
    for spec in grid_specs(12, 12, 12):
        for i_max, j_max in [(0, 0), (1, 1), (64, 8), (None, 8)]:
            if isinstance(spec, UnaryPromiseSpec):
                expected = _outcome(certify_minimality_unary, spec.N, spec.gap, i_max, 10**6)
            elif i_max is None:
                continue
            else:
                expected = _outcome(certify_minimality_binary, spec, i_max, j_max, 10**6)
            assert _outcome(_certify, spec, i_max, j_max, 10**6) == expected, (spec, i_max)
            count += 1
    assert count == 4 * 572 + 3 * (12 + 66)


def test_certificate_serialization():
    cert = certify_minimality_binary(BinaryPromiseSpec(4))
    data = cert.to_dict()
    assert data["certified"] is True
    assert data["claimed_d"] == 3
    assert data["machines_checked"] == 130
    assert data["spec"] == {"family": "B", "l": 4}
    assert data["counterexample"] is None


def test_dfa_json_round_trip():
    dfa = build_binary_min_dfa(4)
    clone = Dfa.from_json(dfa.to_json())
    assert clone.num_states == dfa.num_states
    assert clone.delta == dfa.delta
    assert clone.start == dfa.start
    assert clone.accepting == dfa.accepting
    data = dfa.to_dict()
    assert set(data) == {"states", "alphabet", "delta", "start", "accepting"}
    with pytest.raises(ValueError):
        Dfa.from_json("[oops")


@pytest.mark.parametrize(
    "field,value",
    [("start", True), ("start", 0.0), ("delta", [[1.0, 2], [2, 0], [0, 1]]), ("delta", [[1, True], [2, 0], [0, 1]]),
     ("alphabet", [1, 2]), ("alphabet", ["a", None]), ("accepting", [0.0]), ("accepting", [False]),
     ("states", True), ("states", "3"), ("alphabet", ["a", "a"]), ("alphabet", ["ab", "c"]),
     ("alphabet", {"a": 0, "b": 1}), ("alphabet", "ab")],
)
def test_dfa_loading_checks_field_types(field, value):
    data = build_binary_min_dfa(3).to_dict()
    data[field] = value
    with pytest.raises(ValueError):
        Dfa.from_json(json.dumps(data))


def test_dfa_construction_validation():
    with pytest.raises(ValueError):
        Dfa(2, ("a",), ((1,),), 0, frozenset())
    with pytest.raises(ValueError):
        Dfa(2, ("a",), ((1,), (5,)), 0, frozenset())
    with pytest.raises(ValueError):
        Dfa(2, ("a",), ((1,), (0,)), 3, frozenset())
    with pytest.raises(ValueError):
        Dfa(2, ("a",), ((1,), (0,)), 0, frozenset({4}))


@pytest.mark.parametrize(
    "states,alphabet,delta,message",
    [
        (2, ("a",), ((1,),), "one row per state"),
        (2, ("a",), ((1,), (5,)), "entries out of range"),
        (2, ("a",), ((1,), (-1,)), "entries out of range"),
        (2, ("a", "b"), ((1, 0), (0,)), "entries out of range"),  # a ragged row
        (2, ("a", "b"), ((1,), (0,)), "entries out of range"),  # rows narrower than the alphabet
        (2, ("a",), ((1, 0), (0, 1)), "entries out of range"),  # wider
        (3, ("a",), ((1,), (2,)), "one row per state"),  # checked before the targets
    ],
)
def test_dfa_table_checks_name_the_fault(states, alphabet, delta, message):
    with pytest.raises(ValueError, match=message):
        Dfa(states, alphabet, delta, 0, frozenset())


def test_a_copy_keeps_its_checked_table_and_is_still_checked_against_its_fields():
    dfa = build_unary_min_dfa(16, 8)
    copy = replace(dfa, start=3)
    assert copy.delta is dfa.delta and copy.delta == tuple(tuple(row) for row in dfa.delta)
    assert copy.accepts(13) and not copy.accepts(16)
    with pytest.raises(ValueError, match="one row per state"):
        replace(dfa, num_states=17)
    with pytest.raises(ValueError, match="entries out of range"):
        replace(dfa, alphabet=("a", "b"))
    with pytest.raises(ValueError, match="start state 16 out of range"):
        replace(dfa, start=16)
