import json
import random
from dataclasses import replace
from itertools import product

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
)
from qfa_exact.dfa import build_min_dfa, claimed_size


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


def naive_accepts(dfa, word):
    return naive_final_state(dfa, word) in dfa.accepting


def brute_smallest_modulus(N, l):
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
    assert len(dfa._orbits) <= m * len(alphabet)


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
    import time

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
