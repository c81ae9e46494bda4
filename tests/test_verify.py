import io
import math
import random
import re
import time
from dataclasses import fields, replace

import pytest

from qfa_exact import (
    BinaryPromiseSpec,
    Dfa,
    Classification,
    ExactnessReport,
    Moqfa,
    UnaryPromiseSpec,
    build_binary_Nl,
    build_binary_l,
    build_binary_min_dfa,
    build_unary,
    build_unary_general,
    build_unary_min_dfa,
    certify_minimality_binary,
    cross_check,
    enumerate_instances,
    separation_row,
    separation_table,
    verify_exactness,
    write_separation_csv,
)
from qfa_exact import verify
from qfa_exact.dfa import build_min_dfa
from qfa_exact.promise import DEFAULT_I_MAX, DEFAULT_J_MAX, _witness_columns, _witness_symbols
from qfa_exact.synth import build_for
from qfa_exact.verify import _check_alphabets, _sweep
from qfa_exact.words import _Lasso, as_runs
from spec_grids import grid_specs


def test_verify_exactness_passes_for_matching_machine():
    report = verify_exactness(build_unary(7, 3), UnaryPromiseSpec(7, 0, 3), i_max=64)
    assert report.passed
    assert report.machine_states == 3
    assert report.yes_checked == report.no_checked == 65
    assert report.max_yes_deficit <= 1e-12
    assert report.max_no_leak <= 1e-18


def test_verify_exactness_passes_for_binary_machine():
    report = verify_exactness(build_binary_l(4), BinaryPromiseSpec(4), i_max=32)
    assert report.passed


def test_verify_exactness_detects_a_wrong_machine():
    # the offset-3 machine leaks hard on offset-2 no-instances, so the
    # harness must fail it
    report = verify_exactness(build_unary(7, 3), UnaryPromiseSpec(7, 0, 2), i_max=64)
    assert not report.passed
    assert report.max_no_leak > 0.1


def test_mirror_offset_is_genuinely_solved_too():
    # rotating l steps or N-l steps lands at the same cosine, so the
    # offset-3 machine is exact for offset 4 as well; a useful reminder
    # that failing specs must be picked off the mirror pair
    report = verify_exactness(build_unary(7, 3), UnaryPromiseSpec(7, 0, 4), i_max=64)
    assert report.passed


def test_verify_exactness_rejects_empty_witness_sets():
    with pytest.raises(ValueError):
        verify_exactness(build_unary(7, 3), UnaryPromiseSpec(7, 0, 3), i_max=-1)


def test_report_serialization_echoes_run_parameters():
    report = verify_exactness(
        build_unary(7, 3), UnaryPromiseSpec(7, 0, 3), i_max=10, tolerance=1e-9, seed=42
    )
    data = report.to_dict()
    assert data["spec"] == {"family": "A", "N": 7, "r_yes": 0, "r_no": 3}
    assert data["i_max"] == 10
    assert data["tolerance"] == 1e-9
    assert data["seed"] == 42
    assert data["passed"] is True
    assert "max_no_leak" in report.to_json()


def test_record_json_keys_are_the_field_names():
    # every field reaches the JSON, so one added later cannot go missing
    report = verify_exactness(build_unary(7, 3), UnaryPromiseSpec(7, 0, 3), i_max=2)
    certificate = certify_minimality_binary(BinaryPromiseSpec(4), 0, 0)
    assert certificate.counterexample is not None
    for record in (report, certificate):
        assert list(record.to_dict()) == [f.name for f in fields(record)]
    data = certificate.to_dict()
    assert data["counterexample"] == certificate.counterexample.to_dict()
    assert data["witness_bounds"] == [0, 0]
    assert data["counterexample_words"] == [list(w) for w in certificate.counterexample_words]


def test_cross_check_agreements():
    assert cross_check(
        build_unary(15, 5), build_unary_min_dfa(15, 5), UnaryPromiseSpec(15, 0, 5)
    )
    assert cross_check(
        build_binary_Nl(5, 2), build_binary_min_dfa(5), BinaryPromiseSpec(2, 5)
    )
    assert cross_check(
        build_binary_l(4), build_binary_min_dfa(3), BinaryPromiseSpec(4), i_max=32
    )


def test_cross_check_detects_mismatch():
    # quantum machine for offset 3 against the classical solver and
    # witnesses of offset 2: the a^2-style words expose the mismatch
    assert not cross_check(
        build_unary(7, 3), build_unary_min_dfa(7, 2), UnaryPromiseSpec(7, 0, 2)
    )


def test_separation_rows_for_each_family():
    rows = separation_table(
        [
            UnaryPromiseSpec(31, 0, 11),
            UnaryPromiseSpec(16, 0, 8),
            BinaryPromiseSpec(12),
            BinaryPromiseSpec(2, 5),
        ],
        certify_budget=10**6,
    )
    assert [(r.qfa_states, r.dfa_states) for r in rows] == [(3, 31), (3, 16), (2, 5), (3, 5)]
    # 31 states is far beyond the enumeration budget; 16 is within it
    assert [r.dfa_certified for r in rows] == [False, True, False, False]


def test_separation_row_without_certification():
    row = separation_row(UnaryPromiseSpec(7, 0, 3), certify_budget=None)
    assert (row.qfa_states, row.dfa_states, row.dfa_certified) == (3, 7, False)
    row = separation_row(BinaryPromiseSpec(4), certify_budget=10**6)
    assert (row.qfa_states, row.dfa_states, row.dfa_certified) == (2, 3, True)


@pytest.mark.parametrize(
    "spec", [UnaryPromiseSpec(7, 0, 3), BinaryPromiseSpec(4), BinaryPromiseSpec(2, 5)], ids=["A", "B", "BN"]
)
@pytest.mark.parametrize("budget", [0, None, "default"])
@pytest.mark.parametrize("bounds", [(-1, 8), (64, -1), (-5, -5)])
def test_separation_refuses_a_negative_bound_whatever_the_family_and_budget(spec, budget, bounds):
    options = {} if budget == "default" else {"certify_budget": budget}
    with pytest.raises(ValueError, match="instance bounds must be nonnegative"):
        separation_row(spec, *bounds, **options)
    with pytest.raises(ValueError, match="instance bounds must be nonnegative"):
        separation_table([spec], *bounds, **options)


@pytest.mark.parametrize(
    "spec", [UnaryPromiseSpec(7, 0, 3), BinaryPromiseSpec(4), BinaryPromiseSpec(2, 5)], ids=["A", "B", "BN"]
)
def test_separation_refuses_a_negative_budget_after_a_negative_bound(spec):
    with pytest.raises(ValueError, match="budget must be nonnegative, got -1"):
        separation_row(spec, certify_budget=-1)
    with pytest.raises(ValueError, match="instance bounds must be nonnegative"):
        separation_row(spec, -1, certify_budget=-1)
    assert not separation_row(spec, certify_budget=0).dfa_certified


def test_an_empty_separation_table_refuses_a_negative_bound_then_a_negative_budget():
    with pytest.raises(ValueError, match="budget must be nonnegative, got -1"):
        separation_table([], certify_budget=-1)
    for bounds in [(-1, 8), (64, -1)]:
        for budget in (-1, 0, None, 10**6):
            with pytest.raises(ValueError, match="instance bounds must be nonnegative"):
                separation_table([], *bounds, certify_budget=budget)
    assert separation_table([], certify_budget=0) == separation_table([], certify_budget=None) == []


def test_separation_table_thread_pool_keeps_order():
    specs = [UnaryPromiseSpec(N, 0, 1) for N in (3, 5, 7, 11, 13)]
    serial = separation_table(specs, certify_budget=None)
    threaded = separation_table(specs, certify_budget=None, threads=4)
    assert [(r.spec, r.dfa_states) for r in serial] == [(r.spec, r.dfa_states) for r in threaded]
    assert [r.dfa_states for r in serial] == [3, 5, 7, 11, 13]


def test_prime_rows_scale_with_the_modulus():
    for N in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for l in (1, N - 1, N // 2 or 1):
            row = separation_row(UnaryPromiseSpec(N, 0, l), certify_budget=None)
            assert row.qfa_states == 3
            assert row.dfa_states == N


def test_csv_emission_format():
    rows = separation_table(
        [UnaryPromiseSpec(7, 0, 3), BinaryPromiseSpec(12), BinaryPromiseSpec(2, 5)],
        certify_budget=10**6,
    )
    out = io.StringIO()
    write_separation_csv(rows, out)
    lines = out.getvalue().strip().splitlines()
    assert lines[0] == "family,N,l,r1,r2,qfa_states,dfa_states,dfa_certified"
    assert lines[1] == "A,7,3,0,3,3,7,true"
    assert lines[2] == "B,,12,,,2,5,false"
    assert lines[3] == "BN,5,2,,,3,5,false"


def reference_report(machine, spec, i_max, j_max, tolerance=1e-9):
    """Per-word oracle: one accept_probability call for every witness."""
    yes = no = 0
    deficit = leak = 0.0
    for word, label in enumerate_instances(spec, i_max, j_max):
        prob = machine.accept_probability(word)
        if label is Classification.YES:
            yes += 1
            deficit = max(deficit, abs(1.0 - prob))
        else:
            no += 1
            leak = max(leak, prob)
    return ExactnessReport(
        spec=spec,
        machine_states=machine.dim,
        yes_checked=yes,
        no_checked=no,
        max_yes_deficit=deficit,
        max_no_leak=leak,
        passed=yes > 0 and no > 0 and deficit <= tolerance and leak <= tolerance,
        tolerance=tolerance,
        i_max=i_max,
        j_max=j_max,
    )


def _without_angle(machine):
    return Moqfa.from_dict({**machine.to_dict(), "angle": None})


@pytest.mark.parametrize(
    "machine,spec",
    [
        (build_unary(7, 3), UnaryPromiseSpec(7, 0, 3)),
        (build_unary(7, 3), UnaryPromiseSpec(7, 0, 2)),  # fails: leaks
        (build_unary(12, 5), UnaryPromiseSpec(12, 0, 5)),
        (build_unary_general(9, 2, 7), UnaryPromiseSpec(9, 2, 7)),
        (build_unary_general(16, 11, 3), UnaryPromiseSpec(16, 11, 3)),
        (build_binary_l(4), BinaryPromiseSpec(4)),
        (build_binary_l(3), BinaryPromiseSpec(5)),  # fails
        (build_binary_Nl(5, 2), BinaryPromiseSpec(2, 5)),
        (build_binary_Nl(12, 7), BinaryPromiseSpec(7, 12)),
        (_without_angle(build_unary(7, 3)), UnaryPromiseSpec(7, 0, 3)),
        (_without_angle(build_binary_Nl(5, 2)), BinaryPromiseSpec(2, 5)),
    ],
)
def test_verify_exactness_equals_per_word_evaluation(machine, spec):
    for i_max, j_max in ((0, 0), (20, 3), (64, 8)):
        assert verify_exactness(machine, spec, i_max, j_max) == reference_report(
            machine, spec, i_max, j_max
        )


def test_cross_check_rejects_a_wrong_accepting_set():
    spec = BinaryPromiseSpec(2, 5)
    machine = build_binary_Nl(5, 2)
    dfa = build_binary_min_dfa(5)
    assert cross_check(machine, dfa, spec)
    assert not cross_check(machine, replace(dfa, accepting=frozenset({1})), spec)
    assert not cross_check(machine, replace(dfa, accepting=frozenset({0, 3})), spec)
    # no witness ends in state 2, so accepting it changes no decision
    assert cross_check(machine, replace(dfa, accepting=frozenset({0, 2})), spec)
    unary = build_unary_min_dfa(15, 5)
    assert not cross_check(
        build_unary(15, 5), replace(unary, accepting=frozenset({1})), UnaryPromiseSpec(15, 0, 5)
    )


def reference_cross_check(machine, dfa, spec, i_max, j_max, tolerance=1e-9):
    """Per-word oracle: accept_probability and Dfa.accepts on every witness."""
    for word, _ in enumerate_instances(spec, i_max, j_max):
        prob, accepted = machine.accept_probability(word), dfa.accepts(word)
        if (prob >= 1.0 - tolerance) != accepted or (prob <= tolerance) != (not accepted):
            return False
    return True


@pytest.mark.parametrize("seed", range(16))
def test_cross_check_equals_the_per_word_oracle_on_random_automata(seed):
    # random tables with tails and several cycles, and the minimal DFA
    # with a random accepting set, against each family's built machine
    rng = random.Random(seed)
    N = rng.randint(2, 12)
    r_yes, r_no = rng.sample(range(N), 2)
    l = rng.randint(1, N - 1)
    for spec in (UnaryPromiseSpec(N, r_yes, r_no), BinaryPromiseSpec(l), BinaryPromiseSpec(l, N)):
        machine = build_for(spec)[0]
        dfa = build_min_dfa(spec)
        m = rng.randint(1, 8)
        table = [[rng.randrange(m) for _ in dfa.alphabet] for _ in range(m)]
        automata = [
            Dfa(m, dfa.alphabet, table, rng.randrange(m), {s for s in range(m) if rng.random() < 0.5}),
            replace(dfa, accepting={s for s in range(dfa.num_states) if rng.random() < 0.5}),
            dfa,
        ]
        for automaton in automata:
            for i_max, j_max in ((0, 0), (3, 2), (12, 3)):
                assert cross_check(machine, automaton, spec, i_max, j_max) == reference_cross_check(
                    machine, automaton, spec, i_max, j_max
                ), (spec, automaton, i_max)


def _relabelled(machine):
    """A 3-state machine with basis states 0, 1, 2 renamed 2, 0, 1 and the
    same probabilities. Its rotations turn axes 0 and 1, so it keeps its
    angle but leaves the closed form; it still starts in basis state 0."""
    new = (2, 0, 1)

    def rows(m):
        out = [None] * 3
        for i, row in enumerate(m):
            out[new[i]] = row
        return out

    def conjugated(m):
        out = [[0.0] * 3 for _ in range(3)]
        for i, row in enumerate(m):
            for j, x in enumerate(row):
                out[new[i]][new[j]] = x
        return out

    relabelled = Moqfa(
        dim=3,
        alphabet=machine.alphabet,
        u_left=rows(machine._u_left),
        u_sym={sym: conjugated(m) for sym, m in machine._u_sym.items()},
        u_right=conjugated(machine._u_right),
        accepting={new[s] for s in machine.accepting},
        angle=machine.angle,
    )
    assert relabelled.angle is not None and relabelled._turns is None
    return relabelled


def _built_machines():
    """Every built machine for A with N <= 25 (all residue pairs), B with
    l <= 20 and BN with N <= 20, with its spec."""
    for spec in grid_specs(25, 20, 20):
        if isinstance(spec, UnaryPromiseSpec):
            yield build_unary_general(spec.N, spec.r_yes, spec.r_no), spec
        elif spec.N is None:
            yield build_binary_l(spec.l), spec
        else:
            yield build_binary_Nl(spec.N, spec.l), spec


def _assert_sweeps_equal_per_word_evaluation(machine, spec):
    dfa = build_min_dfa(spec)
    # the same counter started one step off disagrees on most specs; the
    # per-word oracle is the slow side, so it runs at the small bound only
    shifted = replace(dfa, start=(dfa.start + 1) % dfa.num_states)
    for i_max, j_max, automata in ((32, 4, (dfa,)), (5, 1, (dfa, shifted))):
        assert verify_exactness(machine, spec, i_max, j_max) == reference_report(
            machine, spec, i_max, j_max
        ), (spec, i_max)
        for automaton in automata:
            assert cross_check(machine, automaton, spec, i_max, j_max) == reference_cross_check(
                machine, automaton, spec, i_max, j_max
            ), (spec, i_max, automaton.start)


def test_sweeps_equal_per_word_evaluation_on_every_built_machine():
    for machine, spec in _built_machines():
        _assert_sweeps_equal_per_word_evaluation(machine, spec)


@pytest.mark.parametrize(
    "machine,spec",
    [(build_unary_general(N, N - 1, N // 3), UnaryPromiseSpec(N, N - 1, N // 3)) for N in range(2, 26, 3)]
    + [(build_binary_l(l), BinaryPromiseSpec(l)) for l in (1, 4, 12, 20)]
    + [(build_binary_Nl(N, l), BinaryPromiseSpec(l, N)) for N, l in ((5, 2), (12, 7), (20, 19))],
)
def test_sweeps_equal_per_word_evaluation_off_the_closed_form(machine, spec):
    # per-word evaluation off the closed form powers matrices, up to 0.1 s
    # per machine, so this takes a sample of the grid above
    _assert_sweeps_equal_per_word_evaluation(_without_angle(machine), spec)
    if machine.dim == 3:
        _assert_sweeps_equal_per_word_evaluation(_relabelled(machine), spec)


def _b_only(machine):
    """`machine` with its `a` matrix dropped: a machine over ("b",)."""
    return Moqfa(
        dim=machine.dim,
        alphabet=("b",),
        u_left=machine._u_left,
        u_sym={"b": machine._u_sym["b"]},
        u_right=machine._u_right,
        accepting=machine.accepting,
        angle=machine.angle,
    )


def test_mismatched_alphabets_raise_the_per_word_errors():
    unary, binary = build_unary(7, 3), build_binary_Nl(5, 2)
    unary_spec, binary_spec = UnaryPromiseSpec(7, 0, 3), BinaryPromiseSpec(2, 5)
    no_b = "symbol 'b' not in alphabet ('a',)"
    not_unary = "integer words are only meaningful for single-symbol alphabets"
    calls = [
        (lambda: verify_exactness(unary, binary_spec), no_b),
        (lambda: cross_check(unary, build_min_dfa(binary_spec), binary_spec), no_b),
        (lambda: verify_exactness(binary, unary_spec), not_unary),
        (lambda: cross_check(binary, build_min_dfa(unary_spec), unary_spec), not_unary),
        # the machine reads every witness here, so the DFA's alphabet is at fault
        (lambda: cross_check(binary, Dfa(2, ("a",), ((1,), (0,)), 0, {0}), binary_spec), no_b),
        (lambda: cross_check(unary, build_min_dfa(binary_spec), unary_spec), not_unary),
    ]
    for call, message in calls:
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


def test_a_b_only_machine_reads_the_witnesses_without_a():
    spec = BinaryPromiseSpec(4)
    machine = _b_only(build_binary_l(4))
    report = verify_exactness(machine, spec, i_max=0)
    assert report.passed and (report.yes_checked, report.no_checked) == (1, 1)
    assert report == reference_report(machine, spec, 0, 8)
    # the 3-state counter's b moves, without its a
    b_only_dfa = Dfa(3, ("b",), ((2,), (0,), (1,)), 0, {0})
    assert cross_check(machine, b_only_dfa, spec, i_max=0)
    assert cross_check(build_binary_l(4), b_only_dfa, spec, i_max=0)
    no_a = "symbol 'a' not in alphabet ('b',)"
    for call in (
        lambda: verify_exactness(machine, spec, i_max=1),
        lambda: cross_check(machine, build_min_dfa(spec), spec, i_max=1),
        lambda: cross_check(build_binary_l(4), b_only_dfa, spec, i_max=1),
    ):
        with pytest.raises(ValueError, match=re.escape(no_a)):
            call()


def test_unary_sweeps_read_each_automaton_over_its_own_symbol():
    # an int word is a run of the alphabet's one symbol, whatever it is
    spec = UnaryPromiseSpec(9, 2, 7)
    data = build_unary_general(9, 2, 7).to_dict()
    data["matrices"]["x"] = data["matrices"].pop("a")
    machine = Moqfa.from_dict({**data, "alphabet": ["x"]})
    assert machine._turns is not None
    dfa = build_min_dfa(spec)
    over_y = replace(dfa, alphabet=("y",))
    assert verify_exactness(machine, spec, 32, 4) == reference_report(machine, spec, 32, 4)
    assert verify_exactness(machine, spec).passed
    for automaton in (over_y, replace(over_y, start=(over_y.start + 1) % over_y.num_states)):
        assert cross_check(machine, automaton, spec, 32, 4) == reference_cross_check(
            machine, automaton, spec, 32, 4
        )
    assert cross_check(machine, over_y, spec)


def first_alphabet_error(spec, i_max, j_max, alphabets):
    """Per-word oracle: the message of the first ValueError that reading
    each witness over each alphabet in turn raises, or None."""
    for word, _ in enumerate_instances(spec, i_max, j_max):
        for alphabet in alphabets:
            try:
                as_runs(word, alphabet)
            except ValueError as error:
                return str(error)
    return None


def test_alphabet_check_at_huge_bounds_raises_the_first_per_word_error():
    # b^l comes before ab for l = 1, after it for l >= 2 (a tie at l = 2)
    specs = [UnaryPromiseSpec(7, 0, 3), UnaryPromiseSpec(9, 5, 2), UnaryPromiseSpec(2, 1, 0)]
    specs += [BinaryPromiseSpec(l) for l in (1, 2, 5)]
    specs += [BinaryPromiseSpec(l, N) for N, l in ((2, 1), (5, 2), (9, 7))]
    alphabets = [
        ("a",), ("b",), ("x",), ("c",), ("a", "b"),
        ("b", "a"), ("a", "x"), ("x", "b"), ("x", "y"), ("a", "b", "c"),
    ]
    raised = 0
    for spec in specs:
        for first in alphabets:
            for second in alphabets:
                pair = (first, second)
                expected = first_alphabet_error(spec, 3, 2, pair)
                assert expected == first_alphabet_error(spec, 1, 0, pair), (spec, pair)
                for i_max, j_max in ((10**12, 10**6), (3, 2)):
                    if expected is None:
                        _check_alphabets(spec, i_max, j_max, pair)
                        continue
                    with pytest.raises(ValueError) as error:
                        _check_alphabets(spec, i_max, j_max, pair)
                    assert str(error.value) == expected, (spec, pair, i_max)
                    raised += 1
    assert raised > len(specs) * len(alphabets) ** 2


def _same_turns(machine):
    """A binary closed-form machine whose `a` and `b` turn the same way,
    so that its class key moves with i."""
    data = machine.to_dict()
    data["matrices"]["a"] = data["matrices"]["b"]
    same = Moqfa.from_dict(data)
    assert same._turns == {"a": same._turns["b"], "b": same._turns["b"]}
    return same


def _machines_with_periods(spec, M):
    """Machines whose class keys repeat along the witness grid of `spec`
    with a period of 1 or more, and one without an angle. None need solve
    `spec`: the keys are all that a period concerns."""
    built = build_for(spec)[0]
    if isinstance(spec, UnaryPromiseSpec):
        other = build_unary_general(M, 0, M - 1)
        return [built, other, _relabelled(built), _relabelled(other), _without_angle(built)]
    other = build_binary_Nl(M, M - 1)
    same_turns = [_same_turns(other), _same_turns(build_binary_l(M))]
    return [built, other, *same_turns, _relabelled(other), _without_angle(other)]


def _key_sets(machine, spec, i_max, j_max, dfa=None):
    """Per side, the set of class keys, or of (class key, DFA final state)
    pairs, over the witnesses up to the bounds."""
    symbols = _witness_symbols(spec, machine.alphabet)
    sets = []
    for columns in _witness_columns(spec, i_max, j_max):
        keys = machine._class_keys(symbols, columns)
        if dfa is not None:
            keys = zip(keys, dfa._final_states(_witness_symbols(spec, dfa.alphabet), columns))
        sets.append(set(keys))
    return sets


@pytest.fixture
def cuts(monkeypatch):
    """The bounds (i, j) up to which each `_sweep` call has read the
    witness grid, in call order."""
    seen = []

    def recording(spec, i_max, j_max):
        seen.append((i_max, j_max))
        return _witness_columns(spec, i_max, j_max)

    monkeypatch.setattr(verify, "_witness_columns", recording)
    return seen


@pytest.mark.parametrize("seed", range(32))
def test_cut_witness_grid_meets_every_pair_of_the_full_grid(seed, cuts):
    # random tables with tails and several cycles, their orbit tables
    # warmed in shuffled orders so that walks stop on held tails and
    # cycles; the cut
    # grid must meet every class key and every (class key, DFA state)
    # pair that the full grid meets, where the cut bites and where not; a
    # small surplus l and modulus N leave b-tails past l + N, so that the
    # j-tail counts
    rng = random.Random(seed)
    N, M = rng.randint(2, 12), rng.randint(2, 12)
    r_yes, r_no = rng.sample(range(N), 2)
    l = rng.choice([1, rng.randint(1, N - 1)])
    bites = 0
    specs = (
        UnaryPromiseSpec(N, r_yes, r_no),
        BinaryPromiseSpec(l),
        BinaryPromiseSpec(l, N),
        BinaryPromiseSpec(1, rng.randint(2, 3)),
    )
    for spec in specs:
        alphabet = ("a",) if isinstance(spec, UnaryPromiseSpec) else ("a", "b")
        for machine in _machines_with_periods(spec, M):
            m = rng.randint(1, 9)
            delta = tuple(tuple(rng.randrange(m) for _ in alphabet) for _ in range(m))
            start = rng.randrange(m)
            bounds = [(0, 0), (1, 0), (3, 1), (9, 2), (24, 5), (48, 10)]
            bounds.append((rng.randint(0, 48), rng.randint(0, 10)))
            for i_max, j_max in bounds:
                sides = _sweep(machine, spec, i_max, j_max)
                assert list(map(set, sides)) == _key_sets(machine, spec, i_max, j_max)
                dfa = Dfa(m, alphabet, delta, start, frozenset())
                warm = [(state, k) for state in range(m) for k in range(len(alphabet))]
                rng.shuffle(warm)
                for state, k in warm[: rng.randint(0, len(warm))]:
                    dfa._advance(state, k, 0)
                sides = _sweep(machine, spec, i_max, j_max, dfa)
                assert list(map(set, sides)) == _key_sets(machine, spec, i_max, j_max, dfa), (
                    spec, delta, start, i_max, j_max, cuts[-1],
                )
                bites += cuts[-1] != (i_max, j_max)
    assert bites > 0


def test_sweeps_at_huge_bounds_take_constant_space():
    i_max, j_max = 10**12, 10**6
    one_per_i = (i_max + 1, i_max + 1)
    sizes = {"A": one_per_i, "B": one_per_i, "BN": (i_max + 1, (i_max + 1) * (j_max + 1))}
    specs = {
        "A": [UnaryPromiseSpec(7, 0, 3), UnaryPromiseSpec(60, 17, 2), UnaryPromiseSpec(59, 5, 41)],
        "B": [BinaryPromiseSpec(4), BinaryPromiseSpec(12), BinaryPromiseSpec(60)],
        "BN": [BinaryPromiseSpec(5, 37), BinaryPromiseSpec(2, 5), BinaryPromiseSpec(7, 12)],
    }
    for family, family_specs in specs.items():
        for spec in family_specs:
            machine, dfa = build_for(spec)[0], build_min_dfa(spec)
            began = time.perf_counter()
            report = verify_exactness(machine, spec, i_max, j_max)
            assert time.perf_counter() - began < 0.05, spec
            assert report.passed and (report.yes_checked, report.no_checked) == sizes[family], spec
            began = time.perf_counter()
            assert cross_check(machine, dfa, spec, i_max, j_max), spec
            assert time.perf_counter() - began < 0.05, spec


def test_cross_check_holds_each_cycle_of_a_large_counter_once():
    # the sweep up to i = 2999 reads the b-orbit of every state of the
    # 3000-state counter: each symbol's cycle is held once, and no state
    # copies it, so the tables, tails and cycles hold O(d) states
    d = 3000
    dfa = build_binary_min_dfa(d)
    assert cross_check(build_binary_Nl(d, 1), dfa, BinaryPromiseSpec(1, d), 5000, 4)
    tables = [entry for table in dfa._orbits.values() for entry in table.values()]
    cycles = {id(cycle): len(cycle) for _, cycle, _ in tables}
    assert sum(cycles.values()) + sum(len(tail) for tail, _, _ in tables) <= 2 * d + 2


def test_cut_reaches_a_b_tail_off_the_a_cycle(cuts):
    # a^i b^(1 + 2j) from state 0: `a` leaves 0 at once for the loop at 1,
    # so only i = 0 reads the b-orbit of 0, a tail [0, 2, 3] into the
    # cycle [4, 5, 6]; b^(1 + 2j) ends in 2, 4, 6, 5 for j = 0..3, so the
    # cut must reach j = 3: tail ceil((3 - 1) / 2) = 1, period 3 / gcd(2, 3)
    spec = BinaryPromiseSpec(1, 2)
    delta = ((1, 2), (1, 1), (1, 3), (1, 4), (1, 5), (1, 6), (1, 4))
    machine = build_binary_Nl(2, 1)
    for i_max, j_max in ((0, 3), (5, 6), (40, 12)):
        dfa = Dfa(7, ("a", "b"), delta, 0, frozenset())
        assert dfa._witness_periods(spec, ("a", "b"), i_max, j_max)[1] == (1, 3)
        sides = list(map(set, _sweep(machine, spec, i_max, j_max, dfa)))
        assert cuts[-1][1] == 3
        assert {state for _, state in sides[1]} == ({1, 2, 4, 5, 6} if i_max else {2, 4, 5, 6})
        assert sides == _key_sets(machine, spec, i_max, j_max, dfa)


@pytest.mark.parametrize("seed", range(8))
def test_lasso_last_meets_every_pair_met_up_to_the_bound(seed):
    # a class key counting mod D (tail 0) and a DFA state along a random
    # orbit, taken in step: the counts up to the `last` of their join
    # meet every (key, state) pair that the counts up to the bound meet
    rng = random.Random(seed)
    m = rng.randint(1, 9)
    delta = tuple((rng.randrange(m),) for _ in range(m))
    dfa = Dfa(m, ("a",), delta, 0, frozenset())
    for x in range(m):
        tail, cycle, offset = dfa._orbit(x, 0)
        path = [*tail, *cycle[offset:], *cycle[:offset]]
        state = _Lasso((len(tail), len(cycle)))
        for D in range(1, 9):
            key = _Lasso((0, D))
            joined = key.join(state)
            for bound in range(3 * (joined.tail + joined.period)):
                met = {(n % D, path[state.index(n)]) for n in range(bound + 1)}
                assert met == {(n % D, path[state.index(n)]) for n in range(joined.last(bound) + 1)}
                assert {path[state.index(n)] for n in range(state.last(bound) + 1)} == {pair[1] for pair in met}


def test_every_built_machine_sweeps_one_class_per_side(cuts):
    # a built machine's class key has period 1 along both indices, so its
    # sweep reads one witness per side at any bounds, and against the
    # minimal DFA it still meets one class key per side; a check of those
    # keys covers the whole infinite promise
    for spec in grid_specs(60, 32, 40):
        machine = build_for(spec)[0]
        sides = _sweep(machine, spec, DEFAULT_I_MAX, DEFAULT_J_MAX)
        assert (cuts[-1], [len(side) for side in sides]) == ((0, 0), [1, 1]), spec
        if isinstance(spec, BinaryPromiseSpec) or spec.r_yes == 0:
            sides = _sweep(machine, spec, DEFAULT_I_MAX, DEFAULT_J_MAX, build_min_dfa(spec))
            assert [len({key for key, _ in side}) for side in sides] == [1, 1], spec


def test_a_nan_probability_fails_the_sweep():
    # every probability is nan; max() would drop a nan and read 0.0
    machine = build_unary(7, 3)
    u_left = [list(row) for row in machine._u_left]
    u_left[0][0] = float("nan")
    broken = replace(machine, u_left=u_left)
    report = verify_exactness(broken, UnaryPromiseSpec(7, 0, 3))
    assert not report.passed
    assert math.isnan(report.max_yes_deficit) and math.isnan(report.max_no_leak)
    assert not cross_check(broken, build_min_dfa(UnaryPromiseSpec(7, 0, 3)), UnaryPromiseSpec(7, 0, 3))
