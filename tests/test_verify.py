import io
from dataclasses import fields, replace

import pytest

from qfa_exact import (
    BinaryPromiseSpec,
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
