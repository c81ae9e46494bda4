import json
import math
from dataclasses import replace
from operator import mul
from pathlib import Path

import numpy as np
import pytest

from qfa_exact import (
    AngleSpec,
    BinaryPromiseSpec,
    Moqfa,
    UnaryPromiseSpec,
    build_binary_Nl,
    build_binary_l,
    build_unary,
    build_unary_min_dfa,
    enumerate_instances,
)
from qfa_exact.moqfa import _as_rows, _gram_off_identity, _Rows, identity, matmul, turn
from qfa_exact.promise import _witness_steps, _witness_symbols
from qfa_exact.synth import build_for
from qfa_exact.words import _STILL
from spec_grids import grid_specs

DATA = Path(__file__).parent / "data"


def naive_final_state(machine, word):
    """Step-by-step oracle: apply matrices one symbol at a time, no
    modular reduction, no matrix powers."""
    state = machine.u_left @ np.eye(machine.dim)[:, 0]
    if isinstance(word, int):
        word = machine.alphabet[0] * word
    for sym in word:
        state = machine.u_sym[sym] @ state
    return machine.u_right @ state


def test_angle_spec_normalizes_and_reduces():
    angle = AngleSpec(9, 7)
    assert angle.q == 2
    assert angle.reduced_units(5) == 10 % 7
    assert angle.reduced_units(-1) == 5
    with pytest.raises(ValueError):
        AngleSpec(1, 0)
    with pytest.raises(ValueError):
        AngleSpec(-1, 4)


@pytest.mark.parametrize("q,D", [(1, True), (1, 7.0), (True, 7), (1.0, 7), ("1", 7), (1, None)])
def test_angle_spec_rejects_bools_and_non_integers(q, D):
    with pytest.raises(ValueError, match="must be an integer"):
        AngleSpec(q, D)


@pytest.mark.parametrize("D", [10**400, 10**308], ids=["10**400", "10**308"])
def test_angle_spec_refuses_a_denominator_too_large_for_a_float(D):
    # 2*pi*D overflows: 10**400 as an int-to-float conversion, 10**308 to inf
    with pytest.raises(ValueError, match="denominator"):
        AngleSpec(1, D)


def test_angle_spec_stores_integer_types_as_int():
    angle = AngleSpec(np.int64(9), np.int32(7))
    assert (angle.q, angle.D) == (2, 7)
    assert type(angle.q) is int and type(angle.D) is int


def test_rotation_is_exactly_reduced():
    angle = AngleSpec(1, 4)
    # 4 quarter turns reduce to the identity angle, not an accumulated sum
    assert np.array_equal(angle.rotation(4), np.eye(2))
    expected = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.allclose(angle.rotation(3), expected, atol=1e-15)


def test_final_state_empty_word_applies_end_markers_only():
    machine = build_unary(7, 3)
    expected = machine.u_right @ machine.u_left @ np.eye(3)[:, 0]
    assert np.allclose(machine.final_state(0), expected, atol=1e-15)
    assert np.allclose(machine.final_state(""), expected, atol=1e-15)


def test_final_state_ab_cancels_for_unit_surplus_machine():
    machine = build_binary_l(1)
    # oracle: the two 2x2 rotations multiply to the identity
    theta = math.pi / 2
    u_a = np.array([[math.cos(theta), math.sin(theta)],
                    [-math.sin(theta), math.cos(theta)]])
    u_b = u_a.T
    assert np.allclose(u_b @ u_a, np.eye(2), atol=1e-15)
    assert np.allclose(machine.final_state("ab"), [1.0, 0.0], atol=1e-12)


def test_final_state_full_cycle_returns_to_start():
    machine = build_unary(4, 1)
    assert np.allclose(machine.final_state(4), [1.0, 0.0, 0.0], atol=1e-12)


def test_accept_probability_projects_on_accepting_set():
    machine = build_unary(7, 3)
    assert machine.accept_probability(0) == pytest.approx(1.0, abs=1e-12)
    assert machine.accept_probability(10) <= 1e-18
    # a no-instance's final state keeps all weight off basis state 0
    final = machine.final_state(10)
    assert abs(final[0]) <= 1e-12
    assert final[1] ** 2 + final[2] ** 2 == pytest.approx(1.0, abs=1e-12)


def test_unknown_symbols_and_word_forms_are_rejected():
    machine = build_binary_l(2)
    with pytest.raises(ValueError):
        machine.accept_probability("abc")
    with pytest.raises(ValueError):
        machine.accept_probability(4)  # int words need a unary alphabet
    with pytest.raises(ValueError):
        build_unary(7, 3).accept_probability("b")


@pytest.mark.parametrize("machine", [build_unary(7, 3), build_binary_l(5), build_binary_Nl(9, 7)])
def test_builder_outputs_are_orthogonal(machine):
    assert machine.check_orthogonality() <= 1e-12


def test_corrupted_matrix_is_detected():
    machine = build_unary(7, 3)
    u_left = machine.u_left.copy()
    u_left[0, 0] += 0.1
    corrupted = Moqfa(
        dim=3,
        alphabet=("a",),
        u_left=u_left,
        u_sym=dict(machine.u_sym),
        u_right=machine.u_right,
        accepting={0},
    )
    assert corrupted.check_orthogonality() >= 0.01


@pytest.mark.parametrize(
    "machine,period",
    [
        (build_unary(12, 5), 12),
        (build_unary(60, 7), 60),
        (build_binary_l(3), 12),
        (build_binary_l(250), 1000),
        (build_binary_Nl(11, 8), 11),
    ],
)
def test_symbol_matrices_have_angle_period(machine, period):
    assert machine.angle.D == period
    for u in machine.u_sym.values():
        power = np.eye(machine.dim)
        for _ in range(period):
            power = u @ power
        assert np.max(np.abs(power - np.eye(machine.dim))) <= 1e-9


@pytest.mark.parametrize(
    "machine,words",
    [
        (build_unary(9, 4), [0, 1, 17, 123, 500]),
        (build_binary_l(6), ["", "aabb", "a" * 40 + "b" * 46, "b" * 500]),
        (build_binary_Nl(7, 3), ["ab", "a" * 20 + "b" * 200]),
    ],
)
def test_reduced_evaluation_matches_naive_stepping(machine, words):
    for word in words:
        reduced = machine.final_state(word)
        naive = naive_final_state(machine, word)
        assert np.max(np.abs(reduced - naive)) <= 1e-9
        assert np.linalg.norm(reduced) == pytest.approx(1.0, abs=1e-9)


def test_norm_is_preserved_along_runs():
    machine = build_binary_Nl(13, 10)
    state = machine.u_left @ np.eye(3)[:, 0]
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-9)
    for sym in "aaabbbbbbbbbbbb":
        state = machine.u_sym[sym] @ state
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-9)
    state = machine.u_right @ state
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-9)


def test_machine_without_angle_still_simulates():
    base = build_unary(5, 2)
    raw = Moqfa(
        dim=3,
        alphabet=("a",),
        u_left=base.u_left,
        u_sym=dict(base.u_sym),
        u_right=base.u_right,
        accepting={0},
        angle=None,
    )
    for n in (0, 3, 17, 64):
        assert np.allclose(raw.final_state(n), base.final_state(n), atol=1e-9)


def test_json_round_trip_preserves_behavior():
    machine = build_binary_Nl(13, 10)
    clone = Moqfa.from_json(machine.to_json())
    assert clone.dim == machine.dim
    assert clone.alphabet == machine.alphabet
    assert clone.angle == machine.angle
    assert clone.accepting == machine.accepting
    assert np.array_equal(clone.u_left, machine.u_left)
    assert np.array_equal(clone.u_right, machine.u_right)
    for sym in machine.alphabet:
        assert np.array_equal(clone.u_sym[sym], machine.u_sym[sym])
    word = (("a", 4), ("b", 30))
    assert clone.accept_probability(word) == machine.accept_probability(word)


def test_json_schema_fields():
    data = build_unary(7, 3).to_dict()
    assert data["dim"] == 3
    assert data["alphabet"] == ["a"]
    assert data["angle"] == {"q": 1, "D": 7}
    assert set(data["matrices"]) == {"lmark", "rmark", "a"}
    assert data["accepting"] == [0]


def test_malformed_json_raises_value_error():
    with pytest.raises(ValueError):
        Moqfa.from_json("{not json")
    with pytest.raises(ValueError):
        Moqfa.from_json('{"dim": 2}')  # valid JSON, missing machine fields


def test_moqfa_construction_validation():
    with pytest.raises(ValueError):
        Moqfa(dim=2, alphabet=("a",), u_left=np.eye(3), u_sym={"a": np.eye(2)},
              u_right=np.eye(2), accepting={0})
    with pytest.raises(ValueError):
        Moqfa(dim=2, alphabet=("a", "b"), u_left=np.eye(2), u_sym={"a": np.eye(2)},
              u_right=np.eye(2), accepting={0})
    with pytest.raises(ValueError):
        Moqfa(dim=2, alphabet=("a",), u_left=np.eye(2), u_sym={"a": np.eye(2)},
              u_right=np.eye(2), accepting={0, 5})


def test_replace_starts_with_an_empty_power_memo():
    other_sym = build_unary(7, 1).u_sym
    fresh = replace(build_unary(7, 3), u_sym=other_sym).accept_probability(2)
    machine = build_unary(7, 3)
    machine.accept_probability(2)
    swapped = replace(machine, u_sym=other_sym)
    assert swapped._powers == {}
    assert swapped.accept_probability(2) == fresh
    assert fresh < 1e-12  # a stale copied memo gave 0.127 here


def test_power_memo_only_for_machines_with_an_angle():
    base = build_unary(7, 3)
    raw = Moqfa.from_dict({**base.to_dict(), "angle": None})
    for n in range(1, 200):
        raw.accept_probability(n)
        base.accept_probability(n)
    assert raw._powers == {}
    assert len(base._powers) == 7  # one entry per residue mod 7


def test_reduced_runs_drop_whole_periods():
    machine = build_binary_Nl(5, 2)
    D = machine.angle.D
    assert machine.reduced_runs((("a", D), ("b", 2 * D + 3))) == (("b", 3),)
    assert machine.reduced_runs("") == ()
    raw = Moqfa.from_dict({**machine.to_dict(), "angle": None})
    assert raw.reduced_runs((("a", D), ("b", 3))) == (("a", D), ("b", 3))


def test_bool_words_are_rejected():
    with pytest.raises(ValueError):
        build_unary(7, 3).accept_probability(True)


def test_numpy_integer_words_are_lengths_and_other_scalars_fail_cleanly():
    machine = build_unary(7, 3)
    dfa = build_unary_min_dfa(7, 3)
    assert machine.accept_probability(np.int64(14)) == machine.accept_probability(14)
    assert dfa.accepts(np.int64(14)) and not dfa.accepts(np.int64(17))
    for word in (3.0, None, np.bool_(False)):
        with pytest.raises(ValueError):
            machine.accept_probability(word)
        with pytest.raises(ValueError):
            dfa.accepts(word)


def test_loading_checks_pass_on_built_machines():
    for machine in (build_unary(7, 3), build_binary_l(6), build_binary_Nl(13, 10),
                    build_unary(999983, 999982), build_binary_Nl(10**6, 2), build_binary_l(228589)):
        assert machine.check_period() <= 1e-10 + 1e-14 * machine.angle.D
        clone = Moqfa.from_json(machine.to_json())
        assert clone.angle == machine.angle


def test_loading_rejects_an_edited_period():
    data = build_unary(7, 3).to_dict()
    data["angle"]["D"] = 5  # loaded unchecked, this gave P(a^14) = 7e-32, not 1
    with pytest.raises(ValueError, match="period"):
        Moqfa.from_dict(data)
    data["angle"]["D"] = 14  # any multiple of the period is still one
    assert Moqfa.from_dict(data).accept_probability(14) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("entry", [3.0, float("nan"), float("inf")])
def test_loading_rejects_non_orthogonal_matrices(entry):
    data = build_unary(7, 3).to_dict()
    data["matrices"]["a"][0][0] += entry
    with pytest.raises(ValueError, match="orthogonal"):
        Moqfa.from_dict(data)
    raw = {**build_binary_l(2).to_dict(), "angle": None}
    raw["matrices"]["lmark"][1][1] += entry
    with pytest.raises(ValueError, match="orthogonal"):
        Moqfa.from_dict(raw)


@pytest.mark.parametrize(
    "field,value",
    [("dim", "3"), ("dim", True), ("dim", 3.0), ("accepting", [True]), ("accepting", [0.0])],
)
def test_loading_checks_integer_fields(field, value):
    data = json.loads(build_unary(7, 3).to_json())
    data[field] = value
    with pytest.raises(ValueError, match="must be an integer"):
        Moqfa.from_json(json.dumps(data))


@pytest.mark.parametrize("alphabet", [["a", "a"], {"a": 1}, ["aa"], "a", [None], [["a"]]])
def test_loading_checks_the_alphabet(alphabet):
    data = json.loads(build_unary(7, 3).to_json())
    data["alphabet"] = alphabet
    with pytest.raises(ValueError, match="alphabet must be an array of distinct one-character strings"):
        Moqfa.from_json(json.dumps(data))


def test_check_period_without_an_angle_is_zero():
    raw = Moqfa.from_dict({**build_unary(7, 3).to_dict(), "angle": None})
    assert raw.check_period() == 0.0


def _one_ulp_off(machine):
    """A copy of `machine` with one entry of its first symbol matrix moved by one ulp."""
    data = machine.to_dict()
    matrix = data["matrices"][machine.alphabet[0]]
    matrix[0][0] = math.nextafter(matrix[0][0], math.inf)
    return Moqfa.from_dict(data)


@pytest.mark.parametrize(
    "machine",
    [build_unary(999983, 999982), build_binary_l(228589), build_binary_Nl(10**6, 2), build_binary_Nl(13, 10)],
    ids=["A", "B", "BN", "BN_small"],
)
def test_built_machines_take_the_closed_form_and_agree_with_the_generic_path(machine):
    clone = Moqfa.from_json(machine.to_json())
    generic = _one_ulp_off(machine)
    assert machine._turns is not None and clone._turns == machine._turns
    assert generic._turns is None
    rng = np.random.default_rng(12)
    for _ in range(40):
        counts = [int(c) for c in rng.integers(0, 10**12, size=3)]
        if len(machine.alphabet) == 1:
            word = sum(counts)
        else:
            word = (("a", counts[0]), ("b", counts[1]), ("a", counts[2]))
        closed = machine.final_state(word)
        assert np.array_equal(clone.final_state(word), closed)
        assert np.max(np.abs(generic.final_state(word) - closed)) <= 1e-9
        assert abs(generic.accept_probability(word) - machine.accept_probability(word)) <= 1e-9


def test_loading_refuses_a_false_period_beyond_the_drift_range():
    data = build_unary(7, 3).to_dict()
    data["angle"]["D"] = 10**15  # once passed: a drift allowance of 10 outgrows any |u^D - I|
    with pytest.raises(ValueError, match="period"):
        Moqfa.from_dict(data)


def reference_gram(m):
    """|m^T m - I| on and above the diagonal, row by row, each entry a sum
    over the two columns: the generic Gram formula."""
    columns = list(zip(*m))
    n = len(columns)
    return [abs(sum(map(mul, columns[i], columns[j])) - (i == j)) for i in range(n) for j in range(i, n)]


def reference_orthogonality(machine):
    """The full Gram check on every matrix: the worst |M^T M - I| entry on
    and above the diagonal, nan if any is nan, 0.0 with no entries."""
    deviations = []
    for m in machine.to_dict()["matrices"].values():
        deviations += reference_gram(m)
    if any(map(math.isnan, deviations)):
        return math.nan
    return max(deviations, default=0.0)


@pytest.mark.parametrize("dim", [2, 3])
def test_check_orthogonality_equals_the_generic_gram_on_random_matrices(dim):
    """Dense random matrices and near-rotations, some with a nan or an
    infinite entry, as markers around a closed-form symbol or as the
    symbol itself: the deviations equal the generic formula's by repr."""
    rng = np.random.default_rng(dim)
    angle = AngleSpec(3, 11)
    closed_form = 0
    for k in range(600):
        matrices = []
        for _ in range(3):
            if rng.random() < 0.5:
                m = rng.normal(size=(dim, dim)).tolist()
            else:
                t = rng.uniform(0, 2 * math.pi)
                m = [list(row) for row in turn(dim, math.cos(t), math.sin(t))]
                m[rng.integers(dim)][rng.integers(dim)] += rng.choice([0.0, 1e-11, -3e-7])
            matrices.append(m)
        u_left, u_sym, u_right = matrices
        if k % 2:
            u_sym = turn(dim, *angle.cos_sin(1))
        entry = [None, math.nan, math.inf, -math.inf][k % 4]
        if entry is not None:
            target = [u_left, u_right, u_sym][k // 4 % 3]
            if not isinstance(target, list):
                target = u_sym = [list(row) for row in u_sym]
            target[rng.integers(dim)][rng.integers(dim)] = entry
        machine = Moqfa(dim=dim, alphabet=("a",), u_left=u_left, u_sym={"a": u_sym}, u_right=u_right,
                        accepting={0}, angle=angle)
        closed_form += machine._turns is not None
        for m in (machine._u_left, machine._u_sym["a"], machine._u_right):
            assert list(map(repr, _gram_off_identity(m))) == list(map(repr, reference_gram(m)))
        worst = machine.check_orthogonality()
        assert repr(worst) == repr(reference_orthogonality(machine)), machine.to_json()
        if entry is not None:
            assert math.isnan(worst) if math.isnan(entry) else not math.isfinite(worst)
    assert closed_form >= 200


def test_a_built_machine_has_no_class_lasso_along_its_witness_lines():
    # a built machine's turns cancel along every witness line, so each
    # class lasso there is `_STILL` itself; a line on which the turns do
    # not cancel, or a machine off the closed form, cycles mod D
    for spec in (UnaryPromiseSpec(15, 0, 5), BinaryPromiseSpec(4), BinaryPromiseSpec(5, 13)):
        machine = build_for(spec)[0]
        symbols = _witness_symbols(spec, machine.alphabet)
        for steps in _witness_steps(spec):
            assert machine._class_lasso(symbols, steps) is _STILL, (spec, steps)
    machine = build_binary_Nl(13, 5)
    assert machine._class_lasso(("a", "b"), (1, 0)) == (0, 13)
    assert _one_ulp_off(machine)._class_lasso(("a", "b"), (1, 1)) == (0, 13)


def test_an_infinite_entry_beside_a_zero_gives_a_nan_deviation():
    rows = [[1.0, 0.0, 0.0], [0.0, math.inf, 0.0], [0.0, 0.0, 1.0]]  # inf * 0.0 is nan
    machine = Moqfa(dim=3, alphabet=(), u_left=rows, u_sym={}, u_right=identity(3), accepting={0})
    assert math.isnan(machine.check_orthogonality())
    assert math.isnan(reference_orthogonality(machine))


def _grid_machines():
    """Every built machine for A with N <= 25 (all residue pairs), B with
    l <= 60 and BN with N <= 40."""
    for spec in grid_specs(25, 60, 40):
        yield build_for(spec)[0]


def _huge_words(spec):
    """Three witnesses of `spec` with i near 10**12: two yes-words and a
    no-word for A, a yes-word and two no-words (j = 0 and j = 10**6 for
    BN) for B and BN."""
    i = 10**12
    if isinstance(spec, UnaryPromiseSpec):
        return [spec.r_yes + i * spec.N, spec.r_no + (i + 1) * spec.N, spec.r_yes + (i + 7) * spec.N]
    far = spec.l + (0 if spec.N is None else 10**6 * spec.N)
    return [(("a", i), ("b", i)), (("a", i + 1), ("b", i + 1 + spec.l)), (("a", i + 7), ("b", i + 7 + far))]


def test_every_built_machine_and_its_json_clone_agree_bit_for_bit():
    """For A with N <= 40 (all residue pairs), B with l <= 32 and BN with
    N <= 30, the JSON clone passes every loader check and equals the
    machine by repr (signed zeros count): the same turns, the same
    orthogonality deviation and the same probabilities on the witness
    grid (i <= 2, j <= 1; a built machine has one class per side at any
    bounds) and on three words with i near 10**12. No probability among
    them raises."""
    count = 0
    for spec in grid_specs(40, 32, 30):
        machine = build_for(spec)[0]
        clone = Moqfa.from_json(machine.to_json(indent=None))
        assert machine._turns is not None and clone._turns == machine._turns
        assert repr(clone.check_orthogonality()) == repr(machine.check_orthogonality())
        words = [word for word, _ in enumerate_instances(spec, 2, 1)] + _huge_words(spec)
        expected = [repr(machine.accept_probability(word)) for word in words]
        assert [repr(clone.accept_probability(word)) for word in words] == expected, spec
        count += 1
    assert count == 21320 + 32 + 435


def test_a_probability_beyond_the_tolerance_raises():
    # build_unary(7, 3) without its angle, `a` scaled by 1 + 2e-11: the
    # loader passes it (deviation 4e-11), but over 10**12 steps the
    # accepting amplitude grows to about 4e8, once clamped to 1.0
    machine = Moqfa.from_json((DATA / "drifting_machine.json").read_text())
    assert machine.angle is None
    assert 3e-11 < machine.check_orthogonality() <= 1e-10
    assert machine.accept_probability(14) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError, match="outside \\[0, 1\\]"):
        machine.accept_probability(10**12 + 5)


def _with_matrices(machine, edit):
    """A copy of `machine` whose matrices, as lists of rows by name, went
    through `edit`; the angle is kept."""
    matrices = machine.to_dict()["matrices"]
    edit(matrices)
    u_left, u_right = matrices.pop("lmark"), matrices.pop("rmark")
    return Moqfa(dim=machine.dim, alphabet=machine.alphabet, u_left=u_left, u_sym=matrices,
                 u_right=u_right, accepting=machine.accepting, angle=machine.angle)


def _relabel(matrices):
    # basis states 0, 1, 2 renamed 2, 0, 1: the rotations turn axes 0 and 1
    order = [1, 2, 0]
    for name, m in matrices.items():
        matrices[name] = [[m[i][j] for j in order] for i in order]


def _tamper_symbol(matrices):
    matrices["a"][1][1] += 1e-3


def _tamper_marker(matrices):
    matrices["lmark"][0][0] = math.nextafter(matrices["lmark"][0][0], math.inf)


def test_check_orthogonality_equals_the_full_gram_on_every_built_machine_and_its_copies():
    for k, machine in enumerate(_grid_machines()):
        assert machine._turns is not None
        expected = reference_orthogonality(machine)
        assert machine.check_orthogonality() == expected, machine.to_json()
        if k % 3:
            continue  # the copies, built from lists, take every third machine
        stripped = replace(machine, angle=None)
        assert stripped._turns is None
        assert stripped.check_orthogonality() == expected
        copies = [(_with_matrices(machine, _tamper_symbol), False), (_with_matrices(machine, _tamper_marker), True)]
        if machine.dim == 3:
            copies.append((_with_matrices(machine, _relabel), False))
        for copy, closed_form in copies:
            assert (copy._turns is not None) == closed_form
            assert copy.check_orthogonality() == reference_orthogonality(copy), copy.to_json()


def test_check_orthogonality_of_a_machine_without_symbols_reads_the_markers_only():
    angle = AngleSpec(1, 3)
    c, s = angle.cos_sin(1)
    assert c * c + s * s != 1.0  # a symbol turned by this angle would show
    machine = Moqfa(dim=2, alphabet=(), u_left=identity(2), u_sym={}, u_right=identity(2),
                    accepting={0}, angle=angle)
    assert machine._turns == {}
    assert machine.check_orthogonality() == reference_orthogonality(machine) == 0.0


@pytest.mark.parametrize(
    "matrix",
    [
        np.eye(2),
        [[1.0, 0.0], [0.0, 1.0]],
        [[1.0, 0.0, 0.0]] * 2,
        [[1.0, 0.0], [0.0]],
        [[1.0, 0.0], [0.0, 1.0, 0.0]],
        [[True, 0], [0, 1]],
        [[1.0, "0"], [0.0, 1.0]],
        [[1.0, None], [0.0, 1.0]],
        [[1.0, [0.0]], [0.0, 1.0]],
        [[1.0, 0.0], 5],
        {"a": 1},
        "ab",
        None,
        5,
        [],
        identity(2),
        turn(2, 0.6, 0.8),
        matmul(identity(4), identity(4)),
    ],
)
def test_as_rows_refuses_every_malformed_or_wrong_sized_matrix(matrix):
    with pytest.raises(ValueError, match=r"matrix 'x' must be a 3x3 array of numbers"):
        _as_rows(matrix, 3, "x")


def test_as_rows_keeps_its_own_rows_and_converts_the_rest():
    rows = turn(3, 0.6, 0.8)
    assert _as_rows(rows, 3, "x") is rows
    plain = _as_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3, "x")
    assert type(plain) is not _Rows and plain == identity(3)
    assert all(type(x) is float for row in plain for x in row)
    assert _as_rows(tuple(rows), 3, "x") == rows


def test_package_rows_hold_only_floats():
    matrices = [identity(dim) for dim in (1, 2, 3, 4)]
    matrices += [turn(2, 1, 0), turn(3, 1, 0), turn(3, 0, -1), turn(3, 0.6, 0.8)]
    matrices += [matmul(turn(3, 0, 1), turn(3, 1, 0)), matmul(identity(2), turn(2, 0.6, 0.8))]
    for m in matrices:
        assert type(m) is _Rows
        assert len(set(map(len, m))) == 1 and len(m[0]) == len(m)
        assert all(type(x) is float for row in m for x in row), m
    assert json.dumps(turn(3, 1, 0)) == "[[1.0, 0.0, 0.0], [0.0, 1.0, -0.0], [0.0, 0.0, 1.0]]"
