import json
import math
from dataclasses import replace

import numpy as np
import pytest

from qfa_exact import AngleSpec, Moqfa, build_binary_Nl, build_binary_l, build_unary, build_unary_min_dfa


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
    assert len(base._powers) == 6  # one entry per nonzero residue mod 7


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
