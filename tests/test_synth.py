import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from qfa_exact import (
    AngleSelection,
    AngleSpec,
    BinaryPromiseSpec,
    UnaryPromiseSpec,
    build_binary_Nl,
    build_binary_l,
    build_unary,
    build_unary_general,
    lift_parameters,
    select_angle,
    verify_exactness,
)
from qfa_exact.synth import _checked, build_for


def smallest_window_j(N, l):
    """Independent search for the wrap-around multiplier: smallest j >= 1
    whose fractional part of j*(N-l)/l lies strictly inside (1/4, 2/3),
    done with exact rationals."""
    x = Fraction(N - l, l)
    j = 1
    while True:
        frac = j * x - math.floor(j * x)
        if Fraction(1, 4) < frac < Fraction(2, 3):
            return j
        j += 1


def test_select_angle_mid_case():
    sel = select_angle(8, 4)
    assert (sel.q, sel.D, sel.case_tag) == (1, 8, "mid")
    assert sel.p == pytest.approx(-1.0, abs=1e-12)


def test_select_angle_small_case():
    sel = select_angle(12, 2)
    assert (sel.q, sel.D, sel.case_tag) == (2, 12, "small_l")
    assert sel.theta == pytest.approx(math.pi / 3, abs=1e-12)
    assert sel.p == pytest.approx(-0.5, abs=1e-12)


def test_select_angle_large_case():
    sel = select_angle(13, 10)
    assert (sel.q, sel.D, sel.case_tag) == (2, 13, "large_l")
    assert sel.p == pytest.approx(-math.cos(math.pi / 13), abs=1e-12)
    # brute force: some q in [1, 13] must give a nonpositive cosine, and
    # the chosen one does
    assert any(math.cos(2 * math.pi * q * 10 / 13) <= 0 for q in range(1, 14))
    assert math.cos(2 * math.pi * sel.q * 10 / 13) <= 0


def test_select_angle_boundaries_take_mid_case():
    assert select_angle(8, 2).case_tag == "mid"   # 4l == N
    assert select_angle(8, 6).case_tag == "mid"   # 4l == 3N
    assert select_angle(9, 2).case_tag == "small_l"
    assert select_angle(9, 7).case_tag == "large_l"


def test_select_angle_rejects_bad_offsets():
    with pytest.raises(ValueError):
        select_angle(7, 0)
    with pytest.raises(ValueError):
        select_angle(7, 7)
    with pytest.raises(ValueError):
        select_angle(7, -2)


def test_select_angle_soundness_sweep():
    for N in range(2, 101):
        for l in range(1, N):
            sel = select_angle(N, l)
            assert sel.p <= 1e-12, (N, l, sel)
            assert 1 <= sel.q <= N, (N, l, sel)
            units = (sel.q * l) % N
            assert sel.p == pytest.approx(math.cos(2 * math.pi * units / N), abs=1e-15)


def test_large_case_follows_smallest_window_multiplier():
    for N, l in [(13, 10), (5, 4), (9, 7), (50, 39), (97, 96), (60, 59)]:
        assert 4 * l > 3 * N
        j = smallest_window_j(N, l)
        assert j <= 2 * l
        expected_q = int(Fraction(N, l) * (j + Fraction(1, 4))) + 1
        assert select_angle(N, l).q == expected_q


def test_window_search_terminates_everywhere_up_to_500():
    # select_angle takes the large case's multiplier in closed form, with
    # no scan left to run long; this re-checks that case's soundness only,
    # and test_closed_form_selection_matches_the_window_scan_up_to_300
    # pins the multiplier itself
    for N in range(2, 501):
        for l in range(3 * N // 4 + 1, N):
            sel = select_angle(N, l)
            assert sel.case_tag == "large_l" and sel.p <= 1e-12, (N, l)


def scanned_angle(N, l):
    """Reference selection that scans j = 1, 2, ... for the fractional
    window instead of taking it in closed form; (q, case_tag, p)."""
    if 4 * l < N:
        q, case = -(-N // (4 * l)), "small_l"
    elif 4 * l <= 3 * N:
        q, case = 1, "mid"
    else:
        # smallest j >= 1 with 1/4 < frac(j*(N-l)/l) < 2/3, i.e. with
        # remainder r = j*(N-l) mod l satisfying l < 4r and 3r < 2l
        for j in range(1, 2 * l + 1):
            r = j * (N - l) % l
            if l < 4 * r and 3 * r < 2 * l:
                break
        else:
            raise AssertionError(f"no window hit for N={N}, l={l} within j <= {2 * l}")
        q, case = (N * (4 * j + 1)) // (4 * l) + 1, "large_l"
    return q, case, math.cos(2.0 * math.pi * (q * l % N) / N)


def test_closed_form_selection_matches_the_window_scan_up_to_300():
    for N in range(2, 301):
        for l in range(1, N):
            sel = select_angle(N, l)
            assert (sel.q, sel.case_tag, sel.p) == scanned_angle(N, l), (N, l)


def test_select_angle_takes_no_time_on_a_huge_large_case():
    # the scan would take 2.5 * 10**11 steps here
    sel = select_angle(10**12 + 1, 10**12)
    assert (sel.q, sel.case_tag) == (250000000002, "large_l")
    assert sel.p <= 0


@pytest.mark.parametrize(
    "p,alpha,beta",
    [
        (0.0, 0.0, 1.0),
        (-1.0, math.sqrt(0.5), math.sqrt(0.5)),
        (-0.5, math.sqrt(1 / 3), math.sqrt(2 / 3)),
    ],
)
def test_lift_parameters_examples(p, alpha, beta):
    lift = lift_parameters(p)
    assert lift.alpha == pytest.approx(alpha, abs=1e-12)
    assert lift.beta == pytest.approx(beta, abs=1e-12)


def test_lift_parameters_identities_hold():
    rng = np.random.default_rng(7)
    for p in -rng.random(200):
        lift = lift_parameters(float(p))
        assert abs(lift.alpha**2 + lift.beta**2 - 1.0) <= 1e-12
        assert abs(lift.alpha**2 + lift.p * lift.beta**2) <= 1e-12


def test_lift_parameters_rejects_out_of_range():
    with pytest.raises(ValueError):
        lift_parameters(0.5)
    with pytest.raises(ValueError):
        lift_parameters(-1.5)
    with pytest.raises(ValueError):
        lift_parameters(float("nan"))
    # boundary rounding noise is tolerated and clamped
    assert lift_parameters(5e-13).alpha == 0.0
    assert lift_parameters(-1.0 - 5e-13).alpha == pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_checked_refuses_a_nan_deviation():
    # a nan entry gives a nan deviation, which no comparison with the
    # tolerance lets through
    machine = build_unary(7, 3)
    u_left = [list(row) for row in machine._u_left]
    u_left[1][1] = float("nan")
    with pytest.raises(RuntimeError, match="drift from orthogonal by nan"):
        _checked(replace(machine, u_left=u_left))


def test_build_unary_examples():
    machine = build_unary(7, 3)
    assert machine.dim == 3
    assert machine.accept_probability(0) == pytest.approx(1.0, abs=1e-12)
    assert machine.accept_probability(10) <= 1e-18
    assert np.max(np.abs(machine.u_right @ machine.u_left - np.eye(3))) <= 1e-12


def test_three_state_machines_invert_marker_rotation():
    for builder, args in [
        (build_unary, (16, 8)),
        (build_unary, (13, 10)),
        (build_binary_Nl, (9, 2)),
        (build_binary_Nl, (13, 12)),
    ]:
        machine = builder(*args)
        assert np.max(np.abs(machine.u_right @ machine.u_left - np.eye(3))) <= 1e-12


def test_build_unary_general_reduces_to_offset_machine_at_r1_zero():
    general = build_unary_general(7, 0, 3)
    offset = build_unary(7, 3)
    assert np.max(np.abs(general.u_left - offset.u_left)) <= 1e-15
    assert np.max(np.abs(general.u_right - offset.u_right)) <= 1e-15
    assert np.max(np.abs(general.u_sym["a"] - offset.u_sym["a"])) <= 1e-15


def test_build_unary_general_examples():
    machine = build_unary_general(7, 2, 5)
    assert machine.accept_probability(2) == pytest.approx(1.0, abs=1e-9)
    assert machine.accept_probability(5) <= 1e-18
    assert machine.accept_probability(2 + 7 * 9) == pytest.approx(1.0, abs=1e-9)
    assert machine.accept_probability(5 + 7 * 9) <= 1e-18


def test_build_unary_general_validation():
    with pytest.raises(ValueError):
        build_unary_general(7, 3, 3)
    with pytest.raises(ValueError):
        build_unary_general(7, 7, 3)
    with pytest.raises(ValueError):
        build_unary_general(7, 1, -1)


def test_build_unary_general_random_residue_sweep():
    rng = np.random.default_rng(20260809)
    for _ in range(10):
        N = int(rng.integers(2, 40))
        r1 = int(rng.integers(0, N))
        r2 = int(rng.integers(0, N))
        if r1 == r2:
            r2 = (r2 + 1) % N
        machine = build_unary_general(N, r1, r2)
        report = verify_exactness(machine, UnaryPromiseSpec(N, r1, r2), i_max=3 * N)
        assert report.passed, (N, r1, r2, report)


@pytest.mark.parametrize(
    "spec,builder",
    [
        (UnaryPromiseSpec(7, 2, 5), lambda: build_unary_general(7, 2, 5)),
        (UnaryPromiseSpec(16, 0, 1), lambda: build_unary_general(16, 0, 1)),
        (BinaryPromiseSpec(4), lambda: build_binary_l(4)),
        (BinaryPromiseSpec(10, 13), lambda: build_binary_Nl(13, 10)),
    ],
)
def test_build_for_matches_the_family_builder(spec, builder):
    machine, selection = build_for(spec)
    assert machine.to_json() == builder().to_json()
    if spec.N is None:
        assert selection == AngleSelection(1, 4 * spec.l, 0.0, "quarter_turn")
    else:
        assert selection == select_angle(spec.N, spec.l if isinstance(spec, BinaryPromiseSpec) else spec.gap)
    assert machine.angle == AngleSpec(selection.q, selection.D)


def test_build_for_rejects_non_specs():
    with pytest.raises(TypeError):
        build_for({"family": "B", "l": 4})


def test_build_binary_l_examples():
    assert build_binary_l(1).accept_probability("ab") == pytest.approx(1.0, abs=1e-12)
    assert build_binary_l(1).accept_probability("b") <= 1e-18
    assert build_binary_l(4).accept_probability("aaabbbbbbb") <= 1e-18
    with pytest.raises(ValueError):
        build_binary_l(0)


def test_build_binary_l_matches_printed_rotation_convention():
    machine = build_binary_l(4)
    theta = math.pi / 8
    assert np.allclose(
        machine.u_sym["a"],
        [[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]],
        atol=1e-15,
    )
    assert np.allclose(machine.u_sym["b"], machine.u_sym["a"].T, atol=1e-15)
    assert np.array_equal(machine.u_left, np.eye(2))
    assert np.array_equal(machine.u_right, np.eye(2))


def test_build_binary_Nl_examples():
    machine = build_binary_Nl(5, 2)
    assert machine.accept_probability("aabb") == pytest.approx(1.0, abs=1e-9)
    assert machine.accept_probability((("a", 1), ("b", 8))) <= 1e-18
    large = build_binary_Nl(13, 10)
    assert large.accept_probability((("a", 2), ("b", 12))) <= 1e-18


def test_build_binary_Nl_symbol_rotations_oppose():
    machine = build_binary_Nl(9, 2)
    assert np.allclose(machine.u_sym["a"] @ machine.u_sym["b"], np.eye(3), atol=1e-15)
    # b rotates the (1, 2) plane the same way the unary step does
    assert np.allclose(machine.u_sym["b"], build_unary(9, 2).u_sym["a"], atol=1e-15)


def test_exactness_small_sweep_all_builders():
    for N in range(2, 16):
        for l in range(1, N):
            unary = verify_exactness(build_unary(N, l), UnaryPromiseSpec(N, 0, l), i_max=3 * N)
            assert unary.passed, (N, l, unary)
            binary = verify_exactness(
                build_binary_Nl(N, l), BinaryPromiseSpec(l, N), i_max=16, j_max=3
            )
            assert binary.passed, (N, l, binary)
    for l in range(1, 16):
        report = verify_exactness(build_binary_l(l), BinaryPromiseSpec(l), i_max=32)
        assert report.passed, (l, report)
