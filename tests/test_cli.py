import itertools
import json
import re
import time
from pathlib import Path

import pytest

from qfa_exact import BinaryPromiseSpec, Dfa, Moqfa, UnaryPromiseSpec
from qfa_exact.cli import _spec_from_args, build_parser, main

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_synth_unary_to_stdout(capsys):
    code, out, err = run_cli(capsys, "synth", "--family", "A", "--N", "7", "--l", "3")
    assert code == 0
    machine = Moqfa.from_json(out)
    assert machine.dim == 3
    assert machine.angle.q == 1 and machine.angle.D == 7
    assert "case = mid" in err


@pytest.mark.parametrize(
    "flags,summary",
    [
        (("A", "--N", "16", "--l", "1"), "3-state machine, theta = 2*pi*4/16, p = 0.000000, case = small_l"),
        (("A", "--N", "7", "--l", "3"), "3-state machine, theta = 2*pi*1/7, p = -0.900969, case = mid"),
        (("A", "--N", "7", "--l", "6"), "3-state machine, theta = 2*pi*3/7, p = -0.900969, case = large_l"),
        (("A", "--N", "12", "--r1", "5", "--r2", "1"),
         "3-state machine, theta = 2*pi*1/12, p = -0.500000, case = mid"),
        (("B", "--l", "4"), "2-state machine, theta = 2*pi*1/16, p = 0.000000, case = quarter_turn"),
        (("BN", "--N", "13", "--l", "10"), "3-state machine, theta = 2*pi*2/13, p = -0.970942, case = large_l"),
        (("BN", "--N", "12", "--l", "2"), "3-state machine, theta = 2*pi*2/12, p = -0.500000, case = small_l"),
    ],
)
def test_synth_summary_lines(capsys, monkeypatch, flags, summary):
    import qfa_exact.synth as synth_module

    calls = []
    select_angle = synth_module.select_angle
    monkeypatch.setattr(synth_module, "select_angle", lambda *a: calls.append(a) or select_angle(*a))
    code, out, err = run_cli(capsys, "synth", "--family", *flags)
    assert code == 0
    assert err == summary + "\n"
    assert len(calls) == (0 if flags[0] == "B" else 1)


@pytest.mark.parametrize(
    "flags,name",
    [
        (("A", "--N", "8", "--r1", "0", "--r2", "2"), "synth_A_N8_r1_0_r2_2"),  # alpha = -0.0
        (("A", "--N", "13", "--r1", "5", "--r2", "2"), "synth_A_N13_r1_5_r2_2"),  # pre-rotated
        (("B", "--l", "6"), "synth_B_l6"),
        (("BN", "--N", "13", "--l", "5"), "synth_BN_N13_l5"),
        (("A", "--N", "1000000000001", "--l", "1000000000000"), "synth_A_N1000000000001_l1000000000000"),
    ],
)
def test_synth_stdout_matches_its_golden_file(capsys, flags, name):
    code, out, _ = run_cli(capsys, "synth", "--family", *flags)
    assert code == 0
    assert out.encode() == (DATA / f"{name}.json").read_bytes()


def test_synth_binary_machine(capsys):
    code, out, err = run_cli(capsys, "synth", "--family", "B", "--l", "4")
    assert code == 0
    machine = Moqfa.from_json(out)
    assert machine.dim == 2
    assert machine.angle.D == 16


def test_synth_rejects_bad_parameters(capsys):
    code, _, err = run_cli(capsys, "synth", "--family", "A", "--N", "7", "--l", "7")
    assert code == 2
    assert "error" in err
    code, _, _ = run_cli(capsys, "synth", "--family", "B", "--l", "3", "--N", "5")
    assert code == 2
    code, _, _ = run_cli(capsys, "synth", "--family", "A", "--N", "7", "--l", "3", "--r1", "1", "--r2", "2")
    assert code == 2


FLAG_VALUES = {"--N": "8", "--l": "3", "--r1": "2", "--r2": "5"}
VALID_FLAG_SETS = {
    ("A", ("--N", "--l")): UnaryPromiseSpec(8, 0, 3),
    ("A", ("--N", "--r1", "--r2")): UnaryPromiseSpec(8, 2, 5),
    ("B", ("--l",)): BinaryPromiseSpec(3),
    ("BN", ("--N", "--l")): BinaryPromiseSpec(3, 8),
}


@pytest.mark.parametrize(
    "family,flags",
    [
        pytest.param(family, flags, id=family + "".join(flags))
        for family in ("A", "B", "BN")
        for size in range(len(FLAG_VALUES) + 1)
        for flags in itertools.combinations(FLAG_VALUES, size)
    ],
)
def test_family_flags_map_to_their_spec_or_exit_2(capsys, family, flags):
    argv = ["dfa", "--family", family, *(part for flag in flags for part in (flag, FLAG_VALUES[flag]))]
    expected = VALID_FLAG_SETS.get((family, flags))
    code, out, err = run_cli(capsys, *argv)
    if expected is not None:
        assert code == 0
        assert _spec_from_args(build_parser().parse_args(argv)) == expected
        return
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    named = set(re.findall(r"--(?:N|l|r1|r2)\b", err))
    assert named, err
    # each flag the message names was given and refused, or is one the
    # family needs and was left out
    needed = set().union(*(f for (fam, f) in VALID_FLAG_SETS if fam == family))
    assert named <= set(flags) | needed, err


def test_internal_synthesis_failure_exit_code(capsys, monkeypatch):
    import qfa_exact.synth as synth_module

    def explode(*args, **kwargs):
        raise RuntimeError("planted synthesis fault")

    monkeypatch.setattr(synth_module, "select_angle", explode)
    code, _, err = run_cli(capsys, "synth", "--family", "A", "--N", "7", "--l", "3")
    assert code == 3
    assert "synthesis failure" in err


def test_synth_output_files_are_byte_identical(tmp_path, capsys):
    first = tmp_path / "m1.json"
    second = tmp_path / "m2.json"
    assert run_cli(capsys, "synth", "--family", "BN", "--N", "13", "--l", "10", "-o", str(first))[0] == 0
    assert run_cli(capsys, "synth", "--family", "BN", "--N", "13", "--l", "10", "-o", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_run_length_and_word(tmp_path, capsys):
    machine_path = tmp_path / "a73.json"
    run_cli(capsys, "synth", "--family", "A", "--N", "7", "--l", "3", "-o", str(machine_path))
    code, out, _ = run_cli(capsys, "run", "--machine", str(machine_path), "--length", "14")
    assert code == 0
    assert out.strip() == "1.000000000000000e+00"
    code, out, _ = run_cli(capsys, "run", "--machine", str(machine_path), "--length", "10")
    assert code == 0
    assert float(out) <= 1e-18

    binary_path = tmp_path / "b1.json"
    run_cli(capsys, "synth", "--family", "B", "--l", "1", "-o", str(binary_path))
    code, out, _ = run_cli(capsys, "run", "--machine", str(binary_path), "ab")
    assert code == 0
    assert out.strip() == "1.000000000000000e+00"


def test_run_input_errors(tmp_path, capsys):
    machine_path = tmp_path / "a73.json"
    run_cli(capsys, "synth", "--family", "A", "--N", "7", "--l", "3", "-o", str(machine_path))
    code, _, err = run_cli(capsys, "run", "--machine", str(machine_path), "bb")
    assert code == 2  # symbol outside the machine's alphabet
    code, _, _ = run_cli(capsys, "run", "--machine", str(machine_path))
    assert code == 2  # neither word nor --length
    code, _, _ = run_cli(capsys, "run", "--machine", str(machine_path), "aa", "--length", "2")
    assert code == 2  # both word and --length
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, _ = run_cli(capsys, "run", "--machine", str(bad), "--length", "1")
    assert code == 2


@pytest.mark.parametrize(
    "argv,expected_d,expected_source",
    [
        (("dfa", "--family", "A", "--N", "16", "--l", "8"), 16, "smallest_modulus"),
        (("dfa", "--family", "B", "--l", "12"), 5, "smallest_nondivisor"),
        (("dfa", "--family", "BN", "--N", "15", "--l", "5"), 3, "smallest_modulus"),
    ],
)
def test_dfa_subcommand(capsys, argv, expected_d, expected_source):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    dfa = Dfa.from_json(out)
    assert dfa.num_states == expected_d
    assert f"d={expected_d} ({expected_source})" in err


def test_dfa_general_residues_accept_r1_and_reject_r2(capsys):
    code, out, err = run_cli(capsys, "dfa", "--family", "A", "--N", "7", "--r1", "2", "--r2", "5")
    assert code == 0
    assert err == "d=7 (smallest_modulus)\n"
    dfa = Dfa.from_json(out)
    assert [dfa.accepts(n) for n in (2, 9, 16, 23)] == [True] * 4
    assert [dfa.accepts(n) for n in (5, 12, 19, 26)] == [False] * 4


def test_certify_subcommand(capsys):
    code, out, _ = run_cli(capsys, "certify", "--family", "A", "--N", "7", "--l", "3")
    assert code == 0
    assert "Certified" in out and "machines_checked=642" in out
    code, out, _ = run_cli(capsys, "certify", "--family", "B", "--l", "4")
    assert code == 0
    assert "machines_checked=130" in out


def test_certify_budget_exit_code(capsys):
    code, _, err = run_cli(capsys, "certify", "--family", "BN", "--N", "31", "--l", "7")
    assert code == 5
    assert "budget" in err


@pytest.mark.parametrize("command,err", [
    ("dfa", "a d=999999929-state DFA exceeds budget 1000000 states"),
    ("certify", "candidate machines below d=999999929 states exceed budget 1000000"),
])
def test_a_semiprime_modulus_is_refused_at_once(capsys, command, err):
    # N = 999999937 * 999999929: trial division toward its square root
    # ran for minutes, factoring by rho takes milliseconds
    start = time.perf_counter()
    code, out, got = run_cli(capsys, command, "--family", "A", "--N", "999999866000004473", "--l", "1")
    assert time.perf_counter() - start < 1.0
    assert (code, out, got) == (5, "", f"budget exceeded: {err}\n")


def test_certify_counterexample_exit_code(capsys):
    # a crippled witness bound lets a 2-state impostor through; the CLI
    # must flag it with the dedicated exit code
    code, out, err = run_cli(
        capsys, "certify", "--family", "A", "--N", "16", "--l", "8", "--i-max", "0"
    )
    assert code == 4
    assert "COUNTEREXAMPLE" in out
    assert "counterexample DFA" in err


def test_counterexample_stderr_names_the_witness_bounds(capsys):
    # `BN` N=4, l=2 certifies at --j-max 1; at --j-max 0 the 3-state
    # counter refutes only the truncated witness set, and stderr says so
    args = ("certify", "--family", "BN", "--N", "4", "--l", "2")
    code, out, err = run_cli(capsys, *args, "--j-max", "0")
    assert (code, out.split(":")[0]) == (4, "COUNTEREXAMPLE FOUND")
    assert err.startswith("counterexample DFA classifies every witness up to i_max=64, j_max=0:\n")
    assert json.loads(err.split("\n", 1)[1])["states"] == 3
    assert run_cli(capsys, *args, "--j-max", "1")[:2] == (0, "Certified: claimed_d=4, machines_checked=17626\n")
    code, _, err = run_cli(capsys, "certify", "--family", "A", "--N", "16", "--l", "8", "--i-max", "0")
    assert code == 4 and err.startswith("counterexample DFA classifies every witness up to i_max=0:\n")


def test_certify_text_verdict_goes_to_the_output_file(tmp_path, capsys):
    code, stdout_verdict, _ = run_cli(capsys, "certify", "--family", "B", "--l", "4")
    assert (code, stdout_verdict) == (0, "Certified: claimed_d=3, machines_checked=130\n")
    out_path = tmp_path / "cert.txt"
    code, out, err = run_cli(capsys, "certify", "--family", "B", "--l", "4", "-o", str(out_path))
    assert (code, out, err) == (0, "", "")
    assert out_path.read_text() == stdout_verdict


def test_certify_residue_flags_certify_the_offset_form(capsys):
    code, out, _ = run_cli(capsys, "certify", "--family", "A", "--N", "7", "--r1", "2", "--r2", "5",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["spec"] == {"family": "A", "N": 7, "r_yes": 0, "r_no": 3}


def test_table_witness_bound_applies_to_binary_rows_only(tmp_path, capsys):
    # a unary row always certifies on the certifier's own bound 2d+2;
    # `certify` with the same --i-max finds the counterexample
    spec_path = tmp_path / "specs.json"
    spec_path.write_text(json.dumps([{"family": "A", "N": 8, "r_yes": 0, "r_no": 2}, {"family": "B", "l": 4}]))
    code, out, _ = run_cli(capsys, "table", "--specs", str(spec_path), "--i-max", "0")
    assert code == 0
    assert out.splitlines()[1:] == ["A,8,2,0,2,3,4,true", "B,,4,,,2,3,false"]
    code, _, _ = run_cli(capsys, "certify", "--family", "A", "--N", "8", "--l", "2", "--i-max", "0")
    assert code == 4


def test_certify_json_format(tmp_path, capsys):
    out_path = tmp_path / "cert.json"
    code, out, _ = run_cli(
        capsys, "certify", "--family", "B", "--l", "1", "--format", "json",
        "--seed", "99", "-o", str(out_path),
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["certified"] is True
    assert data["machines_checked"] == 2
    assert data["seed"] == 99
    assert data["budget"] == 10**6


def test_table_subcommand(tmp_path, capsys):
    specs = [
        {"family": "A", "N": 4, "r_yes": 0, "r_no": 2},
        {"family": "A", "N": 8, "r_yes": 0, "r_no": 4},
        {"family": "B", "l": 12},
    ]
    spec_path = tmp_path / "specs.json"
    spec_path.write_text(json.dumps(specs))
    code, out, _ = run_cli(capsys, "table", "--specs", str(spec_path), "--budget", "0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family,N,l,r1,r2,qfa_states,dfa_states,dfa_certified"
    assert lines[1] == "A,4,2,0,2,3,4,false"
    assert lines[2] == "A,8,4,0,4,3,8,false"
    assert lines[3] == "B,,12,,,2,5,false"


def test_table_outputs_are_byte_identical(tmp_path, capsys):
    spec_path = tmp_path / "specs.json"
    spec_path.write_text(json.dumps([{"family": "BN", "N": 15, "l": 5}]))
    first, second = tmp_path / "t1.csv", tmp_path / "t2.csv"
    assert run_cli(capsys, "table", "--specs", str(spec_path), "-o", str(first))[0] == 0
    assert run_cli(capsys, "table", "--specs", str(spec_path), "-o", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_table_respects_thread_env(tmp_path, capsys, monkeypatch):
    # QFA_EXACT_THREADS is not read: every value, "0" included, gives
    # the bytes of a run without it
    spec_path = tmp_path / "specs.json"
    spec_path.write_text(json.dumps([{"family": "A", "N": n, "r_yes": 0, "r_no": 1} for n in (3, 5, 7)]))
    monkeypatch.delenv("QFA_EXACT_THREADS", raising=False)
    code, unset, _ = run_cli(capsys, "table", "--specs", str(spec_path))
    assert code == 0
    assert [line.split(",")[6] for line in unset.strip().splitlines()[1:]] == ["3", "5", "7"]
    for value in ("3", "0"):
        monkeypatch.setenv("QFA_EXACT_THREADS", value)
        assert run_cli(capsys, "table", "--specs", str(spec_path)) == (0, unset, "")


@pytest.mark.parametrize(
    "command,defaults",
    [
        ("synth", []),
        ("run", []),
        ("dfa", []),
        ("certify", ["--i-max I_MAX witness generator bound (default: 64)",
                     "--j-max J_MAX witness modular-repeat bound (family BN) (default: 8)",
                     "--budget BUDGET max candidate machines to enumerate (default: 1000000)",
                     "--format {text,json} verdict format (default: text)"]),
        ("table", ["sufficient bound 2d+2 (default: 64)", "for BN rows (default: 8)",
                   "0 disables certification (default: 1000000)"]),
    ],
)
def test_help_states_each_default_once(capsys, command, defaults):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # undo argparse's wrapping
    assert "(default: None)" not in text
    for shown in defaults:
        assert shown in text
    # one "default" per option that has one: the real defaults, and -o's stdout
    assert text.count("default") == len(defaults) + (command in ("synth", "dfa", "certify", "table"))


def test_table_missing_specs_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "table", "--specs", str(tmp_path / "nope.json"))
    assert code == 2


@pytest.mark.parametrize(
    "spec",
    [
        {"family": "A", "N": 7.5, "r_yes": 0, "r_no": 3},
        {"family": "A", "N": "7", "r_yes": 0, "r_no": 3},
        {"family": "B", "l": True},
        {"family": "BN", "N": 15, "l": 5.0},
        {"family": "B", "l": 4, "N": 7},
        {"family": "A", "N": 7, "r_yes": 0, "r_no": 3, "l": 5},
        {"family": ["A"]},
    ],
)
def test_table_rejects_non_integer_spec_fields(tmp_path, capsys, spec):
    spec_path = tmp_path / "specs.json"
    spec_path.write_text(json.dumps([spec]))
    code, out, err = run_cli(capsys, "table", "--specs", str(spec_path), "--budget", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "edit",
    ["period", "orthogonality", "accepting_bool", "dim_str", "D_bool", "D_float",
     "alphabet_repeated", "alphabet_object"],
)
def test_run_rejects_machine_files_that_lie(tmp_path, capsys, edit):
    machine_path = tmp_path / "machine.json"
    run_cli(capsys, "synth", "--family", "A", "--N", "7", "--l", "3", "-o", str(machine_path))
    data = json.loads(machine_path.read_text())
    if edit == "period":
        data["angle"]["D"] = 5
    elif edit == "orthogonality":
        data["matrices"]["a"][0][0] += 3.0
    elif edit == "accepting_bool":
        data["accepting"] = [True]
    elif edit == "dim_str":
        data["dim"] = "3"
    elif edit.startswith("alphabet"):
        data["alphabet"] = ["a", "a"] if edit == "alphabet_repeated" else {"a": 1}
    else:
        data["angle"]["D"] = True if edit == "D_bool" else 7.0
    machine_path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "run", "--machine", str(machine_path), "--length", "14")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if edit.startswith("alphabet"):
        assert "distinct one-character strings" in err


@pytest.mark.parametrize("edit", ["str_entries", "bool_entries", "ragged_row", "matrices_array"])
def test_run_rejects_malformed_matrices(tmp_path, capsys, edit):
    machine_path = tmp_path / "machine.json"
    run_cli(capsys, "synth", "--family", "A", "--N", "7", "--l", "3", "-o", str(machine_path))
    data = json.loads(machine_path.read_text())
    matrices = data["matrices"]
    if edit == "str_entries":  # once read as numbers: P(a^14) came out 1.0
        matrices["a"] = [[str(x) for x in row] for row in matrices["a"]]
    elif edit == "bool_entries":
        matrices["lmark"] = [[i == j for j in range(3)] for i in range(3)]
    elif edit == "ragged_row":
        matrices["a"][2].pop()
    else:
        data["matrices"] = [matrices["lmark"], matrices["a"], matrices["rmark"]]
    machine_path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "run", "--machine", str(machine_path), "--length", "14")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    named = {"str_entries": "matrix 'a'", "bool_entries": "matrix 'lmark'",
             "ragged_row": "matrix 'a'", "matrices_array": "matrices must be an object"}
    assert named[edit] in err


def test_run_refuses_a_probability_beyond_the_tolerance(capsys):
    # the loader passes this machine (deviation 4e-11); over 10**12 steps
    # its drift makes the squared accepting amplitude about 1.5e17
    path = str(DATA / "drifting_machine.json")
    code, out, _ = run_cli(capsys, "run", "--machine", path, "--length", "14")
    assert code == 0 and abs(float(out) - 1.0) <= 1e-9
    code, out, err = run_cli(capsys, "run", "--machine", path, "--length", str(10**12 + 5))
    assert code == 2
    assert out == ""
    assert err.startswith("error: acceptance probability ") and err.count("\n") == 1


def test_run_on_a_synthesized_machine_with_a_huge_modulus(tmp_path, capsys):
    machine_path = tmp_path / "machine.json"
    N = 10**12
    code, _, _ = run_cli(capsys, "synth", "--family", "A", "--N", str(N), "--l", "5", "-o", str(machine_path))
    assert code == 0
    for length, expected in ((3 * N, 1.0), (7 * N + 5, 0.0), (0, 1.0)):
        code, out, err = run_cli(capsys, "run", "--machine", str(machine_path), "--length", str(length))
        assert code == 0, err
        assert abs(float(out) - expected) <= 1e-9


@pytest.mark.parametrize("family", ["A", "BN"])
def test_certify_refuses_a_huge_d_within_the_budget_exit_code(capsys, family):
    code, out, err = run_cli(capsys, "certify", "--family", family, "--N", "15013", "--l", "1")
    assert code == 5
    assert out == ""
    assert err == "budget exceeded: candidate machines below d=15013 states exceed budget 1000000\n"


@pytest.mark.parametrize("family", ["A", "BN"])
def test_dfa_refuses_a_table_past_the_budget_exit_code(tmp_path, capsys, family):
    # d = N = 1000000007 rows would take gigabytes
    output = tmp_path / "dfa.json"
    code, out, err = run_cli(capsys, "dfa", "--family", family, "--N", "1000000007", "--l", "1", "-o", str(output))
    assert code == 5
    assert out == ""
    assert err == "budget exceeded: a d=1000000007-state DFA exceeds budget 1000000 states\n"
    assert not output.exists()


FAMILY_FLAGS = {
    "A": ("--N", "7", "--l", "3"),
    "B": ("--l", "4"),
    "BN": ("--N", "5", "--l", "2"),
}
FAMILY_SPECS = {
    "A": {"family": "A", "N": 7, "r_yes": 0, "r_no": 3},
    "B": {"family": "B", "l": 4},
    "BN": {"family": "BN", "N": 5, "l": 2},
}


@pytest.mark.parametrize("command", ["certify", "table"])
@pytest.mark.parametrize("flag", ["--i-max", "--j-max"])
@pytest.mark.parametrize("family", ["A", "B", "BN"])
def test_negative_witness_bound_exit_code(tmp_path, capsys, family, flag, command):
    # the bounds are checked before any family reads or ignores them, and
    # before a budget: `BN` N=5, l=2 is past the default one
    if command == "certify":
        args = ("certify", "--family", family, *FAMILY_FLAGS[family])
    else:
        spec_path = tmp_path / "specs.json"
        spec_path.write_text(json.dumps([FAMILY_SPECS[family]]))
        args = ("table", "--specs", str(spec_path))
    code, out, err = run_cli(capsys, *args, flag, "-1")
    assert (code, out, err) == (2, "", "error: instance bounds must be nonnegative\n")


@pytest.mark.parametrize("command", ["certify", "table"])
@pytest.mark.parametrize("family", ["A", "B", "BN"])
def test_negative_budget_exit_code(tmp_path, capsys, family, command):
    # only 0 turns table certification off; a negative budget is refused
    # for every family, after a negative witness bound
    if command == "certify":
        args = ("certify", "--family", family, *FAMILY_FLAGS[family])
    else:
        spec_path = tmp_path / "specs.json"
        spec_path.write_text(json.dumps([FAMILY_SPECS[family]]))
        args = ("table", "--specs", str(spec_path))
    code, out, err = run_cli(capsys, *args, "--budget", "-1")
    assert (code, out, err) == (2, "", "error: budget must be nonnegative, got -1\n")
    code, out, err = run_cli(capsys, *args, "--i-max", "-1", "--budget", "-1")
    assert (code, out, err) == (2, "", "error: instance bounds must be nonnegative\n")


def test_empty_table_negative_budget_exit_code(tmp_path, capsys):
    # an empty spec list is refused as a full one is, before its header
    spec_path = tmp_path / "specs.json"
    spec_path.write_text("[]")
    code, out, err = run_cli(capsys, "table", "--specs", str(spec_path), "--budget", "-1")
    assert (code, out, err) == (2, "", "error: budget must be nonnegative, got -1\n")
    code, out, err = run_cli(capsys, "table", "--specs", str(spec_path), "--i-max", "-1", "--budget", "-1")
    assert (code, out, err) == (2, "", "error: instance bounds must be nonnegative\n")
    for budget in ("0", "5"):
        code, out, err = run_cli(capsys, "table", "--specs", str(spec_path), "--budget", budget)
        assert (code, out.splitlines(), err) == (0, ["family,N,l,r1,r2,qfa_states,dfa_states,dfa_certified"], "")


def test_table_leaves_a_huge_d_uncertified(tmp_path, capsys):
    spec_path = tmp_path / "specs.json"
    spec_path.write_text(json.dumps([{"family": "A", "N": 15013, "r_yes": 0, "r_no": 1}]))
    code, out, _ = run_cli(capsys, "table", "--specs", str(spec_path))
    assert code == 0
    assert out.splitlines()[1] == "A,15013,1,0,1,3,15013,false"


@pytest.mark.parametrize(
    "flags",
    [
        ("A", "--N", str(10**400), "--l", "1"),
        ("BN", "--N", str(10**400), "--l", "3"),
        ("B", "--l", str(10**400)),
    ],
    ids=["A", "BN", "B"],
)
def test_synth_refuses_a_modulus_too_large_for_a_float(capsys, flags):
    code, out, err = run_cli(capsys, "synth", "--family", *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error: denominator") and err.count("\n") == 1


def test_synth_keeps_a_modulus_just_inside_a_float(capsys):
    code, out, _ = run_cli(capsys, "synth", "--family", "A", "--N", str(10**300), "--l", "1")
    assert code == 0
    assert Moqfa.from_json(out).angle.D == 10**300


def test_run_refuses_a_machine_whose_denominator_is_too_large_for_a_float(tmp_path, capsys):
    machine_path = tmp_path / "machine.json"
    run_cli(capsys, "synth", "--family", "A", "--N", "7", "--l", "3", "-o", str(machine_path))
    data = json.loads(machine_path.read_text())
    data["angle"]["D"] = 10**400
    machine_path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "run", "--machine", str(machine_path), "--length", "14")
    assert code == 2
    assert out == ""
    assert err.startswith("error: denominator") and err.count("\n") == 1
