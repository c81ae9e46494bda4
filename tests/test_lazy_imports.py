"""The classical side of the package starts without numpy.

`moqfa` and `synth` load on first use of one of their names; importing
the package or the CLI, and running the `dfa`, `certify` and `table`
commands, never touch a matrix. Each check runs in a fresh interpreter,
since this test process has numpy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qfa_exact

PACKAGE_ROOT = str(Path(qfa_exact.__file__).resolve().parent.parent)

CLASSICAL_RUNS = {
    "import": "import qfa_exact",
    "import_cli": "import qfa_exact.cli",
    "dfa": "from qfa_exact.cli import main; assert main(['dfa', '--family', 'BN', '--N', '12', '--l', '5']) == 0",
    "certify": "from qfa_exact.cli import main; assert main(['certify', '--family', 'B', '--l', '4']) == 0",
    "table": "from qfa_exact.cli import main; assert main(['table', '--specs', SPECS]) == 0",
}


def run_fresh(code, **names):
    """Run `code` in a new interpreter, with each keyword bound as a str
    global; returns the completed process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (PACKAGE_ROOT, env.get("PYTHONPATH"))))
    prelude = "".join(f"{name} = {value!r}\n" for name, value in names.items())
    return subprocess.run(
        [sys.executable, "-c", prelude + code], capture_output=True, text=True, env=env, timeout=120
    )


@pytest.mark.parametrize("run", sorted(CLASSICAL_RUNS))
def test_classical_paths_never_import_numpy(run, tmp_path):
    specs = tmp_path / "specs.json"
    specs.write_text(json.dumps([{"family": "A", "N": 7, "r_yes": 0, "r_no": 3},
                                 {"family": "B", "l": 4}, {"family": "BN", "N": 12, "l": 5}]))
    code = CLASSICAL_RUNS[run] + "\nimport sys\nprint('numpy' in sys.modules)"
    result = run_fresh(code, SPECS=str(specs))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"


def test_machine_commands_still_load_numpy():
    result = run_fresh(
        "from qfa_exact.cli import main\n"
        "assert main(['synth', '--family', 'A', '--N', '7', '--l', '3']) == 0\n"
        "import sys\nprint('numpy' in sys.modules)"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "True"


def test_star_import_binds_every_public_name():
    result = run_fresh(
        "from qfa_exact import *\n"
        "import qfa_exact\n"
        "missing = [name for name in qfa_exact.__all__ if name not in globals()]\n"
        "print(missing)"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_lazy_names_are_the_submodule_objects():
    from qfa_exact import moqfa, synth

    assert qfa_exact.Moqfa is moqfa.Moqfa
    assert qfa_exact.AngleSpec is moqfa.AngleSpec
    for name in ("AngleSelection", "LiftParameters", "build_binary_Nl", "build_binary_l",
                 "build_unary", "build_unary_general", "lift_parameters", "select_angle"):
        assert getattr(qfa_exact, name) is getattr(synth, name), name


def test_dir_lists_every_public_name_and_the_lazy_submodules():
    listed = set(dir(qfa_exact))
    assert set(qfa_exact.__all__) <= listed
    assert {"moqfa", "synth"} <= listed


def test_unknown_names_still_raise_attribute_error():
    import qfa_exact.cli

    for module in (qfa_exact, qfa_exact.cli):
        with pytest.raises(AttributeError):
            module.no_such_name  # noqa: B018
        assert not hasattr(module, "no_such_name")


def test_submodules_resolve_after_a_bare_package_import():
    result = run_fresh(
        "import qfa_exact\n"
        "print(qfa_exact.synth.build_unary(7, 3).dim, qfa_exact.moqfa.Moqfa.__name__)\n"
        "import qfa_exact.cli\n"
        "print(qfa_exact.cli.synth is qfa_exact.synth)"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["3 Moqfa", "True"]
