"""Each cold start loads only the modules its command runs, and none of
them loads numpy.

Importing the package loads none of its modules. Importing the CLI loads
`arith`, `promise` and `words` beside it, and each command loads the
module it runs: `synth` and `moqfa` for synth, `moqfa` for run, `dfa`
for dfa and certify, `dfa` and `verify` for table. `synth` and `run`
evaluate machines in plain Python, and numpy loads only when an ndarray
view of a machine is read. Each check runs in a fresh interpreter: this
test process has every module and numpy loaded already, so a command
that forgot an import would still pass here.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qfa_exact
from make_cli_corpus import COLUMNS, CORPUS, ROOT
from qfa_exact import arith, cli, dfa, verify

PACKAGE_ROOT = str(Path(qfa_exact.__file__).resolve().parent.parent)
RECORDS = {tuple(record["argv"]): record for record in json.loads(CORPUS.read_text(encoding="utf-8"))}

CLI_MODULES = ("arith", "cli", "promise", "words")

# run -> (corpus command line, or the code to run; the package modules it loads)
COLD_RUNS = {
    "import": ("import qfa_exact", ()),
    "import_cli": ("import qfa_exact.cli", CLI_MODULES),
    "synth": (["synth", "--family", "BN", "--N", "13", "--l", "5"], CLI_MODULES + ("moqfa", "synth")),
    "run": (["run", "--machine", "tests/data/synth_B_l6.json", "aabb"], CLI_MODULES + ("moqfa",)),
    "run_length": (["run", "--machine", "tests/data/synth_A_N8_r1_0_r2_2.json", "--length", "16"],
                   CLI_MODULES + ("moqfa",)),
    "dfa": (["dfa", "--family", "BN", "--N", "12", "--l", "5"], CLI_MODULES + ("dfa",)),
    "dfa_general": (["dfa", "--family", "A", "--N", "7", "--r1", "2", "--r2", "5"], CLI_MODULES + ("dfa",)),
    "certify": (["certify", "--family", "B", "--l", "4"], CLI_MODULES + ("dfa",)),
    "certify_json": (["certify", "--family", "B", "--l", "4", "--format", "json"], CLI_MODULES + ("dfa",)),
    "table": (["table", "--specs", "tests/data/table_specs.json"], CLI_MODULES + ("dfa", "verify")),
}

# a command line as the console script runs it, then the package
# modules and whether numpy loaded, written to REPORT
RUN_MAIN = """\
import sys
from qfa_exact.cli import main
try:
    code = main(ARGV)
except SystemExit as exc:
    code = exc.code
"""
REPORT_LOADED = """
import sys
sys.stdout.flush()
with open(REPORT, "w") as handle:
    handle.write(repr((sorted(name for name in sys.modules if name.startswith("qfa_exact")),
                       "numpy" in sys.modules, "typing" in sys.modules)))
"""


def run_fresh(code, *flags, **names):
    """Run `code` in a new interpreter started with `flags`, from the
    repository root with COLUMNS set as for the corpus, with each keyword
    bound as a global; returns the completed process, its output
    decoded with every byte kept (`table` ends its CSV lines in CRLF)."""
    env = dict(os.environ, COLUMNS=COLUMNS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (PACKAGE_ROOT, env.get("PYTHONPATH"))))
    prelude = "".join(f"{name} = {value!r}\n" for name, value in names.items())
    result = subprocess.run(
        [sys.executable, *flags, "-c", prelude + code], capture_output=True, env=env, cwd=ROOT, timeout=120
    )
    result.stdout, result.stderr = result.stdout.decode(), result.stderr.decode()
    return result


def run_cold(command, tmp_path, *flags):
    """(process, package modules loaded, numpy loaded, typing loaded) of
    one fresh run of `command`, a corpus argv or a line of code."""
    report = tmp_path / "loaded.txt"
    code = command if isinstance(command, str) else RUN_MAIN
    code += REPORT_LOADED + ("" if isinstance(command, str) else "sys.exit(code)\n")
    result = run_fresh(code, *flags, ARGV=command, REPORT=str(report))
    assert report.exists(), result.stderr
    return (result, *ast.literal_eval(report.read_text()))


@pytest.mark.parametrize("run", sorted(COLD_RUNS))
def test_a_cold_run_loads_only_its_modules_and_reprints_its_record(run, tmp_path):
    command, modules = COLD_RUNS[run]
    result, loaded, numpy_loaded, _ = run_cold(command, tmp_path)
    assert loaded == sorted(["qfa_exact"] + [f"qfa_exact.{name}" for name in modules]), result.stderr
    assert numpy_loaded is False
    if isinstance(command, str):
        assert (result.stdout, result.stderr, result.returncode) == ("", "", 0)
    else:
        record = RECORDS[tuple(command)]
        assert record["exit"] == 0
        assert (result.stdout, result.stderr, result.returncode) == (
            record["stdout"], record["stderr"], record["exit"])


def test_table_loads_no_typing_when_site_does_not(tmp_path):
    # `site` may load `typing` through a .pth file; -S leaves it out, so
    # only what the package and the command import shows
    result, loaded, numpy_loaded, typing_loaded = run_cold(COLD_RUNS["table"][0], tmp_path, "-S")
    assert result.returncode == 0, result.stderr
    assert "qfa_exact.verify" in loaded
    assert (numpy_loaded, typing_loaded) == (False, False)


def test_machine_commands_start_without_numpy(tmp_path):
    result = run_fresh(
        "import sys\n"
        "from qfa_exact.cli import main\n"
        "assert main(['synth', '--family', 'BN', '--N', '13', '--l', '5', '-o', MACHINE]) == 0\n"
        "assert main(['run', '--machine', MACHINE, 'aab']) == 0\n"
        "assert main(['synth', '--family', 'A', '--N', '7', '--l', '3', '-o', UNARY]) == 0\n"
        "assert main(['run', '--machine', UNARY, '--length', '14']) == 0\n"
        "print('numpy' in sys.modules)\n"
        "from qfa_exact import Moqfa\n"
        "machine = Moqfa.from_json(open(MACHINE).read())\n"
        "print('numpy' in sys.modules)\n"
        "machine.u_left\n"
        "print('numpy' in sys.modules)",
        MACHINE=str(tmp_path / "bn.json"), UNARY=str(tmp_path / "a.json"),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-3:] == ["False", "False", "True"]


def test_star_import_binds_every_public_name():
    result = run_fresh(
        "from qfa_exact import *\n"
        "import qfa_exact\n"
        "missing = [name for name in qfa_exact.__all__ if name not in globals()]\n"
        "print(missing)"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_every_public_name_is_the_object_of_its_defining_module():
    assert qfa_exact.__all__ == sorted(qfa_exact._LAZY)
    for name in qfa_exact.__all__:
        value = getattr(qfa_exact, name)
        assert value.__module__ == f"qfa_exact.{qfa_exact._LAZY[name]}", name
        assert value is getattr(sys.modules[value.__module__], name), name


def test_the_budget_and_its_error_are_one_object_under_every_name():
    assert qfa_exact.EnumerationBudgetError is arith.EnumerationBudgetError
    for module in (dfa, verify, cli):
        assert module.EnumerationBudgetError is arith.EnumerationBudgetError, module.__name__
        assert module.DEFAULT_ENUMERATION_BUDGET is arith.DEFAULT_ENUMERATION_BUDGET, module.__name__


def test_dir_lists_every_public_name_and_every_submodule():
    listed = set(dir(qfa_exact))
    assert set(qfa_exact.__all__) <= listed
    assert {"arith", "dfa", "moqfa", "promise", "synth", "verify", "words"} <= listed


def test_unknown_names_still_raise_attribute_error():
    for module in (qfa_exact, qfa_exact.cli):
        with pytest.raises(AttributeError):
            module.no_such_name  # noqa: B018
        assert not hasattr(module, "no_such_name")


def test_submodules_resolve_after_a_bare_package_import():
    result = run_fresh(
        "import qfa_exact\n"
        "print(qfa_exact.synth.build_unary(7, 3).dim, qfa_exact.moqfa.Moqfa.__name__)\n"
        "print(*(getattr(qfa_exact, name).__name__ for name in "
        "('arith', 'dfa', 'promise', 'verify', 'words')))"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "3 Moqfa", "qfa_exact.arith qfa_exact.dfa qfa_exact.promise qfa_exact.verify qfa_exact.words"]
