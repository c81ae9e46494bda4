"""Write tests/data/cli_corpus.json: one record per `qfa-exact` command
line, with its argv, stdout, stderr and exit code.

Each command runs in-process through `cli.main`, from the repository
root (the spec files in argv are relative to it) and with COLUMNS=80,
which fixes the width of argparse's usage lines.
`tests/test_cli_corpus.py` reruns every record and compares bytes, so
a regenerated corpus that differs is a changed output.

    PYTHONPATH=src python tests/make_cli_corpus.py
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from qfa_exact.cli import main

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "data" / "cli_corpus.json"
SPECS = "tests/data/table_specs.json"
COLUMNS = "80"


def _flags(family, **values):
    flags = ["--family", family]
    for name, value in values.items():
        flags += [f"--{name.replace('_', '-')}", str(value)]
    return flags


# every family's size formula: unary offsets and residue pairs, `B`,
# `BN`, prime and prime-power moduli, and a d past the budget (exit 5)
DFA_SPECS = [
    _flags("A", N=7, l=3), _flags("A", N=16, l=8), _flags("A", N=12, l=9), _flags("A", N=36, l=6),
    _flags("A", N=15, l=5), _flags("A", N=7, r1=2, r2=5), _flags("A", N=12, r1=5, r2=1),
    _flags("B", l=1), _flags("B", l=4), _flags("B", l=12), _flags("B", l=60),
    _flags("BN", N=15, l=5), _flags("BN", N=12, l=5), _flags("BN", N=5, l=2), _flags("BN", N=16, l=4),
    _flags("A", N=1000000007, l=1), _flags("BN", N=1000003, l=1),
]

# each case tag (small_l, mid at both edges 4l = N and 4l = 3N, large_l,
# quarter_turn), residue pairs with pre-rotated markers, huge moduli
SYNTH_SPECS = [
    _flags("A", N=16, l=1), _flags("A", N=4, l=1), _flags("A", N=7, l=3), _flags("A", N=4, l=3),
    _flags("A", N=7, l=6), _flags("A", N=997, l=990), _flags("A", N=1000000000001, l=1000000000000),
    _flags("A", N=8, r1=0, r2=2), _flags("A", N=13, r1=5, r2=2), _flags("A", N=12, r1=5, r2=1),
    _flags("B", l=1), _flags("B", l=6),
    _flags("BN", N=13, l=5), _flags("BN", N=13, l=10), _flags("BN", N=12, l=2), _flags("BN", N=997, l=1),
] + [_flags("A", N=N, l=l) for N in range(2, 10) for l in range(1, N)]

# certified runs, counterexamples (exit 4) and budget refusals (exit 5)
CERTIFY_SPECS = [
    _flags("A", N=7, l=3), _flags("A", N=13, l=1), _flags("A", N=7, r1=2, r2=5), _flags("A", N=12, l=9),
    _flags("B", l=1), _flags("B", l=4), _flags("BN", N=12, l=5), _flags("BN", N=4, l=2, j_max=1),
    _flags("BN", N=5, l=2, budget=5000000),
    _flags("A", N=16, l=8, i_max=0), _flags("BN", N=4, l=2, j_max=0), _flags("B", l=4, i_max=0, j_max=0),
    _flags("BN", N=4, l=2, i_max=1, j_max=0),
    _flags("A", N=31, l=7), _flags("BN", N=31, l=7), _flags("BN", N=5, l=2), _flags("B", l=12),
    _flags("A", N=15013, l=1),
]

# exit 2: flags argparse refuses, specs the loader refuses, negative
# bounds and budgets, and a missing spec file
USAGE_ERRORS = [
    ["certify", "--family", "B", "--l", "x"],
    ["certify", "--family", "B", "--l", "4", "--bogus"],
    ["certify", "--l", "4"],
    ["dfa", "--family", "A", "--N", "7", "--l", "7"],
    ["dfa", "--family", "A", "--N", "7"],
    ["dfa", "--family", "B", "--l", "3", "--N", "5"],
    ["synth", "--family", "A", "--N", "7", "--l", "3", "--r1", "1", "--r2", "2"],
    ["synth", "--family", "BN", "--N", "4", "--l", "0"],
    ["certify", *_flags("A", N=7, l=3, i_max=-1)],
    ["certify", *_flags("A", N=7, l=3, j_max=-1)],
    ["certify", *_flags("BN", N=5, l=2, j_max=-1)],
    ["certify", *_flags("B", l=4, budget=-1)],
    ["table", "--specs", SPECS, "--budget", "-1"],
    ["table", "--specs", SPECS, "--j-max", "-1"],
    ["table", "--specs", "tests/data/no_such_specs.json"],
]

COMMANDS = (
    [["dfa", *flags] for flags in DFA_SPECS]
    + [["synth", *flags] for flags in SYNTH_SPECS]
    + [["certify", *flags] for flags in CERTIFY_SPECS]
    + [["certify", *flags, "--format", "json"] for flags in CERTIFY_SPECS]
    + [["certify", *_flags("B", l=4, seed=7), "--format", "json"]]
    + [["table", "--specs", SPECS, *flags] for flags in ([], ["--budget", "0"], ["--i-max", "0"])]
    + [["run", "--machine", "tests/data/synth_B_l6.json", word] for word in ("aabb", "bbbbbb")]
    + USAGE_ERRORS
)


def run(argv):
    """The record of one command line; `main` must run from ROOT with
    COLUMNS set to `COLUMNS`."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse exits on a flag it refuses
            code = exc.code
    return {"argv": list(argv), "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


if __name__ == "__main__":
    os.chdir(ROOT)
    os.environ["COLUMNS"] = COLUMNS
    records = [run(argv) for argv in COMMANDS]
    CORPUS.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"{len(records)} records written to {CORPUS.relative_to(ROOT)}")
