"""Every command line of the committed CLI corpus still prints the same
bytes and exits with the same code.

`tests/data/cli_corpus.json` is written by `tests/make_cli_corpus.py`;
regenerate it only for an intended change of output, and name that
change. `tests/replay_cli_corpus.py` replays it through an installed
console script.
"""

import json
import os
import sys
from pathlib import Path

import qfa_exact
from make_cli_corpus import COLUMNS, COMMANDS, CORPUS, ROOT, run
from replay_cli_corpus import differing

RECORDS = json.loads(CORPUS.read_text(encoding="utf-8"))


def test_the_corpus_holds_every_command_of_its_generator():
    assert [record["argv"] for record in RECORDS] == COMMANDS
    assert {record["exit"] for record in RECORDS} == {0, 2, 4, 5}
    assert {record["argv"][0] for record in RECORDS} == {"synth", "run", "dfa", "certify", "table", "--help"}


def test_every_command_line_reprints_its_record(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("COLUMNS", COLUMNS)
    changed = [record["argv"] for record in RECORDS if run(record["argv"]) != record]
    assert not changed, f"{len(changed)} of {len(RECORDS)} records differ, first {changed[:3]}"


def test_the_replay_names_a_record_edited_by_one_byte(tmp_path, monkeypatch):
    # a console script on PATH that runs this checkout's package
    script = tmp_path / "qfa-exact"
    script.write_text(f"#!{sys.executable}\nimport sys\nfrom qfa_exact.cli import main\nsys.exit(main())\n")
    script.chmod(0o755)
    monkeypatch.setenv("PATH", os.pathsep.join([str(tmp_path), os.environ["PATH"]]))
    monkeypatch.setenv("PYTHONPATH", str(Path(qfa_exact.__file__).resolve().parent.parent))
    by_argv = {tuple(record["argv"]): record for record in RECORDS}
    certified = by_argv["certify", "--family", "B", "--l", "4"]
    edited = dict(certified, stdout=certified["stdout"].replace("130", "131"))
    # CSV lines in CRLF, and a usage error argparse prints under the script's name
    kept = [by_argv["table", "--specs", "tests/data/table_specs.json"], by_argv["certify", "--l", "4"]]
    assert edited != certified
    assert differing([kept[0], edited, kept[1]]) == [certified["argv"]]
