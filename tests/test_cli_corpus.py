"""Every command line of the committed CLI corpus still prints the same
bytes and exits with the same code.

`tests/data/cli_corpus.json` is written by `tests/make_cli_corpus.py`;
regenerate it only for an intended change of output, and name that
change.
"""

import json

from make_cli_corpus import COLUMNS, COMMANDS, CORPUS, ROOT, run

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

