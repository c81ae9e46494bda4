"""Replay every record of tests/data/cli_corpus.json through the
`qfa-exact` console script found on PATH, and exit 1 when any record's
stdout, stderr or exit code differs.

Each command runs from the repository root with COLUMNS set as for the
corpus, and must finish within TIMEOUT_S seconds. Run it after
installing the package:

    pip install . && python tests/replay_cli_corpus.py
"""

import json
import os
import subprocess
import sys

from make_cli_corpus import COLUMNS, CORPUS, ROOT

TIMEOUT_S = 10


def replay(argv):
    """The record of one command line, as the console script prints it."""
    result = subprocess.run(["qfa-exact", *argv], capture_output=True, cwd=ROOT,
                            env=dict(os.environ, COLUMNS=COLUMNS), timeout=TIMEOUT_S)
    # bytes decoded as they are: `table` ends its CSV lines in CRLF
    return {"argv": list(argv), "stdout": result.stdout.decode(), "stderr": result.stderr.decode(),
            "exit": result.returncode}


def differing(records):
    """The argv of each record whose replay differs from it."""
    return [record["argv"] for record in records if replay(record["argv"]) != record]


if __name__ == "__main__":
    records = json.loads(CORPUS.read_text(encoding="utf-8"))
    changed = differing(records)
    print(f"{len(changed)} of {len(records)} records differ" + (f", first {changed[:3]}" if changed else ""))
    sys.exit(1 if changed else 0)
