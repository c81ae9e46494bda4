"""Smoke test: every narrative script in demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qfa_exact

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
PACKAGE_ROOT = str(Path(qfa_exact.__file__).resolve().parent.parent)


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (PACKAGE_ROOT, env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr


def test_demos_are_found():
    assert DEMOS  # an empty glob would silently parametrize nothing
