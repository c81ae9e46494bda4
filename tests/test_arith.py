"""The integer arithmetic module: standard library only, one home for the
size formulas, and an exact quadrant check of the angle multiplier."""

import pytest

import qfa_exact
from qfa_exact import arith, dfa, synth
from test_lazy_imports import PACKAGE_ROOT, run_fresh


def test_arith_loads_no_other_package_module_and_no_numpy():
    # a bare package object stands in for `qfa_exact`, whose __init__
    # loads the classical side, so only what arith.py itself imports loads
    result = run_fresh(
        "import sys, types\n"
        "package = types.ModuleType('qfa_exact')\n"
        "package.__path__ = [ROOT + '/qfa_exact']\n"
        "sys.modules['qfa_exact'] = package\n"
        "import qfa_exact.arith\n"
        "print(sorted(name for name in sys.modules if name.startswith('qfa_exact')))\n"
        "print('numpy' in sys.modules)",
        ROOT=PACKAGE_ROOT,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["['qfa_exact', 'qfa_exact.arith']", "False"]


@pytest.mark.parametrize("name", ["smallest_modulus", "smallest_modulus_alt", "smallest_nondivisor"])
def test_each_size_function_is_one_object_under_every_name(name):
    assert getattr(qfa_exact, name) is getattr(dfa, name) is getattr(arith, name)
    assert name in qfa_exact.__all__


def test_the_multiplier_lands_in_the_nonpositive_quadrant_in_integers():
    # cos(2*pi*r/N) <= 0 iff N <= 4r <= 3N, with r = q*l mod N: the exact
    # twin of select_angle's float check, on every 0 < l < N <= 600
    checked = 0
    for N in range(2, 601):
        for l in range(1, N):
            q, case = arith.angle_multiplier(N, l)
            assert N <= 4 * (q * l % N) <= 3 * N, (N, l, q)
            assert case == ("small_l" if 4 * l < N else "mid" if 4 * l <= 3 * N else "large_l"), (N, l)
            selection = synth.select_angle(N, l)
            assert (selection.q, selection.case_tag) == (q, case), (N, l)
            checked += 1
    assert checked == 179_700
