"""Exactness and separation harness.

Checks that synthesized machines really hit probability 1 on every
yes-instance and 0 on every no-instance (up to one configurable
tolerance), cross-checks quantum against classical decisions, and emits
the quantum-vs-DFA state-count table.
"""

import csv
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .dfa import (
    DEFAULT_ENUMERATION_BUDGET,
    Dfa,
    EnumerationBudgetError,
    _certify,
    _check_budget,
    claimed_size,
)
from .promise import (
    DEFAULT_I_MAX,
    DEFAULT_J_MAX,
    UnaryPromiseSpec,
    _check_bounds,
    _grid_family,
    _witness_columns,
    _witness_sizes,
    _witness_steps,
    _witness_symbols,
    enumerate_instances,
    family_of,
    spec_to_dict,
)
from .words import _STILL, _worst, as_runs, dump_json, record_dict

if TYPE_CHECKING:  # the harness only calls a machine's methods; `moqfa` stays unloaded
    from .moqfa import Moqfa

DEFAULT_TOLERANCE = 1e-9

SEPARATION_CSV_HEADER = ("family", "N", "l", "r1", "r2", "qfa_states", "dfa_states", "dfa_certified")


@dataclass(frozen=True)
class ExactnessReport:
    """Worst-case deviations from exact acceptance over a witness sweep.

    `yes_checked` and `no_checked` count every witness up to the bounds
    `i_max` and `j_max`. The sweep evaluates those up to the `last` of
    each axis's class-key lasso, whose period covers the rest."""

    spec: object
    machine_states: int
    yes_checked: int
    no_checked: int
    max_yes_deficit: float
    max_no_leak: float
    passed: bool
    tolerance: float = DEFAULT_TOLERANCE
    i_max: int = DEFAULT_I_MAX
    j_max: int = DEFAULT_J_MAX
    seed: int | None = None

    def to_dict(self) -> dict:
        return record_dict(self, spec=spec_to_dict)

    def to_json(self, indent: int | None = 2) -> str:
        return dump_json(self.to_dict(), indent)


def _check_alphabets(spec, i_max: int, j_max: int, alphabets) -> None:
    """Raise the ValueError that reading each witness as a word over each
    alphabet in turn raises first, if any. The witnesses are walked only
    when some alphabet lacks a symbol the family uses, since they may
    avoid it (a b-only machine reads every witness with i_max = 0). Only
    those with i <= 1 and j = 0 are walked: the first witness to hold an
    `a` is ab, and the first to hold a `b` is ab or b^l, and any unary
    witness raises the same error as the first."""
    if isinstance(spec, UnaryPromiseSpec):
        suspect = any(len(alphabet) != 1 for alphabet in alphabets)
    else:
        suspect = any(sym not in alphabet for alphabet in alphabets for sym in "ab")
    if suspect:
        for word, _ in enumerate_instances(spec, min(i_max, 1), min(j_max, 0)):
            for alphabet in alphabets:
                as_runs(word, alphabet)


def _sweep(machine: "Moqfa", spec, i_max: int, j_max: int, dfa: Dfa | None = None) -> list:
    """Per side, the class keys (`Moqfa.class_of`) of the witnesses up to
    one period of the grid, each paired with the DFA's final state when
    `dfa` is given; the alphabets and the bounds are checked first.

    Each axis is cut at the `last` of the join of the class key's lasso
    (`Moqfa._class_lasso`) and the DFA state's (`Dfa._witness_periods`),
    so every witness up to the bounds has the key, or the (key, state)
    pair, of one up to the cut; without an angle, all are read."""
    alphabets = (machine.alphabet,) if dfa is None else (machine.alphabet, dfa.alphabet)
    _check_alphabets(spec, i_max, j_max, alphabets)
    _grid_family(spec, i_max, j_max)  # the spec and the bounds, checked before the DFA reads them
    symbols = _witness_symbols(spec, machine.alphabet)
    if dfa is None:
        dfa_axes = _STILL, _STILL  # no second key
    else:
        dfa_symbols = _witness_symbols(spec, dfa.alphabet)
        dfa_axes = dfa._witness_periods(spec, dfa_symbols, i_max, j_max)
    cuts = []
    for bound, steps, dfa_axis in zip((i_max, j_max), _witness_steps(spec), dfa_axes):
        machine_axis = machine._class_lasso(symbols, steps)
        cuts.append(bound if machine_axis is None else machine_axis.join(dfa_axis).last(bound))
    sides = _witness_columns(spec, *cuts)
    if dfa is None:
        return [machine._class_keys(symbols, columns) for columns in sides]
    # both sides in one pass, so that the DFA reads each orbit once
    columns = [[*yes, *no] for yes, no in zip(*sides)]
    pairs = list(zip(machine._class_keys(symbols, columns), dfa._final_states(dfa_symbols, columns)))
    split = len(sides[0][0])
    return [pairs[:split], pairs[split:]]


def verify_exactness(
    machine: "Moqfa",
    spec,
    i_max: int = DEFAULT_I_MAX,
    j_max: int = DEFAULT_J_MAX,
    tolerance: float = DEFAULT_TOLERANCE,
    seed: int | None = None,
) -> ExactnessReport:
    """Check the machine on every enumerated promise instance and record
    the worst acceptance-probability deviation on each side; a nan
    probability makes its side's deviation nan, and the check fails.

    The witnesses are read through `_sweep`, one period of the grid for
    a machine with an angle and every witness for one without. Every
    witness up to the bounds counts as checked: the others have the
    class of one that was evaluated."""
    yes_keys, no_keys = _sweep(machine, spec, i_max, j_max)
    yes_checked, no_checked = _witness_sizes(spec, i_max, j_max)
    # the worst deviation on each side is the worst over its classes
    final = machine._final
    max_yes_deficit = _worst([abs(1.0 - final(key)[1]) for key in set(yes_keys)])
    max_no_leak = _worst([final(key)[1] for key in set(no_keys)])
    return ExactnessReport(
        spec=spec,
        machine_states=machine.dim,
        yes_checked=yes_checked,
        no_checked=no_checked,
        max_yes_deficit=max_yes_deficit,
        max_no_leak=max_no_leak,
        passed=max_yes_deficit <= tolerance and max_no_leak <= tolerance,
        tolerance=tolerance,
        i_max=i_max,
        j_max=j_max,
        seed=seed,
    )


def cross_check(
    machine: "Moqfa",
    dfa: Dfa,
    spec,
    i_max: int = DEFAULT_I_MAX,
    j_max: int = DEFAULT_J_MAX,
    tolerance: float = DEFAULT_TOLERANCE,
) -> bool:
    """True iff quantum and classical decisions agree on every witness:
    probability within tolerance of 1 exactly when the DFA accepts, and
    within tolerance of 0 exactly when it rejects.

    The witnesses are read through `_sweep`, up to one period past the
    tail of the pairs of a class key and a DFA final state. A verdict
    does not depend on the side, so each pair is judged once."""
    yes_pairs, no_pairs = _sweep(machine, spec, i_max, j_max, dfa)
    for key, state in {*yes_pairs, *no_pairs}:
        prob = machine._final(key)[1]
        accepted = state in dfa.accepting
        if (prob >= 1.0 - tolerance) != accepted:
            return False
        if (prob <= tolerance) != (not accepted):
            return False
    return True


@dataclass(frozen=True)
class SeparationRow:
    """One spec's quantum state count against the minimal-DFA size."""

    spec: object
    qfa_states: int
    dfa_states: int
    dfa_certified: bool


def separation_row(
    spec,
    i_max: int = DEFAULT_I_MAX,
    j_max: int = DEFAULT_J_MAX,
    certify_budget: int | None = DEFAULT_ENUMERATION_BUDGET,
) -> SeparationRow:
    """Compute one table row; certification misses the budget quietly
    (dfa_certified stays False) rather than failing the row. An `A` row
    certifies on the unary certificate's own bound 2d + 2, not on
    `i_max`. A negative witness bound raises ValueError whatever the
    family and the budget."""
    _check_bounds(i_max, j_max)
    dfa_states, _ = claimed_size(spec)
    family = family_of(spec)
    certified = False
    if certify_budget:
        try:
            certified = _certify(spec, None if family == "A" else i_max, j_max, certify_budget).certified
        except EnumerationBudgetError:
            pass
    qfa_states = 2 if family == "B" else 3
    return SeparationRow(spec=spec, qfa_states=qfa_states, dfa_states=dfa_states, dfa_certified=certified)


def separation_table(
    specs,
    i_max: int = DEFAULT_I_MAX,
    j_max: int = DEFAULT_J_MAX,
    certify_budget: int | None = DEFAULT_ENUMERATION_BUDGET,
    threads: int = 1,
) -> list[SeparationRow]:
    """One row per spec, in input order. A negative witness bound, then a
    negative budget, raises ValueError as `separation_row` does, even
    with no spec; a budget of 0 or None turns certification off.

    `threads` is accepted and ignored: the rows are GIL-bound pure Python,
    and worker threads measured slower than one.
    """
    _check_bounds(i_max, j_max)
    _check_budget((), certify_budget or 0, 0)  # only its sign: 0 and None turn certification off
    return [separation_row(spec, i_max, j_max, certify_budget) for spec in specs]


def _row_fields(row: SeparationRow) -> dict:
    fields = dict.fromkeys(SEPARATION_CSV_HEADER, "")
    fields.update(spec_to_dict(row.spec))
    if fields["family"] == "A":
        # the CSV names the residues r1/r2 and gives their gap as l
        fields.update(l=row.spec.gap, r1=fields.pop("r_yes"), r2=fields.pop("r_no"))
    fields.update(
        qfa_states=row.qfa_states,
        dfa_states=row.dfa_states,
        dfa_certified="true" if row.dfa_certified else "false",
    )
    return fields


def write_separation_csv(rows, stream) -> None:
    writer = csv.DictWriter(stream, fieldnames=SEPARATION_CSV_HEADER)
    writer.writeheader()
    for row in rows:
        writer.writerow(_row_fields(row))
