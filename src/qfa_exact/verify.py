"""Exactness and separation harness.

Checks that synthesized machines really hit probability 1 on every
yes-instance and 0 on every no-instance (up to one configurable
tolerance), cross-checks quantum against classical decisions, and emits
the quantum-vs-DFA state-count table.
"""

import csv
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .dfa import (
    DEFAULT_ENUMERATION_BUDGET,
    Dfa,
    EnumerationBudgetError,
    certify_minimality_binary,
    certify_minimality_unary,
    claimed_size,
)
from .promise import (
    DEFAULT_I_MAX,
    DEFAULT_J_MAX,
    Classification,
    enumerate_instances,
    family_of,
    spec_to_dict,
)

if TYPE_CHECKING:  # the harness only calls a machine's methods; no numpy import
    from .moqfa import Moqfa

DEFAULT_TOLERANCE = 1e-9

SEPARATION_CSV_HEADER = ("family", "N", "l", "r1", "r2", "qfa_states", "dfa_states", "dfa_certified")


@dataclass(frozen=True)
class ExactnessReport:
    """Worst-case deviations from exact acceptance over a witness sweep."""

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
        return {
            "spec": spec_to_dict(self.spec),
            "machine_states": self.machine_states,
            "yes_checked": self.yes_checked,
            "no_checked": self.no_checked,
            "max_yes_deficit": self.max_yes_deficit,
            "max_no_leak": self.max_no_leak,
            "passed": self.passed,
            "tolerance": self.tolerance,
            "i_max": self.i_max,
            "j_max": self.j_max,
            "seed": self.seed,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def _witness_probabilities(machine: "Moqfa", spec, i_max: int, j_max: int):
    """Yield (word, label, acceptance probability) for every enumerated
    promise instance. Each distinct residue class of words (equal
    `reduced_runs`) is evaluated once per call; the result is the one
    `accept_probability` gives for every word of the class."""
    memo = {}
    for word, label in enumerate_instances(spec, i_max, j_max):
        key = machine.reduced_runs(word)
        prob = memo.get(key)
        if prob is None:
            prob = memo[key] = machine.reduced_probability(key)
        yield word, label, prob


def verify_exactness(
    machine: "Moqfa",
    spec,
    i_max: int = DEFAULT_I_MAX,
    j_max: int = DEFAULT_J_MAX,
    tolerance: float = DEFAULT_TOLERANCE,
    seed: int | None = None,
) -> ExactnessReport:
    """Run the machine on every enumerated promise instance and record the
    worst acceptance-probability deviation on each side."""
    max_yes_deficit = 0.0
    max_no_leak = 0.0
    yes_checked = no_checked = 0
    for _, label, prob in _witness_probabilities(machine, spec, i_max, j_max):
        if label is Classification.YES:
            yes_checked += 1
            max_yes_deficit = max(max_yes_deficit, abs(1.0 - prob))
        else:
            no_checked += 1
            max_no_leak = max(max_no_leak, prob)
    passed = (
        yes_checked > 0
        and no_checked > 0
        and max_yes_deficit <= tolerance
        and max_no_leak <= tolerance
    )
    return ExactnessReport(
        spec=spec,
        machine_states=machine.dim,
        yes_checked=yes_checked,
        no_checked=no_checked,
        max_yes_deficit=max_yes_deficit,
        max_no_leak=max_no_leak,
        passed=passed,
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
    within tolerance of 0 exactly when it rejects."""
    for word, _, prob in _witness_probabilities(machine, spec, i_max, j_max):
        accepted = dfa.accepts(word)
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
    (dfa_certified stays False) rather than failing the row."""
    dfa_states, _ = claimed_size(spec)
    family = family_of(spec)
    certified = False
    if certify_budget:
        try:
            if family == "A":
                certificate = certify_minimality_unary(spec.N, spec.gap, budget=certify_budget)
            else:
                certificate = certify_minimality_binary(spec, i_max, j_max, budget=certify_budget)
            certified = certificate.certified
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
    """One row per spec, in input order.

    `threads` is accepted and ignored: the rows are GIL-bound pure Python,
    and worker threads measured slower than one.
    """
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
