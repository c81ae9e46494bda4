"""Exact measure-once quantum finite automata for modular promise
problems, their minimal classical counterparts, and the verification
harness that pins the quantum-vs-classical state-count separation.

`arith` holds the integer arithmetic of both state counts on the
standard library alone.

The quantum side (`moqfa`, `synth`) loads on first use of one of its
names. No module imports numpy: machines are built, loaded and run in
plain Python, and numpy loads only when a caller reads an ndarray view
of a machine (`Moqfa.u_left`, `u_sym`, `u_right`, `Moqfa.final_state`,
`AngleSpec.rotation`)."""

import importlib

from .arith import smallest_modulus, smallest_modulus_alt, smallest_nondivisor
from .dfa import (
    Dfa,
    EnumerationBudgetError,
    MinimalityCertificate,
    build_binary_min_dfa,
    build_unary_min_dfa,
    certify_minimality_binary,
    certify_minimality_unary,
    run_dfa,
)
from .promise import (
    BinaryPromiseSpec,
    Classification,
    UnaryPromiseSpec,
    classify_binary,
    classify_unary,
    enumerate_instances,
    spec_from_dict,
    spec_to_dict,
)
from .verify import (
    ExactnessReport,
    SeparationRow,
    cross_check,
    separation_row,
    separation_table,
    verify_exactness,
    write_separation_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AngleSelection",
    "AngleSpec",
    "BinaryPromiseSpec",
    "Classification",
    "Dfa",
    "EnumerationBudgetError",
    "ExactnessReport",
    "LiftParameters",
    "MinimalityCertificate",
    "Moqfa",
    "SeparationRow",
    "UnaryPromiseSpec",
    "build_binary_Nl",
    "build_binary_l",
    "build_binary_min_dfa",
    "build_unary",
    "build_unary_general",
    "build_unary_min_dfa",
    "certify_minimality_binary",
    "certify_minimality_unary",
    "classify_binary",
    "classify_unary",
    "cross_check",
    "enumerate_instances",
    "lift_parameters",
    "run_dfa",
    "select_angle",
    "separation_row",
    "separation_table",
    "smallest_modulus",
    "smallest_modulus_alt",
    "smallest_nondivisor",
    "spec_from_dict",
    "spec_to_dict",
    "verify_exactness",
    "write_separation_csv",
]

# name -> submodule that defines it, loaded by the first lookup
_LAZY = {
    "AngleSpec": "moqfa",
    "Moqfa": "moqfa",
    "AngleSelection": "synth",
    "LiftParameters": "synth",
    "build_binary_Nl": "synth",
    "build_binary_l": "synth",
    "build_unary": "synth",
    "build_unary_general": "synth",
    "lift_parameters": "synth",
    "select_angle": "synth",
}


def __getattr__(name):
    if name in ("moqfa", "synth"):
        return importlib.import_module(f".{name}", __name__)
    if name in _LAZY:
        # not cached here: the submodule stays the one binding, so
        # patching it (or tracing it) shows through this package too
        return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | {"moqfa", "synth"})
