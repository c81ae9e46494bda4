"""Exact measure-once quantum finite automata for modular promise
problems, their minimal classical counterparts, and the verification
harness that pins the quantum-vs-classical state-count separation.

Importing the package loads none of its modules. Each public name and
each submodule loads its module on first use, through the one table
`_LAZY`: `arith` holds the integer arithmetic of both state counts on
the standard library alone, `promise` the families, `dfa` the classical
side, `moqfa` and `synth` the quantum side, and `verify` the harness
that compares them. No module imports numpy: machines are built, loaded
and run in plain Python, and numpy loads only when a caller reads an
ndarray view of a machine (`Moqfa.u_left`, `u_sym`, `u_right`,
`Moqfa.final_state`, `AngleSpec.rotation`)."""

import importlib

__version__ = "0.1.0"

# name -> submodule that defines it, loaded by the first lookup
_LAZY = {
    **dict.fromkeys(("EnumerationBudgetError", "smallest_modulus", "smallest_modulus_alt",
                     "smallest_nondivisor"), "arith"),
    **dict.fromkeys(("BinaryPromiseSpec", "Classification", "UnaryPromiseSpec", "classify_binary",
                     "classify_unary", "enumerate_instances", "spec_from_dict", "spec_to_dict"),
                    "promise"),
    **dict.fromkeys(("Dfa", "MinimalityCertificate", "build_binary_min_dfa", "build_unary_min_dfa",
                     "certify_minimality_binary", "certify_minimality_unary", "run_dfa"), "dfa"),
    **dict.fromkeys(("ExactnessReport", "SeparationRow", "cross_check", "separation_row",
                     "separation_table", "verify_exactness", "write_separation_csv"), "verify"),
    **dict.fromkeys(("AngleSpec", "Moqfa"), "moqfa"),
    **dict.fromkeys(("AngleSelection", "LiftParameters", "build_binary_Nl", "build_binary_l",
                     "build_unary", "build_unary_general", "lift_parameters", "select_angle"),
                    "synth"),
}
# the modules above, and `words`, which each of them reads
_SUBMODULES = {*_LAZY.values(), "words"}

__all__ = sorted(_LAZY)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _LAZY:
        # not cached here: the submodule stays the one binding, so
        # patching it (or tracing it) shows through this package too
        return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
