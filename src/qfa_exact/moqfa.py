"""Measure-once quantum finite automata with real orthogonal transitions.

A machine reads its input wrapped in virtual end-markers: the
left-marker matrix fires first, then one matrix per input symbol, then
the right-marker matrix, and a single projective measurement on the
accepting basis states decides acceptance. All machines built here are
real-valued; rotations are the only nontrivial ingredient.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .words import as_alphabet, as_int, as_runs, dump_json, int_fields, load_json

ORTHOGONALITY_TOLERANCE = 1e-10
# |u^D - I| of a built machine grows linearly in D (at worst 1.9e-16 * D
# over built machines with D up to 10**6); a loaded machine may drift by
# this much per step on top of the orthogonality slack
PERIOD_DRIFT_PER_STEP = 1e-14


@dataclass(frozen=True)
class AngleSpec:
    """Exact rational angle theta = 2*pi*q/D kept as an integer pair.

    Rotating k times by theta is the same as rotating once by
    2*pi*((k*q) mod D)/D, so all repeated-rotation arithmetic happens on
    integers mod D before any trigonometric call. That keeps round-off
    independent of how many symbols a word has.
    """

    q: int
    D: int

    def __post_init__(self):
        int_fields(self, ("q", "D"), "angle.")
        if self.D < 1:
            raise ValueError(f"denominator must be positive, got {self.D}")
        if self.q < 0:
            raise ValueError(f"numerator must be nonnegative, got {self.q}")
        object.__setattr__(self, "q", self.q % self.D)

    @property
    def theta(self) -> float:
        return 2.0 * math.pi * self.q / self.D

    def reduced_units(self, k: int) -> int:
        """Integer r in [0, D) with k*theta equivalent to 2*pi*r/D."""
        return (k * self.q) % self.D

    def rotation(self, k: int = 1) -> np.ndarray:
        """2x2 counterclockwise rotation by k*theta, exactly reduced."""
        angle = 2.0 * math.pi * self.reduced_units(k) / self.D
        c, s = math.cos(angle), math.sin(angle)
        return np.array([[c, -s], [s, c]])


@dataclass(frozen=True, eq=False)
class Moqfa:
    """A measure-once machine: end-marker matrices, one matrix per symbol,
    initial basis state 0, and a set of accepting basis states.

    `angle` records the rational angle the per-symbol rotations were
    generated from. When present, every per-symbol matrix has period
    `angle.D`, so a run of n equal symbols costs one matrix power with
    exponent n mod D; without it simulation falls back to plain powering.

    Machines are immutable; the only internal state is a memo of symbol
    powers, kept only when `angle` bounds its keys, so concurrent runs at
    worst recompute an entry. The memo is not an init field, so
    `dataclasses.replace` starts the copy with an empty one.
    """

    dim: int
    alphabet: tuple[str, ...]
    u_left: np.ndarray
    u_sym: dict[str, np.ndarray]
    u_right: np.ndarray
    accepting: frozenset[int]
    angle: AngleSpec | None = None
    _powers: dict = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        object.__setattr__(self, "u_left", np.asarray(self.u_left, dtype=float))
        object.__setattr__(self, "u_right", np.asarray(self.u_right, dtype=float))
        object.__setattr__(
            self,
            "u_sym",
            {sym: np.asarray(m, dtype=float) for sym, m in self.u_sym.items()},
        )
        for m in (self.u_left, self.u_right, *self.u_sym.values()):
            if m.shape != (self.dim, self.dim):
                raise ValueError(f"matrix shape {m.shape} != ({self.dim}, {self.dim})")
        if set(self.u_sym) != set(self.alphabet):
            raise ValueError("per-symbol matrices must cover the alphabet exactly")
        if not self.accepting <= set(range(self.dim)):
            raise ValueError(f"accepting set {set(self.accepting)} out of range")

    def _symbol_power(self, sym: str, count: int) -> np.ndarray:
        if self.angle is None:
            return np.linalg.matrix_power(self.u_sym[sym], count)
        key = (sym, count)
        power = self._powers.get(key)
        if power is None:
            power = np.linalg.matrix_power(self.u_sym[sym], count)
            self._powers[key] = power
        return power

    def reduced_runs(self, word) -> tuple[tuple[str, int], ...]:
        """Run-length pairs of `word` with each count reduced mod `angle.D`
        and runs that reduce to zero dropped; unchanged without an angle.

        Words with equal reduced runs share a final state, computed by
        the same floating-point operations.
        """
        runs = as_runs(word, self.alphabet)
        if self.angle is None:
            return runs
        D = self.angle.D
        return tuple([(sym, r) for sym, count in runs if (r := count % D)])

    def final_state(self, word) -> np.ndarray:
        """State vector after left-marker, word, right-marker on basis state 0."""
        return self._evolve(self.reduced_runs(word))

    def accept_probability(self, word) -> float:
        """Squared norm of the final state projected on the accepting set."""
        return self._measure(self.final_state(word))

    def reduced_probability(self, runs) -> float:
        """`accept_probability` of every word whose `reduced_runs` are `runs`."""
        return self._measure(self._evolve(runs))

    def _evolve(self, runs) -> np.ndarray:
        state = self.u_left[:, 0].copy()
        for sym, count in runs:
            state = self._symbol_power(sym, count) @ state
        return self.u_right @ state

    def _measure(self, state) -> float:
        prob = float(sum(state[i] ** 2 for i in self.accepting))
        return min(max(prob, 0.0), 1.0)

    def check_orthogonality(self) -> float:
        """Worst deviation of M^T M from the identity over all matrices.

        Anything above 1e-10 means the machine was not built from proper
        rotations and should be treated as a construction failure.
        """
        stack = np.stack((self.u_left, self.u_right, *self.u_sym.values()))
        return float(np.max(np.abs(stack.transpose(0, 2, 1) @ stack - np.eye(self.dim))))

    def check_period(self) -> float:
        """Worst deviation of u^D from the identity over the per-symbol
        matrices, D = `angle.D`; 0.0 for a machine without an angle.

        Evaluation reduces every run count mod D, which is only right
        when D is a period of each symbol matrix.
        """
        if self.angle is None or not self.u_sym:
            return 0.0
        stack = np.stack(tuple(self.u_sym.values()))
        power = np.linalg.matrix_power(stack, self.angle.D)
        return float(np.max(np.abs(power - np.eye(self.dim))))

    def to_dict(self) -> dict:
        matrices = {"lmark": self.u_left.tolist(), "rmark": self.u_right.tolist()}
        for sym, m in self.u_sym.items():
            matrices[sym] = m.tolist()
        return {
            "dim": self.dim,
            "alphabet": list(self.alphabet),
            "angle": None if self.angle is None else {"q": self.angle.q, "D": self.angle.D},
            "matrices": matrices,
            "accepting": sorted(self.accepting),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return dump_json(self.to_dict(), indent)

    @classmethod
    def from_dict(cls, data: dict) -> "Moqfa":
        matrices = dict(data["matrices"])
        u_left = matrices.pop("lmark")
        u_right = matrices.pop("rmark")
        angle = data.get("angle")
        machine = cls(
            dim=as_int(data["dim"], "dim"),
            alphabet=as_alphabet(data["alphabet"]),
            u_left=u_left,
            u_sym=matrices,
            u_right=u_right,
            accepting=frozenset(as_int(s, "accepting state") for s in data["accepting"]),
            angle=None if angle is None else AngleSpec(angle["q"], angle["D"]),
        )
        # a file can claim anything; a non-orthogonal matrix or a wrong
        # period gives silently wrong probabilities, so refuse both here
        # (built machines are checked by their builders instead); a
        # non-finite entry reads as a nan deviation, without a warning
        with np.errstate(all="ignore"):
            orthogonality, period = machine.check_orthogonality(), machine.check_period()
        if not orthogonality <= ORTHOGONALITY_TOLERANCE:
            raise ValueError(f"machine matrices drift from orthogonal by {orthogonality:.3g}")
        if machine.angle is not None and not (
            period <= ORTHOGONALITY_TOLERANCE + PERIOD_DRIFT_PER_STEP * machine.angle.D
        ):
            raise ValueError(
                f"angle.D = {machine.angle.D} is not a period of the symbol "
                f"matrices: |u^D - I| = {period:.3g}"
            )
        return machine

    @classmethod
    def from_json(cls, text: str) -> "Moqfa":
        return load_json(text, "machine", cls.from_dict)
