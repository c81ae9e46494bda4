"""Measure-once quantum finite automata with real orthogonal transitions.

A machine reads its input wrapped in virtual end-markers: the
left-marker matrix fires first, then one matrix per input symbol, then
the right-marker matrix, and a single projective measurement on the
accepting basis states decides acceptance. All machines built here are
real-valued; rotations are the only nontrivial ingredient.

The matrices are 2x2 or 3x3, so evaluation is plain Python on tuples of
float rows, and numpy is never needed to build, load or run a machine.
It loads on the first read of an ndarray view: `Moqfa.u_left`, `u_sym`,
`u_right`, `Moqfa.final_state` and `AngleSpec.rotation`.

Construction checks the shape of every field and tests the closed form
entry for entry, and evaluates no word. Orthogonality is checked by each
builder and by the loader, which also checks the period.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import mul

from .words import _STILL, _Lasso, _worst, as_alphabet, as_int, as_runs, dump_json, int_fields, load_json

ORTHOGONALITY_TOLERANCE = 1e-10
# |u^D - I| of a built machine grows linearly in D (at worst 1.9e-16 * D
# over built machines with D up to 10**6); a loaded machine may drift by
# this much per step on top of the orthogonality slack, up to a cap far
# below the 2 that any false period reaches
PERIOD_DRIFT_PER_STEP = 1e-14
PERIOD_TOLERANCE_CAP = 1e-6
# a probability further than this outside [0, 1] is an error, not rounding
PROBABILITY_TOLERANCE = 1e-9


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
        try:
            finite = math.isfinite(2.0 * math.pi * self.D)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(
                f"denominator too large: 2*pi*D overflows a float for a {self.D.bit_length()}-bit D"
            )
        if self.q < 0:
            raise ValueError(f"numerator must be nonnegative, got {self.q}")
        object.__setattr__(self, "q", self.q % self.D)

    @property
    def theta(self) -> float:
        return 2.0 * math.pi * self.q / self.D

    def reduced_units(self, k: int) -> int:
        """Integer r in [0, D) with k*theta equivalent to 2*pi*r/D."""
        return (k * self.q) % self.D

    def cos_sin(self, k: int = 1) -> tuple[float, float]:
        """(cos, sin) of k*theta, exactly reduced."""
        angle = 2.0 * math.pi * self.reduced_units(k) / self.D
        return math.cos(angle), math.sin(angle)

    def rotation(self, k: int = 1):
        """2x2 counterclockwise rotation by k*theta, exactly reduced, as an ndarray."""
        return _ndarray(turn(2, *self.cos_sin(k)), writeable=True)


# -- matrices as tuples of float rows -----------------------------------------
class _Rows(tuple):
    """A square matrix of float rows that this package built itself
    (`identity`, `turn`, `matmul`, the rows the builders write), so `_as_rows`
    takes it as it is."""

    __slots__ = ()


@lru_cache(maxsize=None)
def identity(dim: int) -> _Rows:
    return _Rows(tuple(float(i == j) for j in range(dim)) for i in range(dim))


def turn(dim: int, c: float, s: float) -> _Rows:
    """The identity with its last two axes turned by [[c, -s], [s, c]]."""
    c, s = float(c), float(s)
    *fixed, x, y = identity(dim)
    return _Rows((*fixed, (*x[:-2], c, -s), (*y[:-2], s, c)))


def transpose(m):
    return tuple(zip(*m))


def apply(m, v) -> tuple[float, ...]:
    """Matrix times vector."""
    return tuple([sum(map(mul, row, v)) for row in m])


def matmul(a, b):
    """a times b, both square matrices of float rows of one size."""
    columns = transpose(b)
    return _Rows([tuple([sum(map(mul, row, col)) for col in columns]) for row in a])


def _power(m, n: int):
    """m**n for n >= 1 by repeated squaring, in the order numpy's matrix_power uses."""
    square = result = None
    while n:
        square = m if square is None else matmul(square, square)
        n, bit = divmod(n, 2)
        if bit:
            result = square if result is None else matmul(result, square)
    return result


def _off_identity(m):
    """|m - I|, entry by entry."""
    return [abs(x - (i == j)) for i, row in enumerate(m) for j, x in enumerate(row)]


def _gram_off_identity(m):
    """|m^T m - I| on and above the diagonal; m^T m is symmetric. Each
    entry `sum`s its column products in row order, spelled out for 2x2 and 3x3."""
    if len(m) == 3:
        (a, b, c), (d, e, f), (g, h, k) = m
        return [
            abs(sum((a * a, d * d, g * g)) - 1), abs(sum((a * b, d * e, g * h))), abs(sum((a * c, d * f, g * k))),
            abs(sum((b * b, e * e, h * h)) - 1), abs(sum((b * c, e * f, h * k))),
            abs(sum((c * c, f * f, k * k)) - 1),
        ]
    if len(m) == 2:
        (a, b), (c, d) = m
        return [abs(sum((a * a, c * c)) - 1), abs(sum((a * b, c * d))), abs(sum((b * b, d * d)) - 1)]
    columns = transpose(m)
    n = len(columns)
    return [abs(sum(map(mul, columns[i], columns[j])) - (i == j)) for i in range(n) for j in range(i, n)]


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _as_rows(matrix, dim: int, name: str):
    """`matrix` (nested lists or tuples, or an ndarray) as a tuple of `dim`
    float rows of `dim` entries; entries must be non-bool ints or floats.
    A `_Rows` of `dim` rows is returned as it is."""
    if type(matrix) is _Rows and len(matrix) == dim:
        return matrix
    if hasattr(matrix, "tolist"):
        matrix = matrix.tolist()
    if isinstance(matrix, (list, tuple)) and len(matrix) == dim and all(
        isinstance(row, (list, tuple)) and len(row) == dim
        and (set(map(type, row)) <= {float, int} or all(map(_is_number, row)))
        for row in matrix
    ):
        return tuple([tuple(map(float, row)) for row in matrix])
    raise ValueError(f"matrix {name!r} must be a {dim}x{dim} array of numbers")


def _ndarray(rows, writeable=False):
    import numpy as np

    array = np.array(rows, dtype=float)
    array.flags.writeable = writeable
    return array


class _ArrayView:
    """A matrix field kept as float rows under `_<name>`. Reading the field
    gives read-only ndarrays (a dict of them for `u_sym`), made on the
    first read; raising AttributeError on the class keeps the field
    required in the dataclass."""

    def __set_name__(self, owner, name):
        self.name, self.rows, self.view = name, "_" + name, "_" + name + "_view"

    def __get__(self, machine, owner=None):
        if machine is None:
            raise AttributeError(self.name)
        cache = machine.__dict__
        if self.view not in cache:
            rows = cache[self.rows]
            cache[self.view] = (
                {sym: _ndarray(m) for sym, m in rows.items()}
                if isinstance(rows, dict) else _ndarray(rows)
            )
        return cache[self.view]

    def __set__(self, machine, value):
        machine.__dict__[self.rows] = value
        machine.__dict__.pop(self.view, None)


@dataclass(frozen=True, eq=False)
class Moqfa:
    """A measure-once machine: end-marker matrices, one matrix per symbol,
    initial basis state 0, and a set of accepting basis states.

    `angle` records the rational angle the per-symbol rotations were
    generated from. When present, every per-symbol matrix has period
    `angle.D`, so run counts are reduced mod D. When moreover each symbol
    matrix equals, entry for entry, the identity with its last two axes
    turned by `angle.rotation(1)` or by its transpose (as every builder
    makes it), a word is one rotation by t*theta with t the signed sum of
    its counts mod D, computed by one exactly-reduced cos/sin. Any other
    machine multiplies matrix powers, taken by repeated squaring.

    Machines are immutable. Construction keeps the start vector (basis
    state 0 after the left marker); the only other internal state is the
    closed form's memo of (final state, acceptance probability) by t,
    whose keys `angle.D` bounds, the empty word's t = 0 among them.
    Concurrent runs at worst recompute an entry. Other machines keep no
    memo. The memo is not an init field, so `dataclasses.replace` starts
    the copy with an empty one. A probability more than
    PROBABILITY_TOLERANCE outside [0, 1] raises ValueError.
    """

    dim: int
    alphabet: tuple[str, ...]
    u_left: "ndarray" = _ArrayView()
    u_sym: "dict[str, ndarray]" = _ArrayView()
    u_right: "ndarray" = _ArrayView()
    accepting: frozenset[int]
    angle: AngleSpec | None = None
    _powers: dict = field(init=False, default_factory=dict, repr=False)
    _turns: dict | None = field(init=False, default=None, repr=False)
    _start: tuple = field(init=False, default=(), repr=False)

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        # the machine starts in basis state 0, so it needs one state
        if isinstance(self.dim, int) and self.dim < 1:
            raise ValueError(f"dim must be at least 1, not {self.dim}")
        if not hasattr(self._u_sym, "items"):
            raise ValueError("per-symbol matrices must map each symbol to its matrix")
        # no ndarray view exists yet
        rows = self.__dict__
        rows["_u_left"] = _as_rows(self._u_left, self.dim, "lmark")
        rows["_u_right"] = _as_rows(self._u_right, self.dim, "rmark")
        rows["_u_sym"] = {sym: _as_rows(m, self.dim, sym) for sym, m in self._u_sym.items()}
        if set(self._u_sym) != set(self.alphabet):
            raise ValueError("per-symbol matrices must cover the alphabet exactly")
        if not self.accepting <= set(range(self.dim)):
            raise ValueError(f"accepting set {set(self.accepting)} out of range")
        object.__setattr__(self, "_turns", self._closed_form_turns())
        # basis state 0 after the left marker
        object.__setattr__(self, "_start", tuple([row[0] for row in self._u_left]))

    def _closed_form_turns(self) -> dict | None:
        """{symbol: +1 or -1} when each symbol matrix is the angle's turn
        (+1) or its transpose (-1), entry for entry; else None."""
        if self.angle is None or self.dim < 2:
            return None
        c, s = self.angle.cos_sin(1)
        # the rows of turn(dim, c, s) and turn(dim, c, -s)
        fixed, pad = identity(self.dim)[:-2], (0.0,) * (self.dim - 2)
        forward = fixed + ((*pad, c, -s), (*pad, s, c))
        backward = fixed + ((*pad, c, s), (*pad, -s, c))
        turns = {}
        for sym, m in self._u_sym.items():
            if m == forward:
                turns[sym] = 1
            elif m == backward:
                turns[sym] = -1
            else:
                return None
        return turns

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

    def class_of(self, word):
        """The class key of `word`: words with equal keys share a final
        state, computed by the same floating-point operations. On the
        closed form it is the turn t = sum of turn(sym) * count, mod D;
        on any other machine it is `reduced_runs`."""
        turns = self._turns
        if turns is None:
            return self.reduced_runs(word)
        t = 0
        for sym, count in as_runs(word, self.alphabet):
            t += turns[sym] * count
        return t % self.angle.D

    def _class_keys(self, symbols, columns) -> list:
        """`class_of` of each word in `columns`, count columns aligned
        with `symbols` (as `promise._witness_columns` gives them): the
        k-th word counts column[k] of each symbol. Unchecked: the symbols
        must be distinct, the counts nonnegative ints, and a symbol
        outside the alphabet must count 0 in every word."""
        turns = self._turns
        if turns is None:
            # off the closed form a class costs matrix powers, which dwarf a word check
            return [
                self.reduced_runs(tuple([run for run in zip(symbols, word) if run[1]]))
                for word in zip(*columns)
            ]
        keys = [0] * len(columns[0])
        # one pass per symbol, over all words at once
        for sym, column in zip(symbols, columns):
            if sym in turns:
                turn = turns[sym]
                keys = [key + turn * n for key, n in zip(keys, column)]
        D = self.angle.D
        return [key % D for key in keys]

    def _class_lasso(self, symbols, steps) -> _Lasso | None:
        """The lasso of `class_of` along a line of words, each counting
        steps[k] more of symbols[k] than the one before (aligned as in
        `_class_keys`), with no tail: a key is a function of the counts
        mod D. None for a machine without an angle, whose key keeps every
        count, once some count moves."""
        if not any(steps):
            return _STILL
        if self.angle is None:
            return None
        D = self.angle.D
        turns = self._turns
        if turns is None:
            # `reduced_runs` reduces each count mod D on its own
            circle = _Lasso((0, D))
            return reduce(_Lasso.join, [circle.along(0, step) for step in steps])
        turn = sum([turns.get(sym, 0) * step for sym, step in zip(symbols, steps)]) % D
        # a built machine's turns cancel along every witness line
        return _Lasso((0, D)).along(0, turn) if turn else _STILL

    def final_state(self, word):
        """State vector after left-marker, word, right-marker on basis state
        0, as an ndarray."""
        return _ndarray(self._final(self.class_of(word))[0], writeable=True)

    def accept_probability(self, word) -> float:
        """Squared norm of the final state projected on the accepting set."""
        return self._final(self.class_of(word))[1]

    def _final(self, key) -> tuple[tuple[float, ...], float]:
        """(final state, acceptance probability) of the class `key`."""
        if self._turns is None:
            state = self._start
            for sym, count in key:
                state = apply(_power(self._u_sym[sym], count), state)
            state = apply(self._u_right, state)
            return state, self._measure(state)
        final = self._powers.get(key)
        if final is None:
            c, s = self.angle.cos_sin(key)
            *fixed, x, y = self._start
            state = apply(self._u_right, (*fixed, c * x - s * y, s * x + c * y))
            final = self._powers[key] = (state, self._measure(state))
        return final

    def _measure(self, state) -> float:
        """Squared norm of `state` on the accepting set, clamped to [0, 1]
        from within PROBABILITY_TOLERANCE of it, else ValueError; nan stays nan."""
        prob = float(sum([state[i] ** 2 for i in self.accepting]))
        if 0.0 <= prob <= 1.0:
            return prob
        if prob == prob and not -PROBABILITY_TOLERANCE <= prob <= 1.0 + PROBABILITY_TOLERANCE:
            raise ValueError(
                f"acceptance probability {prob:.6g} lies outside [0, 1] by more than "
                f"{PROBABILITY_TOLERANCE:g}: the matrices drift from orthogonal over this word"
            )
        return min(max(prob, 0.0), 1.0)

    def check_orthogonality(self) -> float:
        """Worst deviation of M^T M from the identity over all matrices.

        Anything above 1e-10 means the machine was not built from proper
        rotations and should be treated as a construction failure.
        """
        markers = _gram_off_identity(self._u_left) + _gram_off_identity(self._u_right)
        if self._turns is None:
            return _worst(markers + [
                deviation for m in self._u_sym.values() for deviation in _gram_off_identity(m)
            ])
        # each symbol matrix is turn(dim, c, +-s) entry for entry, so its
        # Gram deviations are 0 off the turned plane's diagonal (the
        # products c*s cancel exactly) and |c*c + s*s - 1| on it, the same
        # two products summed in either order, read off the last row
        # (..., +-s, c) of any one: (-s) * (-s) == s * s holds exactly
        if self._turns:
            row = next(iter(self._u_sym.values()))[-1]
            c, s = row[-1], row[-2]
            markers.append(abs(c * c + s * s - 1))
        return _worst(markers)

    def check_period(self) -> float:
        """Worst deviation of u^D from the identity over the per-symbol
        matrices, D = `angle.D`; 0.0 for a machine without an angle.

        Evaluation reduces every run count mod D, which is only right
        when D is a period of each symbol matrix.
        """
        if self.angle is None:
            return 0.0
        return _worst([
            deviation
            for m in self._u_sym.values()
            for deviation in _off_identity(_power(m, self.angle.D))
        ])

    def to_dict(self) -> dict:
        matrices = {"lmark": self._u_left, "rmark": self._u_right, **self._u_sym}
        return {
            "dim": self.dim,
            "alphabet": list(self.alphabet),
            "angle": None if self.angle is None else {"q": self.angle.q, "D": self.angle.D},
            "matrices": {name: [list(row) for row in m] for name, m in matrices.items()},
            "accepting": sorted(self.accepting),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return dump_json(self.to_dict(), indent)

    @classmethod
    def from_dict(cls, data: dict) -> "Moqfa":
        if not isinstance(data["matrices"], dict):
            raise ValueError("matrices must be an object mapping lmark, rmark and each symbol to a matrix")
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
        # non-finite entry reads as a nan deviation. A closed-form machine
        # has its period by construction, since it never powers a matrix
        orthogonality = machine.check_orthogonality()
        if not orthogonality <= ORTHOGONALITY_TOLERANCE:
            raise ValueError(f"machine matrices drift from orthogonal by {orthogonality:.3g}")
        if machine.angle is not None and machine._turns is None:
            period = machine.check_period()
            tolerance = ORTHOGONALITY_TOLERANCE + PERIOD_DRIFT_PER_STEP * machine.angle.D
            if not period <= min(tolerance, PERIOD_TOLERANCE_CAP):
                raise ValueError(
                    f"angle.D = {machine.angle.D} is not a period of the symbol "
                    f"matrices: |u^D - I| = {period:.3g}"
                )
        return machine

    @classmethod
    def from_json(cls, text: str) -> "Moqfa":
        return load_json(text, "machine", cls.from_dict)
