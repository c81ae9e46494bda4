"""Minimal DFAs for the promise families and exhaustive minimality checks.

The classical solvers are cycle counters: a d-state cycle solves the
unary family when d divides N but not l, and the same d drives the
two-letter up/down counter for the binary families. The certificates
re-prove minimality by enumerating every smaller machine and watching
each one misclassify some promise instance.
"""

import json
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

from .promise import (
    BinaryPromiseSpec,
    Classification,
    UnaryPromiseSpec,
    enumerate_instances,
    family_of,
    spec_to_dict,
)
from .words import as_alphabet, as_int, as_runs

DEFAULT_ENUMERATION_BUDGET = 10**6


class EnumerationBudgetError(RuntimeError):
    """Raised when a certificate search would exceed its machine budget."""


def _orbit_index(count: int, length: int, cycle_start: int) -> int:
    """Position after `count` steps along a path of `length` states whose
    entries from `cycle_start` on repeat forever: the count itself inside
    the path, reduced around the cycle beyond it."""
    if count < length:
        return count
    return cycle_start + (count - cycle_start) % (length - cycle_start)


@dataclass(frozen=True, eq=False)
class Dfa:
    """Table-driven deterministic automaton; delta[state][symbol_index].

    Runs of one symbol follow a cached orbit per (state, symbol), so the
    cache holds at most num_states * len(alphabet) entries. It is not an
    init field, so `dataclasses.replace` starts the copy with an empty one.
    """

    num_states: int
    alphabet: tuple[str, ...]
    delta: tuple[tuple[int, ...], ...]
    start: int
    accepting: frozenset[int]
    _orbits: dict = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        object.__setattr__(self, "delta", tuple(tuple(row) for row in self.delta))
        if len(self.delta) != self.num_states:
            raise ValueError("transition table must have one row per state")
        for row in self.delta:
            if len(row) != len(self.alphabet) or not all(0 <= s < self.num_states for s in row):
                raise ValueError("transition table entries out of range")
        if not 0 <= self.start < self.num_states:
            raise ValueError(f"start state {self.start} out of range")
        if not self.accepting <= set(range(self.num_states)):
            raise ValueError("accepting states out of range")

    def _orbit(self, start: int, sym_index: int) -> tuple[list[int], int]:
        """Walk one symbol from `start` up to the first repeated state and
        cache the path with the index where its cycle starts."""
        seen = {}
        path = []
        state = start
        while state not in seen:
            seen[state] = len(path)
            path.append(state)
            state = self.delta[state][sym_index]
        orbit = self._orbits[start, sym_index] = (path, seen[state])
        return orbit

    def _advance(self, state: int, sym_index: int, count: int) -> int:
        """Apply one symbol `count` times: index into the tail of the
        orbit, or reduce around its cycle; O(1) once the orbit is cached."""
        orbit = self._orbits.get((state, sym_index))
        path, cycle_start = orbit if orbit is not None else self._orbit(state, sym_index)
        return path[_orbit_index(count, len(path), cycle_start)]

    def final_state_of(self, word) -> int:
        state = self.start
        for sym, count in as_runs(word, self.alphabet):
            state = self._advance(state, self.alphabet.index(sym), count)
        return state

    def accepts(self, word) -> bool:
        """True iff the word (int length, str, or runs) ends in an accepting state."""
        return self.final_state_of(word) in self.accepting

    def to_dict(self) -> dict:
        return {
            "states": self.num_states,
            "alphabet": list(self.alphabet),
            "delta": [list(row) for row in self.delta],
            "start": self.start,
            "accepting": sorted(self.accepting),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "Dfa":
        # the field types are checked here and not in __post_init__, which
        # the binary certificate runs once per transition table
        return cls(
            num_states=as_int(data["states"], "states"),
            alphabet=as_alphabet(data["alphabet"]),
            delta=tuple(tuple(as_int(s, "transition target") for s in row) for row in data["delta"]),
            start=as_int(data["start"], "start state"),
            accepting=frozenset(as_int(s, "accepting state") for s in data["accepting"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "Dfa":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed DFA JSON: {exc}") from exc
        try:
            return cls.from_dict(data)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"DFA JSON missing or malformed field: {exc}") from exc


def run_dfa(dfa: Dfa, word) -> bool:
    return dfa.accepts(word)


def smallest_modulus(N: int, l: int) -> int:
    """Smallest d >= 2 dividing N but not l; the unary minimal-DFA size.

    Always exists: d = N itself divides N and cannot divide 0 < l < N.
    """
    if not 0 < l < N:
        raise ValueError(f"need 0 < l < N, got l={l}, N={N}")
    for d in range(2, N + 1):
        if N % d == 0 and l % d != 0:
            return d
    raise AssertionError("unreachable: N divides N and not l")


def smallest_nondivisor(l: int) -> int:
    """Smallest d >= 2 that does not divide l."""
    if l < 1:
        raise ValueError(f"need l >= 1, got {l}")
    d = 2
    while l % d == 0:
        d += 1
    return d


@lru_cache(maxsize=None)
def _reachable_offsets(N: int, d: int) -> frozenset:
    # residues (-p*N) mod d over one full period of p; l hits one of these
    # exactly when some p*N + l is divisible by d
    return frozenset((-p * N) % d for p in range(d))


def smallest_modulus_alt(N: int, l: int) -> int:
    """Smallest d >= 2 with p*N + l never divisible by d, by brute force.

    Checking p over [0, d) suffices: (p*N + l) mod d is periodic in p
    with period dividing d. Kept deliberately independent of
    `smallest_modulus` so the two characterizations can be compared.
    """
    if not 0 < l < N:
        raise ValueError(f"need 0 < l < N, got l={l}, N={N}")
    d = 2
    while l % d in _reachable_offsets(N, d):
        d += 1
    return d


def claimed_size(spec) -> tuple[int, str]:
    """The minimal DFA size for a promise spec and the name of the size
    formula that gives it: smallest_nondivisor(l) for `B`, otherwise
    smallest_modulus of the modulus and the offset or surplus."""
    family = family_of(spec)
    if family == "A":
        return smallest_modulus(spec.N, spec.gap), "smallest_modulus"
    if family == "B":
        return smallest_nondivisor(spec.l), "smallest_nondivisor"
    return smallest_modulus(spec.N, spec.l), "smallest_modulus"


def build_min_dfa(spec) -> Dfa:
    """The claimed_size(spec)-state solver for any promise spec: the
    binary up/down counter, or the unary cycle counter started r_yes
    steps back, so that the yes-lengths r_yes + iN end in state 0 and
    the no-lengths, l mod d steps further, do not."""
    d, _ = claimed_size(spec)
    if family_of(spec) != "A":
        return build_binary_min_dfa(d)
    return Dfa(
        num_states=d,
        alphabet=("a",),
        delta=tuple(((i + 1) % d,) for i in range(d)),
        start=(-spec.r_yes) % d,
        accepting=frozenset({0}),
    )


def build_unary_min_dfa(N: int, l: int) -> Dfa:
    """The d-state single-cycle solver for the unary offset family,
    d = smallest_modulus(N, l): step forward mod d, accept the states
    hit by multiples of N."""
    return build_min_dfa(UnaryPromiseSpec(N, 0, l))


def build_binary_min_dfa(d: int) -> Dfa:
    """The d-state up/down counter: `a` steps forward, `b` steps back,
    accept when the counts agree mod d.

    With d = smallest_nondivisor(l) it solves the fixed-surplus family;
    with d = smallest_modulus(N, l) the modular-surplus one.
    """
    if d < 2:
        raise ValueError(f"need at least 2 states, got {d}")
    return Dfa(
        num_states=d,
        alphabet=("a", "b"),
        delta=tuple(((i + 1) % d, (i - 1) % d) for i in range(d)),
        start=0,
        accepting=frozenset({0}),
    )


@dataclass(frozen=True)
class MinimalityCertificate:
    """Outcome of an exhaustive search below a claimed machine size.

    Certified means every enumerated smaller DFA misclassified some
    witness word. A counterexample is a smaller DFA that classified all
    witnesses correctly, reported with one (yes, no) witness pair it
    separates; finding one would refute the size formula.
    """

    spec: object
    claimed_d: int
    witness_bounds: tuple[int, int | None]
    machines_checked: int
    certified: bool
    counterexample: Dfa | None = None
    counterexample_words: tuple | None = None

    def to_dict(self) -> dict:
        return {
            "spec": spec_to_dict(self.spec),
            "claimed_d": self.claimed_d,
            "witness_bounds": list(self.witness_bounds),
            "machines_checked": self.machines_checked,
            "certified": self.certified,
            "counterexample": None if self.counterexample is None else self.counterexample.to_dict(),
            "counterexample_words": None
            if self.counterexample_words is None
            else [list(w) if isinstance(w, tuple) else w for w in self.counterexample_words],
        }


def _check_budget(total: int, budget: int, d: int) -> None:
    if total > budget:
        raise EnumerationBudgetError(
            f"{total} candidate machines exceed budget {budget} for d={d}"
        )


def _letter_counts(runs) -> tuple[int, int]:
    counts = dict(runs)
    return counts.get("a", 0), counts.get("b", 0)


def _accepting_mask(ends) -> int | None:
    """Fold (final state, is_yes) pairs into the yes-state mask, or None
    as soon as some state ends both a yes- and a no-witness.

    A subset classifies every witness iff it holds each yes-state and no
    no-state, so the first one to work in the order 0, 1, ... is the
    yes-state mask itself, and none works once the masks meet.
    """
    yes_mask = no_mask = 0
    for state, is_yes in ends:
        if is_yes:
            yes_mask |= 1 << state
        else:
            no_mask |= 1 << state
        if yes_mask & no_mask:
            return None
    return yes_mask


def _search(spec, claimed_d, witness_bounds, alphabet, candidates, words) -> MinimalityCertificate:
    """Resolve every accepting subset of each (delta, start, ends)
    candidate in closed form; the count is the one that trying subsets
    one by one would reach. `ends` may be lazy: each is used up before
    the next candidate is drawn."""
    checked = 0
    for delta, start, ends in candidates:
        m = len(delta)
        mask = _accepting_mask(ends)
        if mask is None:
            checked += 2**m
            continue
        checked += mask + 1
        return MinimalityCertificate(
            spec=spec,
            claimed_d=claimed_d,
            witness_bounds=witness_bounds,
            machines_checked=checked,
            certified=False,
            counterexample=Dfa(m, alphabet, delta, start, frozenset(i for i in range(m) if mask >> i & 1)),
            counterexample_words=words,
        )
    return MinimalityCertificate(
        spec=spec,
        claimed_d=claimed_d,
        witness_bounds=witness_bounds,
        machines_checked=checked,
        certified=True,
    )


def certify_minimality_unary(
    N: int,
    l: int,
    i_max: int | None = None,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> MinimalityCertificate:
    """Certify that no unary DFA below d = smallest_modulus(N, l) states
    solves the offset family, on witnesses a^{iN} and a^{iN+l}, i <= i_max.

    Every unary DFA's reachable part is a tail of k states feeding a
    cycle of t states, so machines are enumerated as (k, t) splits of
    each size m < d together with every accepting subset. The default
    i_max = 2d + 2 walks past any tail and around any cycle at least
    once. The accepting subsets of each split are resolved in closed
    form: a subset works iff it holds every yes-witness state and no
    no-witness state, so the first one in enumeration order is the
    union of the yes-witness states, and none works when a state ends
    both kinds. The reported machine count is identical to checking
    subsets one by one.
    """
    d = smallest_modulus(N, l)
    if i_max is None:
        i_max = 2 * d + 2
    if i_max < 0:
        raise ValueError("witness bound must be nonnegative")
    spec = UnaryPromiseSpec(N, 0, l)
    _check_budget(sum(m * 2**m for m in range(1, d)), budget, d)
    witnesses = [(i * N + r, r == 0) for i in range(i_max + 1) for r in (0, l)]

    def candidates():
        # state i steps to i + 1 and the last one back to state `tail`,
        # so the walk from 0 is the path range(m) cycling from `tail`
        for m in range(1, d):
            for tail in range(m):
                delta = tuple((i + 1,) for i in range(m - 1)) + ((tail,),)
                yield delta, 0, ((_orbit_index(n, m, tail), is_yes) for n, is_yes in witnesses)

    return _search(spec, d, (i_max, None), ("a",), candidates(), (0, l))


def _binary_candidate_count(d: int) -> int:
    return sum(m ** (2 * m) * m * 2**m for m in range(1, d))


def certify_minimality_binary(
    spec: BinaryPromiseSpec,
    i_max: int = 64,
    j_max: int = 8,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> MinimalityCertificate:
    """Certify the binary size formulas by full enumeration: every
    transition table, start state, and accepting subset with fewer than
    d states is judged on the witnesses from enumerate_instances.

    One `Dfa` per transition table serves all of its start states from
    its orbit cache. The accepting subsets of each (table, start) are
    resolved in closed form as in `certify_minimality_unary`: the first
    that works is the union of the yes-witness states, unless a state
    ends both a yes- and a no-witness. The reported machine count is
    identical to checking subsets one by one.

    Candidate counts explode as m^(2m); the default budget admits d <= 4
    and anything larger raises EnumerationBudgetError up front.
    """
    d, _ = claimed_size(spec)
    _check_budget(_binary_candidate_count(d), budget, d)
    instances = enumerate_instances(spec, i_max, j_max)
    witnesses = [(_letter_counts(word), label is Classification.YES) for word, label in instances]
    words = tuple(
        next(word for word, label in instances if label is kind)
        for kind in (Classification.YES, Classification.NO)
    )

    def candidates():
        for m in range(1, d):
            for flat in product(range(m), repeat=2 * m):
                dfa = Dfa(m, ("a", "b"), zip(flat[::2], flat[1::2]), 0, ())
                advance = dfa._advance
                for start in range(m):
                    yield dfa.delta, start, (
                        (advance(advance(start, 0, n_a), 1, n_b), is_yes)
                        for (n_a, n_b), is_yes in witnesses
                    )

    return _search(spec, d, (i_max, j_max), ("a", "b"), candidates(), words)
