"""Minimal DFAs for the promise families and exhaustive minimality checks.

The classical solvers are cycle counters: a d-state cycle solves the
unary family when d divides N but not l, and the same d drives the
two-letter up/down counter for the binary families. The sizes d come
from `arith` (`claimed_size` names the formula per family). The
certificates re-prove minimality by enumerating every smaller machine
and watching each one misclassify some promise instance.
"""

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain, islice, product
from math import lcm

# all three are read off `dfa` too, so they stay bound here
from .arith import smallest_modulus, smallest_modulus_alt, smallest_nondivisor
from .promise import (
    BinaryPromiseSpec,
    UnaryPromiseSpec,
    _check_bounds,
    _witness_columns,
    enumerate_instances,
    family_of,
    spec_to_dict,
)
from .words import _STILL, _Lasso, as_alphabet, as_int, as_runs, dump_json, load_json, record_dict

DEFAULT_ENUMERATION_BUDGET = 10**6


class EnumerationBudgetError(RuntimeError):
    """Raised when a certificate search would exceed its machine budget."""


class _Table(tuple):
    """A transition table already checked to be rectangular with every
    target indexing one of its rows, so a `Dfa` copy that keeps it (as
    `dataclasses.replace` does) skips the check."""

    __slots__ = ()


@dataclass(frozen=True, eq=False)
class Dfa:
    """Table-driven deterministic automaton; delta[state][symbol_index].

    Runs of one symbol read its lazily filled table `_orbits[sym_index]`:
    state -> (tail, cycle, offset), the states before the orbit's cycle,
    the cycle as one list shared by all its states, and the index reached
    after the tail. `_orbits` is not an init field, so
    `dataclasses.replace` starts the copy with empty tables.
    """

    num_states: int
    alphabet: tuple[str, ...]
    delta: tuple[tuple[int, ...], ...]
    start: int
    accepting: frozenset[int]
    _orbits: dict = field(init=False, default_factory=lambda: defaultdict(dict), repr=False)

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        delta = self.delta if type(self.delta) is _Table else tuple(map(tuple, self.delta))
        if len(delta) != self.num_states:
            raise ValueError("transition table must have one row per state")
        if type(delta) is not _Table:
            targets = list(chain.from_iterable(delta))
            if len(set(map(len, delta))) > 1 or (
                targets and not (0 <= min(targets) and max(targets) < len(delta))
            ):
                raise ValueError("transition table entries out of range")
            delta = _Table(delta)
        if delta and len(delta[0]) != len(self.alphabet):
            raise ValueError("transition table entries out of range")
        object.__setattr__(self, "delta", delta)
        if not 0 <= self.start < self.num_states:
            raise ValueError(f"start state {self.start} out of range")
        if not all(map(range(self.num_states).__contains__, self.accepting)):
            raise ValueError("accepting states out of range")

    def _orbit(self, start: int, sym_index: int) -> tuple:
        """The table entry of `start`. A missing one is walked up to the
        first repeated state, whose cycle gives each state on it an entry,
        or up to the first state with an entry, whose cycle and offset it
        takes, with the walk and that state's tail as its tail. The states
        passed on the way get no entry: each would copy a tail."""
        table = self._orbits[sym_index]
        entry = table.get(start)
        if entry is not None:
            return entry
        seen = {}
        path = []
        state = start
        while state not in seen:
            entry = table.get(state)
            if entry is not None:
                tail, cycle, offset = entry
                path += tail
                break
            seen[state] = len(path)
            path.append(state)
            state = self.delta[state][sym_index]
        else:
            cycle = path[seen[state] :]
            del path[seen[state] :]
            for offset, on_cycle in enumerate(cycle):
                table[on_cycle] = ((), cycle, offset)
            offset = 0
        return table.setdefault(start, (path, cycle, offset))

    def _advance(self, state: int, sym_index: int, count: int) -> int:
        """Apply one symbol `count` times: index into the tail of the
        orbit, or reduce around its cycle; O(1) once the orbit is held."""
        tail, cycle, offset = self._orbit(state, sym_index)
        return tail[count] if count < len(tail) else cycle[(offset + count - len(tail)) % len(cycle)]

    def _final_states(self, symbols, columns) -> list:
        """The final state of each word in `columns`, count columns
        aligned with `symbols` (as `promise._witness_columns` gives them):
        the k-th word counts column[k] of each symbol. Unchecked: the
        counts must be nonnegative ints, and a symbol outside the alphabet
        must count 0 in every word."""
        states = [self.start] * len(columns[0])
        # one pass per symbol, over all words at once, reading the orbit
        # of each distinct state once
        for sym, column in zip(symbols, columns):
            if sym in self.alphabet:
                sym_index = self.alphabet.index(sym)
                walks = {}
                for state in set(states):
                    tail, cycle, offset = self._orbit(state, sym_index)
                    walks[state] = tail, len(tail), cycle, offset - len(tail), len(cycle)
                # `_advance`, inlined: a call per word slows the pass by a fifth
                states = [
                    tail[n] if n < length else cycle[(shift + n) % period]
                    for (tail, length, cycle, shift, period), n in zip(map(walks.__getitem__, states), column)
                ]
        return states

    def _witness_periods(self, spec, symbols, i_max: int, j_max: int) -> tuple:
        """The lassos of `_final_states` along i and along j over the
        witness grid of `promise._witness_columns`, read over `symbols`:
        two witnesses of one side whose index along the axis is at least
        the tail and differs by a multiple of the period, the other index
        equal, end in one state. Along i this holds for every j.

        A count of one symbol from state x follows the lasso of x's orbit.
        Unary witnesses count r + iN: the start's lasso along (r, N). A
        binary witness a^i b^(i+s), s >= 0 and s = l + jN on the BN
        no-side, follows the a-orbit's lasso joined with the b-lassos of
        the a-cycle along i, and the b-lassos along (l, N) of the states
        that some a^i reaches along j."""
        if isinstance(spec, UnaryPromiseSpec):
            tail, cycle, _ = self._orbit(self.start, self.alphabet.index(symbols[0]))
            return _Lasso((len(tail), len(cycle))).along(min(spec.r_yes, spec.r_no), spec.N), _STILL
        a, b = symbols
        b_index = self.alphabet.index(b)
        if a in self.alphabet:
            a_tail, a_cycle, a_offset = self._orbit(self.start, self.alphabet.index(a))
            # the a-cycle in the order that a^i meets it after the tail
            a_cycle = a_cycle[a_offset:] + a_cycle[:a_offset]
        else:  # the check of the alphabets has left only i = 0
            a_tail, a_cycle = (), [self.start]
        # along i: the a-orbit, and the b-orbit of each state on its cycle,
        # whose lasso is its shape, since the b-count steps by 1
        i_axis = self._joined(_Lasso((len(a_tail), len(a_cycle))), a_cycle, b_index, i_max, _Lasso)
        if spec.N is None:  # `B` witnesses have no j
            return i_axis, _STILL
        # along j: the b-orbit of each state that some a^i reaches
        reached = islice(chain(a_tail, a_cycle), i_max + 1)
        return i_axis, self._joined(
            _STILL, reached, b_index, j_max, lambda shape: _Lasso(shape).along(spec.l, spec.N)
        )

    def _joined(self, axis: _Lasso, states, sym_index: int, bound: int, lasso_of) -> _Lasso:
        """`axis` joined with `lasso_of` the shape (tail, cycle) of the orbit
        of each of `states`, once per shape, until it closes past `bound`:
        the orbits read are then among those that a sweep up to it reads."""
        shapes = set()
        for x in states:
            if axis.tail + axis.period - 1 > bound:
                break
            tail, cycle, _ = self._orbit(x, sym_index)
            shape = len(tail), len(cycle)
            if shape not in shapes:
                shapes.add(shape)
                axis = axis.join(lasso_of(shape))
        return axis

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
        return dump_json(self.to_dict(), indent)

    @classmethod
    def from_dict(cls, data: dict) -> "Dfa":
        # the field types are checked here, where the data comes from
        # outside, and not in __post_init__, which every DFA the package
        # builds itself (a minimal DFA, a counterexample, a copy) runs
        return cls(
            num_states=as_int(data["states"], "states"),
            alphabet=as_alphabet(data["alphabet"]),
            delta=tuple(tuple(as_int(s, "transition target") for s in row) for row in data["delta"]),
            start=as_int(data["start"], "start state"),
            accepting=frozenset(as_int(s, "accepting state") for s in data["accepting"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "Dfa":
        return load_json(text, "DFA", cls.from_dict)


def run_dfa(dfa: Dfa, word) -> bool:
    return dfa.accepts(word)


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
        return record_dict(
            self,
            spec=spec_to_dict,
            witness_bounds=list,
            counterexample=Dfa.to_dict,
            counterexample_words=lambda words: [list(w) if isinstance(w, tuple) else w for w in words],
        )


def _check_budget(counts, budget: int, d: int) -> None:
    """Add up the candidate counts per machine size below d and refuse as
    soon as the total passes the budget, before it grows any larger."""
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    total = 0
    for count in counts:
        total += count
        if total > budget:
            raise EnumerationBudgetError(
                f"candidate machines below d={d} states exceed budget {budget}"
            )


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


def _search(spec, claimed_d, witness_bounds, alphabet, sizes) -> MinimalityCertificate:
    """Count the machines tried up to the first that works, as trying
    them one by one would. `sizes` gives per machine size a pair
    (refuted, candidates): `refuted` machines, all refuted, counted at
    once, then the (delta, start, mask) candidates in turn, each counting
    the accepting subsets up to the first that works: all 2^m of them
    when `mask` is None (the candidate is refuted), else mask + 1, where
    `mask` is the candidate's yes-state mask from `_accepting_mask`, the
    first subset that classifies every witness. A counterexample is
    reported with the first yes- and no-witness of `spec`, the words of
    `enumerate_instances` at i = j = 0, which it separates."""
    checked = 0
    counterexample = None
    for refuted, candidates in sizes:
        checked += refuted
        for delta, start, mask in candidates:
            if mask is None:
                checked += 1 << len(delta)
                continue
            checked += mask + 1
            m = len(delta)
            counterexample = Dfa(m, alphabet, delta, start, frozenset(i for i in range(m) if mask >> i & 1))
            break
        if counterexample is not None:
            break
    return MinimalityCertificate(
        spec=spec,
        claimed_d=claimed_d,
        witness_bounds=witness_bounds,
        machines_checked=checked,
        certified=counterexample is None,
        counterexample=counterexample,
        counterexample_words=None
        if counterexample is None
        else tuple(word for word, _ in enumerate_instances(spec, 0, 0)),
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
    each size m < d together with every accepting subset. The witnesses
    are drawn from `promise._witness_columns` up to i = min(i_max, d - 2),
    and `witness_bounds` still reports i_max (2d + 2 by default): past
    d - 2 no new (state, label) pair comes. A split has k + t < d. A
    witness with i >= 1 is at least N >= d > k symbols long, so it ends
    on the cycle, in a state that repeats in i with a period dividing t.
    With k >= 1, t <= d - 2 and the witnesses up to i = t meet every
    pair; with k = 0 every witness ends on the cycle, and those up to
    i = t - 1 <= d - 2 do. The binary walk's tail is d - 2 as well.
    The accepting subsets of each split are resolved in closed form: a
    subset works iff it holds every yes-witness state and no no-witness
    state, so the first one in enumeration order is the union of the
    yes-witness states, and none works when a state ends both kinds. The
    reported machine count is identical to checking subsets one by one.
    A negative witness bound, then a negative budget, raises ValueError,
    the bound with the message of `promise._check_bounds`.
    """
    d = smallest_modulus(N, l)
    if i_max is None:
        i_max = 2 * d + 2
    _check_bounds(i_max, 0)
    spec = UnaryPromiseSpec(N, 0, l)
    _check_budget((m * 2**m for m in range(1, d)), budget, d)
    yes, no = _witness_columns(spec, min(i_max, d - 2), 0)
    # each yes-count next to its no-count, so a clash shows early
    counts, labels = [n for pair in zip(*yes, *no) for n in pair], (True, False) * len(yes[0])

    def candidates():
        # state i steps to i + 1 and the last one back to state `tail`,
        # so the walk from 0 is the path range(m) cycling from `tail`
        for m in range(1, d):
            for tail in range(m):
                delta = tuple((i + 1,) for i in range(m - 1)) + ((tail,),)
                yield delta, 0, _accepting_mask(zip(map(_Lasso((tail, m - tail)).index, counts), labels))

    return _search(spec, d, (i_max, None), ("a",), [(0, candidates())])


def _judged_sizes(d: int, length: int, lanes):
    """Per machine size m < d, the (refuted, candidates) pair of `_search`
    for the binary (table, start) candidates of m states, judged on the
    words a^(a-class) b^(b-class) of the witness triples, both classes
    below `length`: `lanes` holds per a-class the bitsets of the
    b-classes of its yes- and of its no-triples.

    The verdicts are read off bitsets over (state x, b-class) pairs, bit
    x * length + b_class, built once per size from walks of `length`
    steps for every column of targets: per b-column, one set per end
    state e of the pairs whose b-walk from x ends at e; per a-column and
    start, a yes-set and a no-set of the pairs (state after a^(a-class),
    b-class) of the triples. A candidate is refuted iff some end state's
    set meets both its yes- and its no-set; otherwise its yes-state mask
    holds the end states whose set meets its yes-set.

    So a verdict depends only on the b-column and on the (yes-set,
    no-set) pair of the a-column and start. Each size interns those pairs
    as classes and judges each (b-column, class) once. A size with no
    verdict but "refuted" counts its m^(2m) * m * 2^m machines at once;
    otherwise its tables are walked in enumeration order, reading the
    verdicts, up to the first candidate that works."""
    for m in range(1, d):
        states = range(m)
        # for a symbol with targets `column`: ends[column] holds
        # (1 << e, the pairs whose walk ends at e) per end state e, and
        # classes[column] the class of each start, its index in `pairs`,
        # the distinct (yes-set, no-set) of the pairs (state after
        # a^(a-class) from start, b-class) of the triples
        ends, classes, pairs = {}, {}, {}
        for column in product(states, repeat=m):
            bits = [0] * m
            classes[column] = per_start = []
            for x in states:
                # the first `length` states visited from x
                path = [x]
                for _ in range(length - 1):
                    path.append(column[path[-1]])
                for b_class, e in enumerate(path):
                    bits[e] |= 1 << (x * length + b_class)
                yes = no = 0
                for a_class, (yes_b, no_b) in lanes:
                    shift = path[a_class] * length
                    yes |= yes_b << shift
                    no |= no_b << shift
                per_start.append(pairs.setdefault((yes, no), len(pairs)))
            ends[column] = [(1 << e, end_bits) for e, end_bits in enumerate(bits)]
        # verdicts[b_column][class]: the yes-state mask, or None (refuted)
        # once an end state's set meets both of the class's sets
        verdicts = {}
        works = False
        for b_column, b_ends in ends.items():
            verdicts[b_column] = row = []
            for yes, no in pairs:
                mask = 0
                for e_bit, end_bits in b_ends:
                    if end_bits & yes:
                        if end_bits & no:
                            mask = None
                            break
                        mask |= e_bit
                row.append(mask)
                works |= mask is not None
        if not works:
            yield m ** (2 * m) * m * 2**m, ()
            continue
        # rows in the order of product(states, repeat=2 * m) over the flat
        # table a_0 b_0 a_1 b_1 ...; some candidate works, so `_search`
        # stops in this walk, before the next size rebinds its tables
        yield 0, (
            (delta, start, verdicts[b_column][k])
            for delta in product(tuple(product(states, repeat=2)), repeat=m)
            for a_column, b_column in [zip(*delta)]
            for start, k in enumerate(classes[a_column])
        )


def certify_minimality_binary(
    spec: BinaryPromiseSpec,
    i_max: int = 64,
    j_max: int = 8,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> MinimalityCertificate:
    """Certify the binary size formulas by full enumeration: every
    transition table, start state, and accepting subset with fewer than
    d states is judged on the witnesses of `promise._witness_columns`.

    The witnesses are read as classes, not words. Below d states, one
    symbol leads any state through a tail of at most T = d - 2 states
    into a cycle whose length divides L = lcm(1..d-1). So each count
    follows the universal lasso `walk` = (T, L): a^i b^m ends where
    a^walk.index(i) b^walk.index(m) does, in every candidate. Past
    `walk.last(i_max)` along i, and past `walk.along(l, N).last(j_max)`
    along j, where the b-count i + l + jN has passed T, each (a-class,
    b-class, label) triple repeats one met before. So the witnesses of
    each side are drawn up to those bounds, and each triple is kept once.

    The accepting subsets of each (table, start) are resolved in closed
    form as in `certify_minimality_unary`, which depends neither on the
    order nor on the repetition of the witnesses: the classes give the
    verdict, counterexample and machine count that every witness word,
    and checking subsets one by one, would give.

    `_judged_sizes` judges the triples with bitsets over (state, b-class)
    pairs, and judges each class of candidates once, not each candidate:
    a verdict depends only on the table's b-column and on the (yes-set,
    no-set) pair that its a-column and start give the triples. At d = 4,
    m = 3 that is 27 b-columns x 33 such pairs in place of 2 187
    candidates. A size whose verdicts are all "refuted" counts its
    machines at once, and a size where some candidate works is walked in
    enumeration order, so the count and the counterexample are those of
    judging every candidate in turn.

    Candidate counts explode as m^(2m); the default budget admits d <= 4
    and anything larger raises EnumerationBudgetError up front, once the
    bounds are checked. A negative budget raises ValueError.
    """
    _check_bounds(i_max, j_max)
    d, _ = claimed_size(spec)
    _check_budget((m ** (2 * m) * m * 2**m for m in range(1, d)), budget, d)
    walk = _Lasso((d - 2, lcm(*range(1, d))))
    j_walk = walk.along(spec.l, spec.N or 0)  # `B` witnesses have no j
    # per a-class of the triples, the bitsets of the b-classes of its
    # yes-triples and of its no-triples
    lanes = defaultdict(lambda: [0, 0])
    for side, columns in enumerate(_witness_columns(spec, walk.last(i_max), j_walk.last(j_max))):
        for n_a, n_b in zip(*columns):
            lanes[walk.index(n_a)][side] |= 1 << walk.index(n_b)
    sizes = _judged_sizes(d, walk.tail + walk.period, list(lanes.items()))
    return _search(spec, d, (i_max, j_max), ("a", "b"), sizes)


def _certify(spec, i_max: int | None, j_max: int, budget: int) -> MinimalityCertificate:
    """The minimality certificate of any promise spec: an `A` spec is
    certified on its offset form (N, gap), at witness bound i_max (None:
    its default 2d + 2), a `B` or `BN` spec at (i_max, j_max)."""
    if family_of(spec) == "A":
        return certify_minimality_unary(spec.N, spec.gap, i_max, budget)
    return certify_minimality_binary(spec, i_max, j_max, budget)
