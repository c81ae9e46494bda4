"""Word representations shared by the quantum and classical simulators,
and the JSON codec with the field checks that every loader shares.

A word can be given three ways:

* an ``int`` n, meaning the unary word made of n copies of the machine's
  single symbol;
* a ``str`` of symbols;
* a sequence of ``(symbol, count)`` run-length pairs, e.g.
  ``(("a", 2), ("b", 6))`` for the word aabbbbbb.

Run-length pairs are the cheap form: promise instances with millions of
repeated symbols never need to be materialized.

All JSON goes through `load_json` and `dump_json`, and loaders check
untrusted fields with `as_int`, `as_alphabet` and `int_fields`.
"""

import json
import math
from dataclasses import fields
from itertools import groupby
from operator import index, itemgetter


def as_runs(word, alphabet) -> tuple[tuple[str, int], ...]:
    """Normalize `word` to run-length pairs over `alphabet`.

    Any non-bool integer type (a numpy integer, say) counts as a length.
    Adjacent runs of the same symbol are merged and zero-count runs are
    dropped. Raises ValueError for symbols outside `alphabet`, negative
    or non-integer counts (bools included), a run that is not a
    (symbol, count) pair, a bool word, an int word on a multi-symbol
    alphabet, or a word that is neither an integer, a str nor iterable.
    """
    if isinstance(word, bool):
        raise ValueError(f"a bool is not a word: {word!r}")
    if isinstance(word, int):
        if word < 0:
            raise ValueError(f"negative word length {word}")
        if len(alphabet) != 1:
            raise ValueError(
                "integer words are only meaningful for single-symbol alphabets"
            )
        return ((alphabet[0], word),) if word else ()
    if isinstance(word, str):
        pairs = [(sym, len(list(grp))) for sym, grp in groupby(word)]
    elif isinstance(word, tuple):
        pairs = word
    elif hasattr(word, "__index__"):
        return as_runs(index(word), alphabet)
    else:
        try:
            pairs = iter(word)
        except TypeError:
            raise ValueError(f"not a word: {word!r}") from None
    runs = []
    for run in pairs:
        try:
            sym, count = run
        except (TypeError, ValueError):
            raise ValueError(f"not a (symbol, count) run: {run!r}") from None
        if type(count) is not int:
            count = as_int(count, "run count")
        if sym not in alphabet:
            raise ValueError(f"symbol {sym!r} not in alphabet {alphabet}")
        if count < 0:
            raise ValueError(f"negative run count {count} for symbol {sym!r}")
        if count == 0:
            continue
        if runs and runs[-1][0] == sym:
            runs[-1] = (sym, runs[-1][1] + count)
        else:
            runs.append((sym, count))
    return tuple(runs)


def as_int(value, what: str) -> int:
    """`value` as an int. Any non-bool integer type (a numpy integer, say)
    is accepted; anything else raises ValueError naming `what`."""
    if isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def int_fields(record, names, prefix: str = "") -> None:
    """Store each named field of a frozen dataclass record as an int,
    through `as_int`; the error names the field after `prefix`."""
    for name in names:
        value = getattr(record, name)
        if type(value) is not int:
            object.__setattr__(record, name, as_int(value, prefix + name))


def as_alphabet(symbols) -> tuple[str, ...]:
    """A loaded alphabet as a tuple: it must be a list or tuple (a JSON
    array) of distinct one-character strs, else ValueError. A repeated
    symbol would shadow its later copies, and a longer one could never
    be read from a str word."""
    if (
        isinstance(symbols, (list, tuple))
        and all(isinstance(sym, str) and len(sym) == 1 for sym in symbols)
        and len(set(symbols)) == len(symbols)
    ):
        return tuple(symbols)
    raise ValueError(f"alphabet must be an array of distinct one-character strings, got {symbols!r}")


class _OneCharacterStrs:
    """The alphabet of every one-character str, the widest one that
    `as_alphabet` allows: what a run may name when no machine's alphabet
    is given."""

    def __contains__(self, sym) -> bool:
        return isinstance(sym, str) and len(sym) == 1

    def __repr__(self) -> str:
        return "<one-character strings>"


_ANY_SYMBOL = _OneCharacterStrs()


def _runs_of(word):
    """A non-str word as `as_runs` checks it: an integer word through its
    length rule, anything else as runs over every one-character str."""
    return as_runs(word, ("a",) if hasattr(word, "__index__") else _ANY_SYMBOL)


def materialize(word) -> str:
    """Expand a run-length or integer word into its literal string. A
    non-str word is checked as `as_runs` checks it, each run's symbol
    being a one-character str."""
    if isinstance(word, str):
        return word
    return "".join(sym * count for sym, count in _runs_of(word))


def word_length(word) -> int:
    """Number of symbols in a str, run-length or integer word, checked
    as in `materialize`."""
    if isinstance(word, str):
        return len(word)
    return sum(count for _, count in _runs_of(word))


class _Lasso(tuple):
    """A walk of `tail` steps into a cycle of `period` positions, as a DFA
    orbit or a rotation's class key (tail 0, period D) walks a count:
    after n and n + period steps it stands at one position if n >= tail.
    Built as _Lasso((tail, period)): no Python __new__ keeps it cheap."""

    __slots__ = ()
    tail = property(itemgetter(0))
    period = property(itemgetter(1))

    def index(self, n: int) -> int:
        """The position after n steps, numbered by the first count to reach it."""
        tail, period = self
        return n if n < tail else tail + (n - tail) % period

    def along(self, lowest: int, step: int) -> "_Lasso":
        """The lasso in k of the position after lowest + k * step steps,
        for step >= 0; a step of 0 never moves."""
        if not step:
            return _STILL
        tail, period = self
        return _Lasso((max(0, -((lowest - tail) // step)), period // math.gcd(step, period)))

    def join(self, other: "_Lasso") -> "_Lasso":
        """The lasso of the pair of positions of two walks taken in step."""
        (tail, period), (other_tail, other_period) = self, other
        return _Lasso((max(tail, other_tail), math.lcm(period, other_period)))

    def last(self, bound: int) -> int:
        """The last count a walk must take to meet all it meets up to `bound`."""
        return min(bound, self.tail + self.period - 1)


# the walk that never moves, the identity of `join`
_STILL = _Lasso((0, 1))


def _worst(deviations) -> float:
    """The largest of 0.0 and the deviations, nan if any is nan (max()
    would drop it)."""
    worst = 0.0
    for deviation in deviations:
        if not deviation <= worst:  # larger, or nan
            if deviation != deviation:
                return math.nan
            worst = deviation
    return worst


def load_json(text, what: str, build):
    """`build` applied to the decoded `text`. Undecodable or too deeply
    nested text, and a KeyError, TypeError or OverflowError from `build`,
    become a ValueError naming `what`; `build`'s ValueErrors pass through."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"malformed {what} JSON: {exc}") from exc
    try:
        return build(data)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"{what} JSON missing or malformed field: {exc}") from exc


def dump_json(data, indent: int | None = 2) -> str:
    """The JSON text of `data`, keys sorted, so equal data gives equal bytes."""
    return json.dumps(data, indent=indent, sort_keys=True)


def record_dict(record, **convert) -> dict:
    """The fields of a dataclass record by name; each value whose field is
    named in `convert` goes through that function unless it is None."""
    data = {f.name: getattr(record, f.name) for f in fields(record)}
    for name, to_json_value in convert.items():
        if data[name] is not None:
            data[name] = to_json_value(data[name])
    return data
