"""Word representations shared by the quantum and classical simulators.

A word can be given three ways:

* an ``int`` n, meaning the unary word made of n copies of the machine's
  single symbol;
* a ``str`` of symbols;
* a sequence of ``(symbol, count)`` run-length pairs, e.g.
  ``(("a", 2), ("b", 6))`` for the word aabbbbbb.

Run-length pairs are the cheap form: promise instances with millions of
repeated symbols never need to be materialized.
"""

from itertools import groupby
from operator import index


def as_runs(word, alphabet) -> tuple[tuple[str, int], ...]:
    """Normalize `word` to run-length pairs over `alphabet`.

    Any non-bool integer type (a numpy integer, say) counts as a length.
    Adjacent runs of the same symbol are merged and zero-count runs are
    dropped. Raises ValueError for symbols outside `alphabet`, negative
    or non-integer counts (bools included), a bool word, an int word
    on a multi-symbol alphabet, or a word that is neither an integer, a
    str nor iterable.
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
        pairs = [(sym, sum(1 for _ in grp)) for sym, grp in groupby(word)]
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
    for sym, count in pairs:
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


def _runs_of(word):
    """A non-str word as runs: an integer word through the length rule of
    `as_runs`, anything else as given, so long as it is iterable."""
    if hasattr(word, "__index__"):
        return as_runs(word, ("a",))
    try:
        return iter(word)
    except TypeError:
        raise ValueError(f"not a word: {word!r}") from None


def materialize(word) -> str:
    """Expand a run-length or integer word into its literal string."""
    if isinstance(word, str):
        return word
    return "".join(sym * count for sym, count in _runs_of(word))


def word_length(word) -> int:
    """Number of symbols in a str, run-length or integer word."""
    if isinstance(word, str):
        return len(word)
    return sum(count for _, count in _runs_of(word))
