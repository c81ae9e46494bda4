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
            count = _count(count)
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


def _count(count) -> int:
    """A run count that is not exactly an int, as an int if it is integral."""
    if isinstance(count, bool):
        raise ValueError(f"run count must be an integer, got {count!r}")
    try:
        return index(count)
    except TypeError:
        raise ValueError(f"run count must be an integer, got {count!r}") from None


def materialize(word) -> str:
    """Expand a run-length or int word into its literal string."""
    if isinstance(word, str):
        return word
    if isinstance(word, int):
        return "a" * word
    return "".join(sym * count for sym, count in word)


def word_length(word) -> int:
    if isinstance(word, int):
        return word
    if isinstance(word, str):
        return len(word)
    return sum(count for _, count in word)
