"""Promise-problem families over one- and two-letter alphabets.

The unary family fixes a modulus N and two residues: words a^n with
n congruent to the yes-residue are yes-instances, those hitting the
no-residue are no-instances, everything else falls outside the promise.
The binary families share the yes-language {a^i b^i} and differ in the
no-language: b-surplus exactly l, or surplus l modulo N.
"""

import enum
from dataclasses import dataclass

from .words import as_int, as_runs, int_fields

DEFAULT_I_MAX = 64
DEFAULT_J_MAX = 8


class Classification(enum.Enum):
    YES = "yes"
    NO = "no"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class UnaryPromiseSpec:
    """Unary instance family: yes iff n ≡ r_yes (mod N), no iff n ≡ r_no.

    The offset form (yes-words a^{iN}, no-words a^{iN+l}) is the special
    case r_yes = 0, r_no = l.
    """

    N: int
    r_yes: int
    r_no: int

    def __post_init__(self):
        int_fields(self, ("N", "r_yes", "r_no"))
        if self.N < 2:
            raise ValueError(f"modulus must be at least 2, got {self.N}")
        for name in ("r_yes", "r_no"):
            r = getattr(self, name)
            if not 0 <= r < self.N:
                raise ValueError(f"{name}={r} outside [0, {self.N})")
        if self.r_yes == self.r_no:
            raise ValueError("yes- and no-residues must differ")

    @property
    def gap(self) -> int:
        """Residue gap l = (r_no - r_yes) mod N; drives machine synthesis."""
        return (self.r_no - self.r_yes) % self.N


@dataclass(frozen=True)
class BinaryPromiseSpec:
    """Binary instance family over {a, b} with yes-words a^i b^i.

    With N unset, no-words are a^i b^{i+l}. With N set (0 < l < N),
    no-words are a^i b^{i+jN+l} for all j >= 0.
    """

    l: int
    N: int | None = None

    def __post_init__(self):
        int_fields(self, ("l",) if self.N is None else ("l", "N"))
        if self.l < 1:
            raise ValueError(f"surplus must be positive, got {self.l}")
        if self.N is not None and not self.l < self.N:
            raise ValueError(f"need l < N, got l={self.l}, N={self.N}")


def classify_unary(spec: UnaryPromiseSpec, n: int) -> Classification:
    """Classify the unary word of length n. Total; depends on n mod N only."""
    if n < 0:
        raise ValueError(f"negative word length {n}")
    r = n % spec.N
    if r == spec.r_yes:
        return Classification.YES
    if r == spec.r_no:
        return Classification.NO
    return Classification.OUTSIDE


def classify_binary(spec: BinaryPromiseSpec, word) -> Classification:
    """Classify a word over {a, b}; str or run-length form accepted.

    Anything not shaped a^i b^m is outside the promise. Symbols other
    than a/b are an input error.
    """
    runs = as_runs(word, ("a", "b"))
    shapes = tuple(sym for sym, _ in runs)
    if shapes not in ((), ("a",), ("b",), ("a", "b")):
        return Classification.OUTSIDE
    counts = dict(runs)
    i, m = counts.get("a", 0), counts.get("b", 0)
    if m == i:
        return Classification.YES
    surplus = m - i - spec.l
    if spec.N is None:
        if surplus == 0:
            return Classification.NO
    elif surplus >= 0 and surplus % spec.N == 0:
        return Classification.NO
    return Classification.OUTSIDE


def _witness_columns(spec, i_max: int = DEFAULT_I_MAX, j_max: int = DEFAULT_J_MAX) -> tuple:
    """The yes-witnesses and the no-witnesses of `enumerate_instances`,
    as two tuples of count columns aligned with `_witness_symbols`: the
    k-th word of a side counts column[k] of each symbol. `A` has one
    column per side, the lengths r + iN for its residue r; `B` and `BN`
    have the a-counts i and the b-counts i + s, over the shifts s (0 on
    the yes-side, l or l + jN on the no-side). The one witness form: the
    sweeps and both certificates read it, and `enumerate_instances`
    sorts it into words."""
    family = _grid_family(spec, i_max, j_max)
    if family == "A":
        return tuple((range(r, r + (i_max + 1) * spec.N, spec.N),) for r in (spec.r_yes, spec.r_no))
    i = range(i_max + 1)
    shifts = [spec.l] if family == "B" else [j * spec.N + spec.l for j in range(j_max + 1)]
    return (i, i), (list(i) * len(shifts), [n + s for s in shifts for n in i])


def _grid_family(spec, i_max: int, j_max: int) -> str:
    """The family of `spec`, once the witness bounds are checked."""
    family = family_of(spec)
    _check_bounds(i_max, j_max)
    return family


def _check_bounds(i_max: int, j_max: int) -> None:
    if i_max < 0 or j_max < 0:
        raise ValueError("instance bounds must be nonnegative")


def _witness_sizes(spec, i_max: int, j_max: int) -> tuple[int, int]:
    """The numbers of yes- and of no-witnesses in `_witness_columns`,
    without building them."""
    family = _grid_family(spec, i_max, j_max)
    return i_max + 1, (i_max + 1) * (j_max + 1 if family == "BN" else 1)


def _witness_steps(spec) -> tuple:
    """How the counts of `_witness_columns` grow with the generator
    indices: (i-steps, j-steps), each aligned with `_witness_symbols`.
    Raising i by one adds i-steps[k] of the k-th symbol to a witness, and
    raising j by one adds j-steps[k]."""
    family = family_of(spec)
    if family == "A":
        return (spec.N,), (0,)
    return (1, 1), (0, 0 if family == "B" else spec.N)


def _witness_symbols(spec, alphabet) -> tuple:
    """The symbols that the counts of `_witness_columns` count, read over
    `alphabet`: its first symbol for `A`, since a unary word names none."""
    return alphabet[:1] if isinstance(spec, UnaryPromiseSpec) else ("a", "b")


def enumerate_instances(spec, i_max: int = DEFAULT_I_MAX, j_max: int = DEFAULT_J_MAX):
    """List (word, label) pairs with generator indices i <= i_max, j <= j_max.

    Unary words come back as int lengths, binary words as run-length
    pairs. Sorted by word length, ties broken lexicographically; every
    word is a yes- or no-instance, never outside.
    """
    witnesses = [
        (counts, label)
        for columns, label in zip(_witness_columns(spec, i_max, j_max), (Classification.YES, Classification.NO))
        for counts in zip(*columns)
    ]
    # by length, then by the last count: a-heavy words before b-heavy ones
    witnesses.sort(key=lambda witness: (sum(witness[0]), witness[0][-1]))
    if isinstance(spec, UnaryPromiseSpec):
        return [(n, label) for (n,), label in witnesses]
    return [(tuple([run for run in zip("ab", counts) if run[1]]), label) for counts, label in witnesses]


# Each family's spec class and its JSON fields, in constructor order.
FAMILIES = {
    "A": (UnaryPromiseSpec, ("N", "r_yes", "r_no")),
    "B": (BinaryPromiseSpec, ("l",)),
    "BN": (BinaryPromiseSpec, ("l", "N")),
}


def family_of(spec) -> str:
    """The family tag of a promise spec: "A", "B" or "BN"."""
    if isinstance(spec, UnaryPromiseSpec):
        return "A"
    if isinstance(spec, BinaryPromiseSpec):
        return "B" if spec.N is None else "BN"
    raise TypeError(f"not a promise spec: {spec!r}")


def spec_to_dict(spec) -> dict:
    """JSON form: the family tag and exactly that family's fields."""
    family = family_of(spec)
    return {"family": family, **{name: getattr(spec, name) for name in FAMILIES[family][1]}}


def spec_from_dict(data: dict):
    """Inverse of spec_to_dict; ValueError unless `data` has exactly one family's fields."""
    if not isinstance(data, dict):
        raise ValueError(f"spec object must be a JSON object, got {type(data).__name__}")
    if "family" not in data:
        raise ValueError("spec object is missing field 'family'")
    family = data["family"]
    if not isinstance(family, str) or family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    make, names = FAMILIES[family]
    for name in names:
        if name not in data:
            raise ValueError(f"spec object is missing field {name!r}")
    for name in data:
        if name != "family" and name not in names:
            raise ValueError(f"family {family} spec has no field {name!r}")
    return make(*(as_int(data[name], f"spec field {name!r}") for name in names))
