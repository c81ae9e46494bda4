"""Promise-problem families over one- and two-letter alphabets.

The unary family fixes a modulus N and two residues: words a^n with
n congruent to the yes-residue are yes-instances, those hitting the
no-residue are no-instances, everything else falls outside the promise.
The binary families share the yes-language {a^i b^i} and differ in the
no-language: b-surplus exactly l, or surplus l modulo N.
"""

import enum
from dataclasses import dataclass
from operator import itemgetter

from .words import as_int, as_runs

DEFAULT_I_MAX = 64
DEFAULT_J_MAX = 8


class Classification(enum.Enum):
    YES = "yes"
    NO = "no"
    OUTSIDE = "outside"


def _check_integers(spec, names) -> None:
    """Store each named field of a frozen spec as an int; a bool or a
    non-integer raises ValueError."""
    for name in names:
        value = getattr(spec, name)
        if type(value) is not int:
            object.__setattr__(spec, name, as_int(value, name))


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
        _check_integers(self, ("N", "r_yes", "r_no"))
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
        _check_integers(self, ("l",) if self.N is None else ("l", "N"))
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


def enumerate_instances(spec, i_max: int = DEFAULT_I_MAX, j_max: int = DEFAULT_J_MAX):
    """List (word, label) pairs with generator indices i <= i_max, j <= j_max.

    Unary words come back as int lengths, binary words as run-length
    pairs. Sorted by word length, ties broken lexicographically; every
    word is a yes- or no-instance, never outside.
    """
    if i_max < 0 or j_max < 0:
        raise ValueError("instance bounds must be nonnegative")
    if isinstance(spec, UnaryPromiseSpec):
        items = []
        for i in range(i_max + 1):
            items.append((i * spec.N + spec.r_yes, Classification.YES))
            items.append((i * spec.N + spec.r_no, Classification.NO))
        items.sort(key=lambda pair: pair[0])
        return items

    def add(i, m, label):
        # a-heavy words sort lexicographically before b-heavy ones of equal
        # length: the sort key is (length, b-count)
        word = tuple(pair for pair in (("a", i), ("b", m)) if pair[1])
        keyed.append(((i + m, m), word, label))

    keyed = []
    for i in range(i_max + 1):
        add(i, i, Classification.YES)
        if spec.N is None:
            add(i, i + spec.l, Classification.NO)
        else:
            for j in range(j_max + 1):
                add(i, i + j * spec.N + spec.l, Classification.NO)
    keyed.sort(key=itemgetter(0))
    return [(word, label) for _, word, label in keyed]


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
