"""Independent oracle for the benchmark's correctness checks.

Everything here is derived from the definitions of the promise families
and of the classical machines, by residue arithmetic and brute force. It
never calls the package's classifiers, size formulas or witness
enumerator, so a wrong answer from the code under test cannot also
become the expected answer. It imports nothing from the package.

Specs are plain tuples: ("A", N, r_yes, r_no), ("B", l) or ("BN", N, l).
Unary words are int lengths; binary words a^i b^m are the pair (i, m).
"""

PROB_TOL = 1e-9  # the tolerance tests/test_acceptance.py pins on probabilities

# Pinned machine counts of the binary certificates for family B, by l;
# the self-test checks that binary_candidates reproduces them.
PINNED_BINARY_COUNTS = {1: 2, 4: 130, 6: 17626}


def label(spec, word):
    """True for a yes-instance, False for a no-instance, None outside."""
    if spec[0] == "A":
        _, N, r_yes, r_no = spec
        r = word % N
        return True if r == r_yes else False if r == r_no else None
    i, m = word
    if m == i:
        return True
    surplus = m - i - spec[-1]
    if spec[0] == "B":
        return False if surplus == 0 else None
    return False if surplus >= 0 and surplus % spec[1] == 0 else None


def _separates(yes_residues, no_residues):
    return not set(yes_residues) & set(no_residues)


def min_states(spec):
    """Smallest d >= 2 whose d-cycle separates the yes- from the no-words.

    Brute force over d from the definition: a counter mod d tells the
    families apart iff no yes-word and no-word share a residue mod d.
    Unary words are lengths iN + r; binary words are judged by their
    b-surplus m - i, which is 0 on yes-words and l (+ jN) on no-words.
    One period of i (or j) covers every residue mod d.
    """
    d = 2
    while True:
        if spec[0] == "A":
            _, N, r_yes, r_no = spec
            ok = _separates(((i * N + r_yes) % d for i in range(d)),
                            ((i * N + r_no) % d for i in range(d)))
        elif spec[0] == "B":
            ok = _separates((0,), (spec[1] % d,))
        else:
            _, N, l = spec
            ok = _separates((0,), ((j * N + l) % d for j in range(d)))
        if ok:
            return d
        d += 1


def qfa_states(spec):
    """The paper's constant quantum cost: 2 states for B, 3 otherwise."""
    return 2 if spec[0] == "B" else 3


def witness_counts(spec, i_max, j_max):
    """(yes, no) witness counts a sweep with bounds i_max, j_max visits."""
    yes = i_max + 1
    return yes, yes * (j_max + 1) if spec[0] == "BN" else yes


def unary_candidates(d):
    """Tail-plus-cycle unary DFAs with every accepting subset, below d states."""
    return sum(m * 2**m for m in range(1, d))


def binary_candidates(d):
    """All binary DFAs (tables, start, accepting subset) below d states."""
    return sum(m ** (2 * m) * m * 2**m for m in range(1, d))


def certificate_count(spec):
    """machines_checked a certified search must report: every candidate."""
    d = min_states(spec)
    return unary_candidates(d) if spec[0] == "A" else binary_candidates(d)


def yes_word(spec, i):
    """The i-th yes-word of the family."""
    return spec[1] * i + spec[2] if spec[0] == "A" else (i, i)


def no_word(spec, i, j=0):
    """A no-word: i-th for unary; a^i b^(i + jN + l) for binary."""
    if spec[0] == "A":
        return spec[1] * i + spec[3]
    if spec[0] == "B":
        return (i, i + spec[1])
    return (i, i + j * spec[1] + spec[2])


def as_runs(word):
    """Run-length form the package accepts for a binary word (i, m)."""
    i, m = word
    return tuple(pair for pair in (("a", i), ("b", m)) if pair[1])


def literal(word):
    return "a" * word if isinstance(word, int) else "a" * word[0] + "b" * word[1]


def machine_probability(machine, word):
    """Acceptance probability of a machine JSON object on a short literal
    word, by plain matrix-vector products one symbol at a time."""
    m = machine["matrices"]

    def apply(matrix, state):
        return [sum(row[k] * state[k] for k in range(len(state))) for row in matrix]

    state = [row[0] for row in m["lmark"]]
    for sym in word:
        state = apply(m[sym], state)
    state = apply(m["rmark"], state)
    return sum(state[k] ** 2 for k in machine["accepting"])


def dfa_accepts(dfa, word):
    """Run a DFA JSON object on a literal word, one step per symbol."""
    state = dfa["start"]
    for sym in word:
        state = dfa["delta"][state][dfa["alphabet"].index(sym)]
    return state in dfa["accepting"]


def close(prob, expected):
    """Probability within PROB_TOL of 1 (yes) or 0 (no)."""
    if expected is None:
        raise ValueError("word outside the promise has no expected probability")
    return abs(prob - (1.0 if expected else 0.0)) <= PROB_TOL
