"""The spec grid that several test modules sweep."""

from qfa_exact import BinaryPromiseSpec, UnaryPromiseSpec


def grid_specs(a_max, b_max, bn_max):
    """`A` with N <= a_max (every residue pair), `B` with l <= b_max and
    `BN` with N <= bn_max, in that order."""
    for N in range(2, a_max + 1):
        for r_yes in range(N):
            for r_no in range(N):
                if r_yes != r_no:
                    yield UnaryPromiseSpec(N, r_yes, r_no)
    for l in range(1, b_max + 1):
        yield BinaryPromiseSpec(l)
    for N in range(2, bn_max + 1):
        for l in range(1, N):
            yield BinaryPromiseSpec(l, N)
