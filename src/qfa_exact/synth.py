"""Machine synthesis for the modular promise families.

The recipe behind every builder: a two-state rotation machine returns
the start state unchanged on yes-instances and tilts it by some fixed
angle on no-instances. If the rotation step is chosen so the tilt's
cosine p is nonpositive, one extra basis state turns that near-solver
into an exact one: seed the rotating plane with amplitudes (alpha, beta)
satisfying alpha^2 + beta^2 = 1 and alpha^2 + p*beta^2 = 0, and
no-instances land exactly orthogonal to the accepting state.
"""

import math
from dataclasses import dataclass

import numpy as np

from .moqfa import ORTHOGONALITY_TOLERANCE, AngleSpec, Moqfa
from .promise import UnaryPromiseSpec, family_of

LIFT_TOLERANCE = 1e-12

_CASE_MID = "mid"
_CASE_SMALL = "small_l"
_CASE_LARGE = "large_l"


@dataclass(frozen=True)
class AngleSelection:
    """Chosen rotation step theta = 2*pi*q/D and the resulting p = cos(l*theta).

    p <= 0 (up to rounding) is the whole point of the selection; the
    case tag records which branch of the search produced q.
    """

    q: int
    D: int
    p: float
    case_tag: str

    @property
    def theta(self) -> float:
        return 2.0 * math.pi * self.q / self.D


@dataclass(frozen=True)
class LiftParameters:
    """Seed amplitudes (alpha, beta) that zero out a tilt of cosine p."""

    p: float
    alpha: float
    beta: float


def _cos_of_units(units: int, D: int) -> float:
    """cos(2*pi*units/D) with the argument already integer-reduced mod D."""
    return math.cos(2.0 * math.pi * (units % D) / D)


def select_angle(N: int, l: int) -> AngleSelection:
    """Pick a multiplier q with cos(l * 2*pi*q/N) <= 0, for 0 < l < N.

    Three regimes, decided by exact integer comparison of 4l against N
    and 3N:

    * N/4 <= l <= 3N/4: q = 1 already works.
    * l < N/4: q = ceil(N/(4l)) stretches the step until l*theta reaches
      the second quadrant.
    * l > 3N/4: scan j = 1, 2, ... for the first j whose fractional part
      of j(N-l)/l lies strictly between 1/4 and 2/3 (exact rational
      comparison), then q = floor((N/l)(j + 1/4)) + 1 wraps l*theta past
      enough full turns to end up with a nonpositive cosine.
    """
    if not 0 < l < N:
        raise ValueError(f"need 0 < l < N, got l={l}, N={N}")
    if 4 * l < N:
        q = -(-N // (4 * l))
        case = _CASE_SMALL
    elif 4 * l <= 3 * N:
        q = 1
        case = _CASE_MID
    else:
        j = _first_fractional_window_hit(N, l)
        q = (N * (4 * j + 1)) // (4 * l) + 1
        case = _CASE_LARGE
    p = _cos_of_units(q * l, N)
    if p > LIFT_TOLERANCE:
        raise RuntimeError(
            f"angle selection failed: cos(l*theta) = {p} > 0 for N={N}, l={l}"
        )
    return AngleSelection(q=q, D=N, p=p, case_tag=case)


def _first_fractional_window_hit(N: int, l: int) -> int:
    # smallest j >= 1 with 1/4 < frac(j*(N-l)/l) < 2/3, i.e. with
    # remainder r = j*(N-l) mod l satisfying l < 4r and 3r < 2l
    for j in range(1, 2 * l + 1):
        r = j * (N - l) % l
        if l < 4 * r and 3 * r < 2 * l:
            return j
    raise RuntimeError(f"no fractional-window hit for N={N}, l={l} within j <= {2 * l}")


def lift_parameters(p: float) -> LiftParameters:
    """Solve alpha^2 + beta^2 = 1, alpha^2 + p*beta^2 = 0 for p in [-1, 0].

    alpha = sqrt(-p/(1-p)), beta = sqrt(1/(1-p)). Values of p a hair
    outside [-1, 0] (rounding of an exactly-boundary cosine) are clamped;
    genuinely positive p has no solution and is rejected.
    """
    if p > LIFT_TOLERANCE or p < -1.0 - LIFT_TOLERANCE:
        raise ValueError(f"lift requires -1 <= p <= 0, got {p}")
    p = min(max(p, -1.0), 0.0)
    return LiftParameters(
        p=p,
        alpha=math.sqrt(-p / (1.0 - p)),
        beta=math.sqrt(1.0 / (1.0 - p)),
    )


def _embed_3d(rot2: np.ndarray) -> np.ndarray:
    """Put a 2x2 rotation in the (1, 2) plane, leaving basis state 0 alone."""
    m = np.eye(3)
    m[1:, 1:] = rot2
    return m


def _seed_matrix(lift: LiftParameters) -> np.ndarray:
    return np.array(
        [
            [lift.alpha, -lift.beta, 0.0],
            [lift.beta, lift.alpha, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )


def _checked(machine: Moqfa) -> Moqfa:
    deviation = machine.check_orthogonality()
    if deviation > ORTHOGONALITY_TOLERANCE:
        raise RuntimeError(f"constructed matrices drift from orthogonal by {deviation}")
    return machine


def _lifted_rotation(N: int, l: int, alphabet: tuple[str, ...], skip: int | None = None):
    """The one construction behind the three-state machines: select the
    angle for (N, l), seed the rotating plane with the lift of its tilt,
    and let `a` rotate by theta (one letter) or by -theta against `b`'s
    +theta (two letters). `skip` pre-rotates the left marker by that many
    symbol steps. Returns the checked machine and the selection."""
    selection = select_angle(N, l)
    angle = AngleSpec(selection.q, N)
    rot = angle.rotation(1)
    seed = _seed_matrix(lift_parameters(selection.p))
    if len(alphabet) == 1:
        u_sym = {"a": _embed_3d(rot)}
    else:
        u_sym = {"a": _embed_3d(rot.T.copy()), "b": _embed_3d(rot)}
    machine = _checked(Moqfa(
        dim=3,
        alphabet=alphabet,
        u_left=seed if skip is None else _embed_3d(angle.rotation(skip)) @ seed,
        u_sym=u_sym,
        u_right=seed.T.copy(),
        accepting=frozenset({0}),
        angle=angle,
    ))
    return machine, selection


def build_for(spec) -> tuple[Moqfa, AngleSelection]:
    """The exact machine for any promise spec, with the angle selection it
    was built from; family `B` reads as AngleSelection(1, 4l, 0.0,
    "quarter_turn")."""
    family = family_of(spec)
    if family == "A":
        return _lifted_rotation(spec.N, spec.gap, ("a",), skip=(-spec.r_yes) % spec.N)
    if family == "B":
        return build_binary_l(spec.l), AngleSelection(1, 4 * spec.l, 0.0, "quarter_turn")
    return _lifted_rotation(spec.N, spec.l, ("a", "b"))


def build_unary(N: int, l: int) -> Moqfa:
    """Three-state machine that is exact on the unary offset family:
    accepts every a^{iN} with probability 1 and every a^{iN+l} with
    probability 0.

    The left marker moves the start state to (alpha, beta, 0); each `a`
    rotates the (1, 2) plane by theta; the right marker undoes the
    marker rotation, so yes-words return to basis state 0 exactly while
    no-words end with zero amplitude there.
    """
    return _lifted_rotation(N, l, ("a",))[0]


def build_unary_general(N: int, r1: int, r2: int) -> Moqfa:
    """Three-state machine for the general residue pair: probability 1 on
    lengths ≡ r1 (mod N), probability 0 on lengths ≡ r2 (mod N).

    The offset machine for l = (r2 - r1) mod N with the left marker
    pre-rotated (N - r1) mod N symbol steps, so reading a word of length
    n behaves like the offset machine on n + N - r1.
    """
    return build_for(UnaryPromiseSpec(N, r1, r2))[0]


def build_binary_l(l: int) -> Moqfa:
    """Two-state machine, exact for the fixed-surplus binary family:
    probability 1 on a^i b^i, probability 0 on a^i b^{i+l}.

    Each `a` rotates by -theta and each `b` by +theta with
    theta = pi/(2l), so balanced words cancel exactly and a surplus of l
    b's rotates the start state a quarter turn onto the rejecting axis.
    """
    if l < 1:
        raise ValueError(f"surplus must be positive, got {l}")
    angle = AngleSpec(1, 4 * l)
    rot = angle.rotation(1)
    return _checked(Moqfa(
        dim=2,
        alphabet=("a", "b"),
        u_left=np.eye(2),
        u_sym={"a": rot.T.copy(), "b": rot},
        u_right=np.eye(2),
        accepting=frozenset({0}),
        angle=angle,
    ))


def build_binary_Nl(N: int, l: int) -> Moqfa:
    """Three-state machine for the modular-surplus binary family:
    probability 1 on a^i b^i, probability 0 on a^i b^{i+jN+l}.

    Same angle selection and seed as the unary machine; a and b rotate
    the (1, 2) plane in opposite directions, so only the b-surplus
    jN + l ≡ l (mod N) survives and lands orthogonal to the accept state.
    """
    return _lifted_rotation(N, l, ("a", "b"))[0]
