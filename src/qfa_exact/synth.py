"""Machine synthesis for the modular promise families.

The recipe behind every builder: a two-state rotation machine returns
the start state unchanged on yes-instances and tilts it by some fixed
angle on no-instances. If the rotation step is chosen so the tilt's
cosine p is nonpositive (`arith.angle_multiplier` picks its multiplier
in integers), one extra basis state turns that near-solver
into an exact one: seed the rotating plane with amplitudes (alpha, beta)
satisfying alpha^2 + beta^2 = 1 and alpha^2 + p*beta^2 = 0, and
no-instances land exactly orthogonal to the accepting state.
"""

import math
from dataclasses import dataclass

from .arith import angle_multiplier
from .moqfa import ORTHOGONALITY_TOLERANCE, AngleSpec, Moqfa, _Rows, identity
from .promise import UnaryPromiseSpec, family_of

LIFT_TOLERANCE = 1e-12


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


def select_angle(N: int, l: int) -> AngleSelection:
    """Pick a multiplier q with cos(l * 2*pi*q/N) <= 0, for 0 < l < N.

    `arith.angle_multiplier` chooses q and its case tag by exact integer
    comparison of 4l against N and 3N; the float cosine of the chosen
    angle is checked here against LIFT_TOLERANCE.
    """
    if not 0 < l < N:
        raise ValueError(f"need 0 < l < N, got l={l}, N={N}")
    q, case = angle_multiplier(N, l)
    p = AngleSpec(q, N).cos_sin(l)[0]
    if p > LIFT_TOLERANCE:
        raise RuntimeError(
            f"angle selection failed: cos(l*theta) = {p} > 0 for N={N}, l={l}"
        )
    return AngleSelection(q=q, D=N, p=p, case_tag=case)


def lift_parameters(p: float) -> LiftParameters:
    """Solve alpha^2 + beta^2 = 1, alpha^2 + p*beta^2 = 0 for p in [-1, 0].

    alpha = sqrt(-p/(1-p)), beta = sqrt(1/(1-p)). Values of p a hair
    outside [-1, 0] (rounding of an exactly-boundary cosine) are clamped;
    genuinely positive p has no solution and is rejected.
    """
    if not -1.0 - LIFT_TOLERANCE <= p <= LIFT_TOLERANCE:
        raise ValueError(f"lift requires -1 <= p <= 0, got {p}")
    p = min(max(p, -1.0), 0.0)
    return LiftParameters(
        p=p,
        alpha=math.sqrt(-p / (1.0 - p)),
        beta=math.sqrt(1.0 / (1.0 - p)),
    )


def _checked(machine: Moqfa) -> Moqfa:
    deviation = machine.check_orthogonality()
    if not deviation <= ORTHOGONALITY_TOLERANCE:
        raise RuntimeError(f"constructed matrices drift from orthogonal by {deviation}")
    return machine


def _lifted_rotation(N: int, l: int, alphabet: tuple[str, ...], skip: int | None = None):
    """The one construction behind the three-state machines: select the
    angle for (N, l), seed the rotating plane with the lift of its tilt,
    and let `a` rotate by theta (one letter) or by -theta against `b`'s
    +theta (two letters). `skip` pre-rotates the left marker by that many
    symbol steps. Each symbol turns the (1, 2) plane and leaves basis
    state 0 alone. Returns the checked machine and the selection.

    The rows are written out as `turn` and `matmul` would make them. Each
    pre-rotated entry is one product among exact zeros, and matmul's sums
    start from the int 0, which turns -0.0 into 0.0, as `+ 0.0` does."""
    selection = select_angle(N, l)
    angle = AngleSpec(selection.q, N)
    c, s = angle.cos_sin(1)
    lift = lift_parameters(selection.p)
    alpha, beta = lift.alpha, lift.beta
    if skip is None:  # the seed
        u_left = _Rows(((alpha, -beta, 0.0), (beta, alpha, 0.0), (0.0, 0.0, 1.0)))
    else:  # matmul(turn(3, ck, sk), seed)
        ck, sk = angle.cos_sin(skip)
        u_left = _Rows((
            (alpha + 0.0, -beta + 0.0, 0.0),
            (ck * beta + 0.0, ck * alpha + 0.0, -sk + 0.0),
            (sk * beta + 0.0, sk * alpha + 0.0, ck + 0.0),
        ))
    forward = _Rows(((1.0, 0.0, 0.0), (0.0, c, -s), (0.0, s, c)))
    if len(alphabet) == 1:
        u_sym = {"a": forward}
    else:
        u_sym = {"a": _Rows(((1.0, 0.0, 0.0), (0.0, c, s), (0.0, -s, c))), "b": forward}
    machine = _checked(Moqfa(
        dim=3,
        alphabet=alphabet,
        u_left=u_left,
        u_sym=u_sym,
        u_right=_Rows(((alpha, beta, 0.0), (-beta, alpha, 0.0), (0.0, 0.0, 1.0))),  # the seed's transpose
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
    c, s = angle.cos_sin(1)
    return _checked(Moqfa(
        dim=2,
        alphabet=("a", "b"),
        u_left=identity(2),
        # turn(2, c, -s) and turn(2, c, s)
        u_sym={"a": _Rows(((c, s), (-s, c))), "b": _Rows(((c, -s), (s, c)))},
        u_right=identity(2),
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
