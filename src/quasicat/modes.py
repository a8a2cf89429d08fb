"""Quasi-mode machinery for two field modes coupled to one atom.

When the two couplings are real, a single orthogonal rotation of the mode
operators concentrates all the atom-field coupling into quasi mode I and
leaves quasi mode II a spectator. This module owns that rotation: its
parameters, its action on coherent amplitudes, its realization as a
two-mode (beam-splitter-type) unitary, the induced composition law for
squeeze operators, and the analogous rotation that decouples the two
dispersively shifted oscillators when the detunings differ.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    BasisMismatch,
    BothCouplingsZero,
    DimTooSmall,
    NonFiniteInput,
    NonUnitPhase,
    ParameterOutOfRange,
    ZeroDetuning,
)
from .fock import _block_diagonal, _chain_gate, _chain_trig, _squeeze_gate, _stack_by
from .fock import _check_finite_scalar

PHYSICAL = "physical"
QUASI = "quasi"

# the highest total-photon shell squeeze_identity_residual probes by default
SQUEEZE_INPUT_CAP = 6


@dataclass
class ModeRotation:
    """Rotation angle and couplings defining the quasi-mode basis.

    Invariants: g = sqrt(g1^2 + g2^2) > 0 and cos(theta) = g1 / g.
    """

    theta: float
    g: float
    g1: float
    g2: float


@dataclass
class AmplitudePair:
    """Coherent amplitudes of a two-mode product state, tagged by basis."""

    first: complex
    second: complex
    basis: str = PHYSICAL

    def __post_init__(self):
        if self.basis not in (PHYSICAL, QUASI):
            raise BasisMismatch(f"unknown basis tag {self.basis!r}")
        self.first = complex(self.first)
        self.second = complex(self.second)


@dataclass
class DecoupleParams:
    """Rotation angle and the two frequency-like eigenvalues that decouple
    the dispersively shifted oscillator pair."""

    eta: float
    lambda_mode: float
    zeta_mode: float


def rotation_params(g1: float, g2: float) -> ModeRotation:
    """Build the quasi-mode rotation from two real couplings.

    theta lands in [0, pi/2] for nonnegative couplings; g2 = 0 means quasi
    mode I coincides with physical mode 1. A nonzero pair whose g1^2 + g2^2
    falls below the smallest normal float is refused: there g = sqrt(g1^2 +
    g2^2) loses its relative accuracy, or the sum underflows to 0.
    """
    g1 = float(g1)
    g2 = float(g2)
    gsq = g1 * g1 + g2 * g2
    if not math.isfinite(gsq):
        raise NonFiniteInput(f"g1^2 + g2^2 is not finite for g1 = {g1}, g2 = {g2}")
    if g1 == g2 == 0.0:
        raise BothCouplingsZero("g1 = g2 = 0 leaves the rotation undefined")
    if gsq < sys.float_info.min:
        raise NonFiniteInput(
            f"g1^2 + g2^2 = {gsq:g} underflows for g1 = {g1}, g2 = {g2}"
        )
    return ModeRotation(math.atan2(g2, g1), math.sqrt(gsq), g1, g2)


def rotate_amplitudes(rot: ModeRotation, pair: AmplitudePair) -> AmplitudePair:
    """Map coherent amplitudes to the other basis of the pair's tag.

    physical -> quasi: (alpha, beta) -> (mu, nu) = (c a + s b, -s a + c b);
    quasi -> physical applies the transpose. |first|^2 + |second|^2 is
    preserved exactly (the rotation is orthogonal).
    """
    c = math.cos(rot.theta)
    s = math.sin(rot.theta)
    if pair.basis == PHYSICAL:
        return AmplitudePair(
            c * pair.first + s * pair.second,
            -s * pair.first + c * pair.second,
            QUASI,
        )
    return AmplitudePair(
        c * pair.first - s * pair.second,
        s * pair.first + c * pair.second,
        PHYSICAL,
    )


def _shell_stack(theta: float, dim1: int, dim2: int, shells: int):
    """R = exp(theta (a+ b - a b+)) on the total-photon shells 0 .. shells - 1,
    as one zero-padded stack: (index, inside, blocks).

    Row s holds shell n1 + n2 = s ordered by ascending n1: index[s, k] is
    the flat index of its k-th state, inside marks the k that exist, and
    blocks[s] is R on the shell. a+ b hops sqrt((n1 + 1) n2) up the row, and
    diag(i^k) carries the generator to -i theta T, so R_kl is
    (-1)^floor((k - l) / 2) times the real _chain_trig entry: exact on
    truncated shells too, since the mixer never leaves a shell.
    """
    index, inside = _stack_by(np.indices((dim1, dim2)).sum(axis=0), shells)
    # the hop into site k + 1 at (n1, n2) is sqrt(n1 (n2 + 1)); padding reads 0
    n1, n2 = np.divmod(index[:, 1:], dim2)
    offset = np.arange(inside.shape[1])[:, None] - np.arange(inside.shape[1])
    hops = np.sqrt(n1 * (n2 + 1.0))
    blocks = np.where(offset // 2 % 2, -1.0, 1.0) * _chain_trig(hops, theta)
    return index, inside, blocks


def _diagonal_stack(p: complex, dim: int):
    """TMS(p) = exp(p* a b - p a+ b+) per n1 - n2 diagonal ordered by ascending
    n2, as one zero-padded stack (index, inside, blocks); a b hops sqrt(n1 n2)."""
    n = np.arange(dim)
    index, inside = _stack_by(n[:, None] - n + dim - 1, 2 * dim - 1)
    n1, n2 = np.divmod(index[:, 1:], dim)
    return index, inside, _chain_gate(np.sqrt(n1 * n2), p)


def mode_rotation_unitary(rot: ModeRotation, dim1: int, dim2: int) -> np.ndarray:
    """Two-mode unitary R = exp(theta (a+ b - a b+)) realizing the rotation,
    as a real orthogonal (dim1 dim2, dim1 dim2) float64 matrix, flat-indexed
    n1 dim2 + n2 like np.kron of the two modes.

    Sign convention (fixed once against a small-dim oracle):
    R+ a R = cos(theta) a + sin(theta) b, and R|alpha, beta> is the coherent
    product with the quasi amplitudes rotate_amplitudes gives. The mixer
    conserves n1 + n2, so R is assembled from its blocks on the total-photon
    shells, all taken from one stack (see _shell_stack).
    """
    if dim1 < 2 or dim2 < 2:
        raise DimTooSmall("mode_rotation_unitary needs dims >= 2")
    index, inside, blocks = _shell_stack(rot.theta, dim1, dim2, dim1 + dim2 - 1)
    return _block_diagonal(index, inside, blocks, dim1 * dim2)


def squeeze_composition(rot: ModeRotation, z1: complex, z2: complex):
    """Quasi-basis parameters (p, q) of the product S_1(z1) S_2(z2).

    p = sin(2 theta)(z2 - z1)/2 feeds the cross two-mode squeeze
    exp(p* A B - p A+ B+); q = z1 cos^2 + z2 sin^2 is the quasi-mode-I
    squeeze. The factorized form exp(cross) S_I(q) S_II(q) reproduces the
    product exactly when z1 = z2 (any theta) or when theta = pi/4 with real
    parameters; elsewhere the second quasi mode would need the complementary
    coefficient z1 sin^2 + z2 cos^2 and the factors stop commuting.
    """
    z1 = _check_finite_scalar(z1, "z1")
    z2 = _check_finite_scalar(z2, "z2")
    p = math.sin(2.0 * rot.theta) * (z2 - z1) / 2.0
    q = z1 * math.cos(rot.theta) ** 2 + z2 * math.sin(rot.theta) ** 2
    return p, q


def quasi_phase_amplitudes(
    rot: ModeRotation, phase_on_mode_i: complex, pair: AmplitudePair
) -> AmplitudePair:
    """Rotate to the quasi basis, phase the mode-I amplitude, rotate back.

    This is how a number-conditioned phase on quasi mode I shows up on the
    physical coherent amplitudes. pair must be physical, and
    phase_on_mode_i must sit on the unit circle.
    """
    if pair.basis != PHYSICAL:
        raise BasisMismatch("quasi_phase_amplitudes expects physical amplitudes")
    phase_on_mode_i = complex(phase_on_mode_i)
    if abs(abs(phase_on_mode_i) - 1.0) > 1e-12:
        raise NonUnitPhase(f"|phase| = {abs(phase_on_mode_i)!r} is not 1")
    quasi = rotate_amplitudes(rot, pair)
    shifted = AmplitudePair(phase_on_mode_i * quasi.first, quasi.second, QUASI)
    return rotate_amplitudes(rot, shifted)


def total_photon_shell_indices(dim: int) -> np.ndarray:
    """Flat indices of the (dim x dim) two-mode basis states with
    n1 + n2 <= dim - 2.

    These shells form the trusted block for two-mode operator identities:
    the rotation preserves total photon number, and one raising step from
    them lands on n1 + n2 <= dim - 1, the last complete shell, so a state
    supported there cannot have been contaminated by the truncation edge
    under any of the operators compared.
    """
    n = np.arange(dim)
    return np.flatnonzero((n[:, None] + n[None, :] <= dim - 2).ravel())


def squeeze_identity_residual(
    rot: ModeRotation,
    z1: complex,
    z2: complex,
    dim: int,
    input_cap: int = SQUEEZE_INPUT_CAP,
) -> float:
    """Residual of the squeeze composition law on the trusted block.

    Applies S_1(z1) S_2(z2) and exp(p* A B - p A+ B+) S_I(q) S_II(q) to the
    complete-shell basis columns with n1 + n2 <= input_cap and returns the
    2-norm of the difference restricted to rows on the same shells. With
    A = R+ a R and B = R+ b R the right side is R+ TMS(p) (S(q) x S(q)) R,
    where TMS(p) = exp(p* a b - p a+ b+) conserves n1 - n2. R and R+ act
    shell by shell, and only the shells up to input_cap are needed.
    """
    p, q = squeeze_composition(rot, z1, z2)
    if input_cap < 0:
        raise ParameterOutOfRange(f"input_cap = {input_cap} is negative")
    s_1, s_2, s_q = (_squeeze_gate(z, dim) for z in (z1, z2, q))
    top = min(input_cap, 2 * dim - 2)
    index, inside, blocks = _shell_stack(rot.theta, dim, dim, top + 1)
    # one row per probe column (n1 + n2 <= input_cap), over the flat two-mode
    # basis; the 2-norm does not depend on the order of rows or columns.
    # The probe columns fill whole shells, so R maps them among themselves
    probe = index[inside]
    at = np.cumsum(inside).reshape(inside.shape) - 1
    r_probe = _block_diagonal(at, inside, blocks, probe.size)
    m1, m2 = np.divmod(probe, dim)

    # S_1(z1) S_2(z2) |m1, m2> = S_1[:, m1] x S_2[:, m2]
    left = (s_1[:, m1].T[:, :, None] * s_2[:, m2].T[:, None, :]).reshape(m1.size, -1)

    right = np.zeros((m1.size, dim * dim), dtype=np.complex128)
    right[:, probe] = r_probe.T
    right = (s_q @ right.reshape(m1.size, dim, dim) @ s_q.T).reshape(m1.size, -1)
    if p != 0:
        flat, on, tms = _diagonal_stack(p, dim)
        right[:, flat[on]] = np.einsum("skl,rsl->rsk", tms, right[:, flat] * on)[:, on]

    resid = left[:, probe] - right[:, probe] @ r_probe
    return float(np.linalg.norm(resid, 2))


def decouple_params(
    g1: float, g2: float, delta1: float, delta2: float
) -> DecoupleParams:
    """Rotation that diagonalizes the dispersive two-oscillator coupling.

    The intensity-shift quadratic form has matrix
    [[g1^2/d1, c], [c, g2^2/d2]] with c = g1 g2 (1/d1 + 1/d2) / 2 (no d1 d2
    product to underflow); eta is chosen with a quadrant-aware arctangent so
    the degenerate case g1^2 d2 = g2^2 d1 lands on eta = pi/4, and
    (lambda_mode, zeta_mode) are the exact eigenvalues along the rotated modes.
    """
    if delta1 == 0.0 or delta2 == 0.0:
        raise ZeroDetuning("decoupling divides by both detunings")
    g1 = float(g1)
    g2 = float(g2)
    m11 = g1 * g1 / delta1
    m22 = g2 * g2 / delta2
    cross = 0.5 * g1 * g2 * (1.0 / delta1 + 1.0 / delta2)
    eta = 0.5 * math.atan2(2.0 * cross, m11 - m22)
    co = math.cos(eta)
    si = math.sin(eta)
    lam = co * co * m11 + si * si * m22 + 2.0 * si * co * cross
    zet = si * si * m11 + co * co * m22 - 2.0 * si * co * cross
    return DecoupleParams(eta, lam, zet)
