"""Hamiltonians and time evolution for two field modes and one two-level atom.

Layout conventions used throughout:

* System tensors have shape (dim1, dim2, atom) with atom axis size 2 in the
  order (lower, upper), or size 1 for field-only states.
* The basis tag says whether the two mode slots are the physical modes 1, 2
  or the rotated quasi modes I, II. In the quasi basis all atom-field
  coupling lives on the first slot.
* Time evolution is exp(-iHt) everywhere. Analytic evolutions below are
  phase-consistent with the brute-force oracle under that convention.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    BadSubsystem,
    BasisMismatch,
    DegenerateCat,
    DetuningRatioWarning,
    DetuningTooSmall,
    DimensionMismatch,
    DimTooSmall,
    NonFiniteInput,
    NonPositiveInput,
    NormViolation,
    ParameterOutOfRange,
)
from .fock import (
    LEAK_TOL,
    FockVector,
    _stack_by,
    coherent_nbar,
    coherent_state,
    expm_antihermitian,  # noqa: F401  perfbench/spans.py patches this name
)
from .modes import (
    PHYSICAL,
    QUASI,
    AmplitudePair,
    ModeRotation,
    quasi_phase_amplitudes,
    rotate_amplitudes,
)

# Atom basis order (lower, upper).
SIGMA_Z = np.diag([-1.0 + 0j, 1.0 + 0j])

# Effective (dispersive) variants are trustworthy for |delta| >= RATIO_MIN * g;
# between 5 and 10 they warn, below 5 they refuse.
RATIO_MIN = 10.0
RATIO_HARD_FLOOR = 5.0

# a state whose norm is off 1 by more than this is refused
NORM_TOL = 1e-6

# a time axis forms at most this many anchor-scaled weights at once (see
# _exp_sums), so its memory stays bounded at any dim
GROUP_CELLS = 2**18


@dataclass
class SystemState:
    """Normalized amplitude tensor over mode1 x mode2 x atom, basis-tagged."""

    tensor: np.ndarray
    basis: str = PHYSICAL

    def __post_init__(self):
        self.tensor = np.asarray(self.tensor, dtype=np.complex128)
        if self.tensor.ndim != 3:
            raise DimensionMismatch("SystemState expects a (dim1, dim2, atom) tensor")
        if self.tensor.shape[2] not in (1, 2):
            raise DimensionMismatch("atom axis must have size 1 or 2")
        if self.basis not in (PHYSICAL, QUASI):
            raise BasisMismatch(f"unknown basis tag {self.basis!r}")
        nrm = float(np.linalg.norm(self.tensor))
        norm_deviation(self.tensor, np.array(nrm))
        self.tensor = self.tensor / nrm

    @property
    def dims(self):
        return self.tensor.shape

    def flat(self) -> np.ndarray:
        return self.tensor.reshape(-1)


def norm_deviation(stack, norms: Optional[np.ndarray] = None) -> float:
    """Largest |norm - 1| over a (..., dim1, dim2, atom) amplitude stack (or
    of the given norms, which stand for it where stack is None); refuses a
    non-finite amplitude or one above NORM_TOL as SystemState does, but
    renormalizes nothing."""
    values = norms if stack is None else stack.reshape(stack.shape[:-3] + (-1,))
    if not np.all(np.isfinite(values)):
        raise NonFiniteInput("non-finite amplitude in SystemState")
    if norms is None:
        flat = values.view(np.float64)
        norms = np.sqrt(np.einsum("...i,...i->...", flat, flat))
    deviation = np.abs(norms - 1.0)
    worst = int(np.argmax(deviation))
    if deviation.flat[worst] > NORM_TOL:
        raise NormViolation(f"SystemState norm {norms.flat[worst]} too far from 1")
    return float(deviation.flat[worst])


@dataclass
class MeasurementOutcome:
    """One branch of an atomic measurement; post_state keeps the field only
    (atom axis reduced to size 1) and is None below probability 1e-15."""

    outcome: str
    probability: float
    post_state: Optional[SystemState]


def product_state(
    mode1: FockVector, mode2: FockVector, atom_amps, basis: str = PHYSICAL
) -> SystemState:
    """Product state mode1 x mode2 x atom. atom_amps has length 2 in the
    order (lower, upper), or length 1 for a field-only container."""
    atom = np.asarray(atom_amps, dtype=np.complex128).reshape(-1)
    if atom.size not in (1, 2):
        raise DimensionMismatch("atom_amps must have length 1 or 2")
    tensor = np.einsum("i,j,s->ijs", mode1.amps, mode2.amps, atom)
    return SystemState(tensor, basis)


def _check_dispersive(g_total: float, deltas):
    if g_total == 0.0:
        return
    for d in deltas:
        if d is None or d == 0.0:
            raise DetuningTooSmall("dispersive variant needs nonzero detuning")
        # compared as products: a delta of fl(ratio * g) is never below
        # fl(RATIO_MIN * g) for ratio >= RATIO_MIN, as rounding is monotone,
        # while |delta|/g can land one ulp below the ratio
        ratio = abs(d) / g_total
        if abs(d) < RATIO_HARD_FLOOR * g_total:
            raise DetuningTooSmall(
                f"|delta|/g = {ratio:.2f} < {RATIO_HARD_FLOOR}; effective model invalid"
            )
        if abs(d) < RATIO_MIN * g_total:
            warnings.warn(
                f"|delta|/g = {ratio:.2f} below {RATIO_MIN}; effective model marginal",
                DetuningRatioWarning,
                stacklevel=3,
            )


def coupling_square(g: float) -> float:
    """g^2, refused when it overflows or, for a nonzero g, underflows below
    the smallest normal float, where the dispersive shift g^2/delta is lost."""
    g_sq = g * g
    if not math.isfinite(g_sq) or (g != 0.0 and g_sq < sys.float_info.min):
        raise NonFiniteInput(
            f"coupling g^2 = {g_sq:g} over- or underflows for g = {g}"
        )
    return g_sq


def build_hamiltonian(g1: float, g2: float, delta: float, dim: int):
    """Interaction Hamiltonian delta/2 sz + g1 (a s+ + a+ s-) + g2 (b s+ + b+ s-)
    on (dim x dim x 2), flat-indexed like the joint tensor, as coupling
    triplets (rows, cols, values): O(dim^2) entries, no position repeated.
    g1 = g, g2 = 0 is the quasi-mode JC model."""
    if dim < 2:
        raise DimTooSmall("build_hamiltonian needs dim >= 2")
    index = np.arange(2 * dim * dim).reshape(dim, dim, 2)
    root = np.sqrt(np.arange(1, dim, dtype=np.float64))
    # a s+ takes (n1, n2, lower) to (n1 - 1, n2, upper) with g1 sqrt(n1), b s+
    # does the same on n2; each conjugate runs the other way
    upper = (index[:-1, :, 1], index[:, :-1, 1])
    lower = (index[1:, :, 0], index[:, 1:, 0])
    coupling = (g1 * root[:, None], g2 * root[None, :])
    terms = [(index, index, 0.5 * delta * SIGMA_Z.diagonal().real)]
    for up, low, value in zip(upper, lower, coupling):
        terms += [(up, low, value), (low, up, value)]
    rows = np.concatenate([r.ravel() for r, _, _ in terms])
    cols = np.concatenate([c.ravel() for _, c, _ in terms])
    values = np.concatenate([np.broadcast_to(v, r.shape).ravel() for r, _, v in terms])
    return rows, cols, values


def excitation_diagonal(dim1: int, dim2: int) -> np.ndarray:
    """Diagonal of the excitation count sigma_z/2 + n1 + n2, flat-indexed
    like the joint (dim1, dim2, 2) tensor."""
    n1 = np.arange(dim1, dtype=np.float64)[:, None, None]
    n2 = np.arange(dim2, dtype=np.float64)[None, :, None]
    return (n1 + n2 + 0.5 * SIGMA_Z.diagonal().real).ravel()


def excitation_sectors(dim1: int, dim2: int):
    """The excitation sectors, in increasing excitation, as the zero-padded
    stack (index, inside) of fock._stack_by over the label n1 + n2 + [upper].

    The interaction, the quasi-mode JC model and the mode rotation conserve
    the excitation count, so they are block-diagonal on these index sets.
    Sector k + 1/2 holds (n1 + n2 = k, upper) and (n1 + n2 = k + 1, lower);
    with dim1 = dim2 = d there are 2d sectors of at most 2d - 1 states.
    """
    return _stack_by(np.indices((dim1, dim2, 2)).sum(axis=0), dim1 + dim2)


class HermitianPropagator:
    """Reusable exp(-iHt) from a single Hermitian eigendecomposition.

    ham is one (m, m) matrix or a (..., m, m) stack of them; a real stack
    stays real (float64, and so are its eigenvectors), any other is taken
    as complex128. One check refuses the stack unless every matrix is
    Hermitian to 1e-12 of its largest entry, and one eigh decomposes them
    all. dim is m, the size of one matrix. Exactly unitary up to roundoff;
    the decomposition is shared across all evolution times. validate runs
    one over the zero-padded stack of its excitation sectors; the tests run
    one on each dense reference matrix.
    """

    def __init__(self, ham: np.ndarray):
        ham = np.asarray(ham)
        ham = ham.astype(np.float64 if np.isrealobj(ham) else np.complex128)
        if ham.ndim < 2 or ham.shape[-1] != ham.shape[-2]:
            raise DimensionMismatch("Hamiltonian must be square")
        scale = np.maximum(1.0, np.abs(ham).max(axis=(-2, -1), keepdims=True))
        if not np.all(np.abs(ham - np.swapaxes(ham, -1, -2).conj()) <= 1e-12 * scale):
            raise DimensionMismatch("Hamiltonian is not Hermitian")
        self.energies, self.vectors = np.linalg.eigh(ham)

    @property
    def dim(self) -> int:
        return self.energies.shape[-1]

    def evolve_flat(self, vec: np.ndarray, t: float) -> np.ndarray:
        """exp(-iHt) vec for (..., m) vectors, complex128; their leading
        axes broadcast against the stack's."""
        vec = np.asarray(vec, dtype=np.complex128)
        if vec.ndim == 0 or vec.shape[-1] != self.dim:
            raise DimensionMismatch(
                f"state of shape {vec.shape} does not match dim {self.dim}"
            )
        phases = np.exp(-1j * self.energies * float(t))
        coeffs = np.swapaxes(self.vectors, -1, -2).conj() @ vec[..., None]
        return (self.vectors @ (phases[..., None] * coeffs))[..., 0]

    def evolve(self, state: SystemState, t: float) -> SystemState:
        """exp(-iHt) on a state whose flat size is dim."""
        out = self.evolve_flat(state.flat(), t)
        return SystemState(out.reshape(state.dims), state.basis)


def _phase_factors(rates, t) -> np.ndarray:
    """e^{i rate t} for each rate at each time of a scalar or array t, with
    t's shape in front of the rates': one complex exponential per cell."""
    t = np.asarray(t, dtype=np.float64)[(...,) + (None,) * np.ndim(rates)]
    return np.exp(1j * (rates * t))


def _propagate(psi, field, factors):
    """exp(-iHt) of a (dim_I, batch, 2) quasi-basis tensor psi, directly from
    t = 0, as cos(rate t) psi + sin(rate t) field: every block of either
    model has eigenvalues +-rate, so exp(-iHt) = cos(rate t) - i sin(rate t)
    H / rate on it. factors are e^{i rate t} of the model's (dim_I, 2) rates
    at one time, or with a leading axis of times that the result keeps in
    front; field is the model's fixed -i H psi / rate (see _jc_model)."""
    factors = factors[..., :, None, :]
    return factors.real * psi + factors.imag * field


def _jc_model(psi, g, delta):
    """(rates, field) of psi under the resonant-or-detuned single-mode atom
    coupling, both laid out like psi's levels.

    Column 0 is the lower atomic level, column 1 the upper. Pairs
    (n, upper) <-> (n+1, lower) form 2x2 blocks of eigenvalues +-omega_n / 2,
    with the Rabi frequency omega_n = sqrt(delta^2 + 4 g^2 (n+1)) taken as
    a hypot; the field is formed from the ratios delta / omega_n and
    2 g sqrt(n+1) / omega_n, so it stays finite for every finite delta and
    g. The lone (0, lower) level and the truncation-edge (dim-1, upper)
    level are 1x1 blocks -+delta/2, whose field is +-i psi. A block with
    omega_n = 0 (g = delta = 0) has H = 0 there and a zero field.
    """
    d = psi.shape[0]
    coupling = 2.0 * g * np.sqrt(np.arange(1, d, dtype=np.float64))
    omega = np.hypot(delta, coupling)
    rates = np.empty((d, 2))
    rates[0, 0] = rates[-1, 1] = 0.5 * delta
    rates[:-1, 1] = rates[1:, 0] = 0.5 * omega
    # omega = 0 only where delta and coupling are both 0, so both ratios are 0
    omega[omega == 0.0] = 1.0
    detune, mix = (delta / omega)[:, None], (coupling / omega)[:, None]
    upper, lower = psi[:-1, :, 1], psi[1:, :, 0]
    field = np.empty(psi.shape, dtype=np.complex128)
    field[0, :, 0] = 1j * psi[0, :, 0]
    field[-1, :, 1] = -1j * psi[-1, :, 1]
    field[:-1, :, 1] = -1j * (detune * upper + mix * lower)
    field[1:, :, 0] = 1j * (detune * lower - mix * upper)
    return rates, field


def evolve_exact_jc(
    state: SystemState, t: float, g: float, delta: float = 0.0
) -> SystemState:
    """Analytic block evolution in the quasi basis.

    Equivalent to the oracle on the quasiJC Hamiltonian but O(dim) per time.
    Quasi mode II is untouched by construction.
    """
    if state.basis != QUASI:
        raise BasisMismatch("evolve_exact_jc expects a quasi-basis state")
    if state.tensor.shape[2] != 2:
        raise DimensionMismatch("state needs an atom axis of size 2")
    rates, field = _jc_model(state.tensor, float(g), float(delta))
    out = _propagate(state.tensor, field, _phase_factors(rates, float(t)))
    return SystemState(out, QUASI)


def half_revival_time(nbar: float, g: float) -> float:
    """The 2 pi sqrt(nbar) / g timescale of the inversion revival.

    The cat preparation protocol evolves to half this value, where atom and
    field disentangle. (The name keeps the conventional label; the revival
    peak itself sits at this full value.)
    """
    if nbar <= 0.0 or g <= 0.0:
        raise NonPositiveInput("half_revival_time needs nbar > 0 and g > 0")
    return 2.0 * math.pi * math.sqrt(nbar) / g


def protocol_time(nbar: float, g: float) -> float:
    """Preparation instant: half of half_revival_time."""
    return 0.5 * half_revival_time(nbar, g)


def large_amplitude_state(
    t: float,
    mu: complex,
    gamma: complex,
    delta_amp: complex,
    g: float,
    dim: int,
    leak_tol: float = LEAK_TOL,
) -> SystemState:
    """Closed-form large-amplitude approximation to the resonant evolution.

    The initial state is |mu> on quasi mode I times the atom
    gamma |lower> + delta_amp |upper|>, mu != 0. The square roots of the
    excitation ladder are expanded around nbar = |mu|^2, which splits the
    state into two counter-rotating coherent branches
    mu e^{-+ i g t / (2 sqrt(nbar))} with branch phases
    e^{-+ i g t sqrt(nbar)/2}; at half the revival timescale the branches
    are +-i mu and the atom factors out. Accuracy improves with nbar.
    General (gamma, delta_amp) follows by linearity.
    Quasi mode II, which never couples, is a size-1 vacuum slot.
    """
    mu = complex(mu)
    if abs(abs(gamma) ** 2 + abs(delta_amp) ** 2 - 1.0) > 1e-10:
        raise NormViolation("|gamma|^2 + |delta_amp|^2 must be 1")
    nbar = coherent_nbar(mu)
    if nbar == 0.0:
        raise NonPositiveInput("large-amplitude form needs |mu|^2 > 0")
    phi = -np.angle(mu)
    branch_phase = 0.5 * g * t * math.sqrt(nbar)
    chirp = 0.5 * g * t / math.sqrt(nbar)
    field_a = coherent_state(mu * np.exp(-1j * chirp), dim, leak_tol).amps
    field_b = coherent_state(mu * np.exp(+1j * chirp), dim, leak_tol).amps
    eip = np.exp(1j * phi)
    eim = np.conj(eip)
    pre_a = 0.5 * np.exp(-1j * branch_phase)
    pre_b = 0.5 * np.exp(+1j * branch_phase)
    upper = pre_a * field_a * (gamma * eim + delta_amp) * np.exp(-1j * chirp) + (
        pre_b * field_b * (delta_amp - gamma * eim) * np.exp(+1j * chirp)
    )
    lower = pre_a * field_a * (gamma + delta_amp * eip) + pre_b * field_b * (
        gamma - delta_amp * eip
    )
    tensor = np.stack([lower, upper], axis=-1)[:, None, :]
    tensor /= np.linalg.norm(tensor)
    return SystemState(tensor, QUASI)


def cat_target(
    mu: complex, convention: int, dim: int, leak_tol: float = LEAK_TOL
) -> FockVector:
    """Target single-mode cat reached at half the revival timescale:
    proportional to e^{i pi nbar/2} |i mu> - convention e^{-i pi nbar/2} |-i mu>
    with nbar = |mu|^2, the branch phases large_amplitude_state gives at
    protocol_time.

    The normalization keeps the branch overlap (no orthogonality assumption).
    convention in {+1, -1} selects the relative branch sign, which is the
    only freedom left by the global-phase convention of the evolution.
    """
    mu = complex(mu)
    if convention not in (1, -1):
        raise ParameterOutOfRange("convention must be +1 or -1")
    nbar = coherent_nbar(mu)
    plus_branch = coherent_state(1j * mu, dim, leak_tol).amps
    minus_branch = coherent_state(-1j * mu, dim, leak_tol).amps
    return FockVector(_cat(plus_branch, minus_branch, nbar, convention), dim)


def _cat(plus_branch, minus_branch, nbar: float, convention: int) -> np.ndarray:
    """The normalized superposition of the +i mu and -i mu branches that both
    cat targets share, with its branch phases; the norm keeps the overlap."""
    phase = 0.5 * math.pi * nbar
    vec = (
        np.exp(1j * phase) * plus_branch
        - convention * np.exp(-1j * phase) * minus_branch
    )
    norm_sq = float(np.vdot(vec, vec).real)
    if norm_sq <= 1e-12:
        raise DegenerateCat("branches cancel; superposition collapsed to one ray")
    return vec / math.sqrt(norm_sq)


def two_mode_cat_target(
    alpha: complex,
    beta: complex,
    rot: ModeRotation,
    dim1: int,
    dim2: int,
    convention: int = 1,
    leak_tol: float = LEAK_TOL,
) -> SystemState:
    """Entangled two-mode target in the physical basis: the quasi-mode cat
    expressed on modes 1 and 2.

    The two branches are coherent products whose amplitudes come from
    phasing the quasi-mode-I amplitude by +i and -i and rotating back; nbar
    in the branch phases is |mu|^2 of that rotated amplitude. Equals the
    mode rotation unitary applied to cat x |nu> up to truncation.
    """
    pair = AmplitudePair(alpha, beta, PHYSICAL)
    if convention not in (1, -1):
        raise ParameterOutOfRange("convention must be +1 or -1")
    nbar = coherent_nbar(rotate_amplitudes(rot, pair).first)
    fields = []
    for phase in (1j, -1j):
        branch = quasi_phase_amplitudes(rot, phase, pair)
        first = coherent_state(branch.first, dim1, leak_tol).amps
        second = coherent_state(branch.second, dim2, leak_tol).amps
        fields.append(np.outer(first, second))
    return SystemState(_cat(*fields, nbar, convention)[:, :, None], PHYSICAL)


def evolve_effective(
    state: SystemState, t: float, g: float, delta: float
) -> SystemState:
    """Dispersive-regime evolution, diagonal in the quasi-I photon number.

    Lower-level amplitudes pick up e^{+i(delta/2 + g^2 n / delta) t}; upper
    ones e^{-i(delta/2 + g^2/delta + g^2 n / delta) t}. A coherent |mu> on
    the lower branch therefore stays coherent with amplitude rotating as
    mu e^{+i g^2 t / delta}, and the two branches counter-rotate.
    """
    if state.basis != QUASI:
        raise BasisMismatch("evolve_effective expects a quasi-basis state")
    if state.tensor.shape[2] != 2:
        raise DimensionMismatch("state needs an atom axis of size 2")
    _check_dispersive(abs(g), (delta,))
    rates, field = _effective_model(state.tensor, g, delta)
    return SystemState(_propagate(state.tensor, field, _phase_factors(rates, t)), QUASI)


def _effective_model(psi, g, delta):
    """(rates, field) of evolve_effective on psi, its phase rates signed so
    that every level is a 1x1 block of field i psi; the ratio is not
    checked."""
    n = np.arange(psi.shape[0], dtype=np.float64)
    shift = g * g / delta
    rates = np.stack((0.5 * delta + shift * n, -(0.5 * delta + shift + shift * n)), -1)
    return rates, 1j * psi


def _tracks(psi, times, key: str, *models):
    """The track (rates, plus, minus) of the quasi tensor psi, laid out
    (dim_I, 2), under each (rates, field) model: cos(rt) psi + sin(rt) field
    is e^{irt} plus + e^{-irt} minus, plus and minus = (psi -+ i field) / 2.
    An axis whose largest |rate t| doubles resolve no better than NORM_TOL
    is refused first, naming key, whose ulp would move the state by more."""
    phase = float(np.abs(times).max()) * max(float(np.abs(r).max()) for r, _ in models)
    if not sys.float_info.epsilon * phase <= NORM_TOL:
        raise ParameterOutOfRange(
            f"{key}: phase arguments |rate t| up to {phase:.3g} are not"
            f" resolved to {NORM_TOL:g} in double precision"
        )
    psi = psi.reshape(-1, 2)  # quasi mode II's slot has size 1
    fields = [(rates, 1j * field.reshape(-1, 2)) for rates, field in models]
    return [(rates, 0.5 * (psi - f), 0.5 * (psi + f)) for rates, f in fields]


def _bilinear(x, y, *weights):
    """(freqs, W) of sum_j w_j conj(x_j(t)) y_j(t) for tracks x and y, one
    row of W per weight array w: a sum over the frequencies +-rx +- ry, with
    terms at equal frequencies summed and those of zero weight left out."""
    (rx, px, mx), (ry, py, my) = x, y
    freqs = np.concatenate([f.ravel() for f in (ry - rx, -rx - ry, rx + ry, rx - ry)])
    terms = (px.conj() * py, px.conj() * my, mx.conj() * py, mx.conj() * my)
    rows = np.array([np.concatenate([(w * t).ravel() for t in terms]) for w in weights])
    keep = rows.any(axis=0)
    freqs, at = np.unique(freqs[keep], return_inverse=True)
    merged = np.zeros((len(weights), freqs.size), dtype=np.complex128)
    np.add.at(merged.T, at, rows[:, keep].T)
    return freqs, merged


def _self_sums(x, times, *weights):
    """The real series sum_j w_j |x_j(t)|^2 of track x, one row per weight
    array w; with w = 1 the row is the squared norm."""
    return _exp_sums(*_bilinear(x, x, *weights), times).real.T


def _exp_sums(freqs, weights, times):
    """sum_j weights[c, j] e^{i freqs[j] t} at each time of a uniform axis
    times[k] = k h, as np.linspace(0, T, steps) gives: a (steps, C) array.

    Blocks of span = ceil(sqrt(steps)) times share one offset table
    e^{i freq times[l]}, 0 < l < span; block b's anchor e^{i freq times[b
    span]} scales the weights, not the table. So each anchor row is the
    direct sum and the other rows are one complex GEMM, (anchor x weights)
    @ offsets^T: span - 1 + ceil(steps / span) rows of exponentials in
    place of steps. Blocks go in groups of at most GROUP_CELLS anchor-scaled
    weights, so memory stays O((span + group) J) beside the output.
    """
    steps, (columns, size) = times.size, weights.shape
    span = math.isqrt(steps - 1) + 1
    group = span * max(1, GROUP_CELLS // max(1, columns * size))
    # e^{-ift} is conj(e^{ift}) bit for bit: one exponential per |freq|
    rates, at = np.unique(np.abs(freqs), return_inverse=True)

    def factors(t):
        table = np.take(_phase_factors(rates, t), at, axis=1)
        return np.conjugate(table, out=table, where=freqs < 0)

    offsets = factors(times[1:span])
    out = np.empty((-(-steps // span) * span, columns), dtype=np.complex128)
    for start in range(0, steps, group):
        scaled = factors(times[start : start + group : span])[:, None] * weights
        rows = out[start : start + group].reshape(len(scaled), span, columns)
        rows[:, 0] = scaled.sum(axis=-1)
        rest = scaled.reshape(-1, size) @ offsets.T
        rows[:, 1:] = rest.reshape(len(scaled), columns, span - 1).swapaxes(1, 2)
    return out[:steps]


def measure_atom(state: SystemState, basis: str = "plusminus"):
    """Project the atom onto (lower +- upper)/sqrt(2) ("plusminus") or onto
    the bare levels ("energy"). Returns the (plus, minus) outcome pair with
    renormalized field-only post states."""
    if state.tensor.shape[2] != 2:
        raise BadSubsystem("state carries no atom to measure")
    tensor = state.tensor
    if basis == "plusminus":
        branch_plus = (tensor[:, :, 0] + tensor[:, :, 1]) / math.sqrt(2.0)
        branch_minus = (tensor[:, :, 0] - tensor[:, :, 1]) / math.sqrt(2.0)
    elif basis == "energy":
        branch_plus = tensor[:, :, 1]
        branch_minus = tensor[:, :, 0]
    else:
        raise BadSubsystem(f"unknown measurement basis {basis!r}")

    def outcome(label, field):
        prob = float(np.vdot(field, field).real)
        if prob < 1e-15:
            return MeasurementOutcome(label, prob, None)
        post = SystemState(field[:, :, None] / math.sqrt(prob), state.basis)
        return MeasurementOutcome(label, prob, post)

    return outcome("plus", branch_plus), outcome("minus", branch_minus)


def _blocks(size: int, a, b, c, d) -> np.ndarray:
    """size real 2x2 blocks [[a, b], [c, d]]; scalars broadcast."""
    out = np.empty((size, 2, 2))
    out[:, 0, 0], out[:, 0, 1], out[:, 1, 0], out[:, 1, 1] = a, b, c, d
    return out


def _largest_norm(op, approx, left, right, rows, cols) -> float:
    """Largest spectral norm of the blocks left op right^T - approx, rows and
    cols masked by 0/1 weights. A real 2x2 block is a scaled rotation plus a
    scaled reflection, so its norm needs no SVD."""
    m = left @ op @ right.transpose(0, 2, 1) - approx
    m = m * rows[:, :, None] * cols[:, None, :]
    a, b, c, d = m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1]
    return float(np.max(0.5 * np.hypot(a + d, c - b) + 0.5 * np.hypot(a - d, b + c)))


def _elimination_sectors(g: float, delta: float, n_max: int):
    """Sectors k = 0..n_max + 1 of the elimination, each (k, lower) and
    (k - 1, upper). S = lambda (a sigma+ - a+ sigma-) keeps them, so e^S is a
    rotation by lambda sqrt(k) in each (Boissonneault, Gambetta & Blais,
    PRA 79, 013819); keep marks the levels with n <= n_max."""
    coupling_square(g)
    _check_dispersive(abs(g), (delta,))
    k = np.arange(n_max + 2, dtype=np.float64)
    lam = g / delta
    co, si = np.cos(lam * np.sqrt(k)), np.sin(lam * np.sqrt(k))
    keep = np.stack([k <= n_max, k >= 1], axis=-1).astype(np.float64)
    return k, lam, _blocks(k.size, co, -si, si, co), keep


def dispersive_norm(g: float, delta: float, n_max: int) -> float:
    """|| P H_dispersive P || on photon numbers <= n_max, set by (n_max, upper)."""
    return 0.5 * abs(delta) + (n_max + 1) * g * g / abs(delta)


def adiabatic_residual(g: float, delta: float, n_max: int) -> float:
    """Spectral-norm residual of the adiabatic elimination on photon numbers
    <= n_max: || P (e^S H e^-S - H_dispersive) P || with
    S = (g/delta)(a sigma+ - a+ sigma-) and
    H_dispersive = delta/2 sz + (g^2/delta)(n sz + upper).

    Scales as O(g^3/delta^2): doubling delta at fixed g cuts it ~4x.
    """
    k, lam, rot, keep = _elimination_sectors(g, delta, n_max)
    coupling, level = g * np.sqrt(k), 0.5 * delta + g * g / delta * k
    ham = _blocks(k.size, -0.5 * delta, coupling, coupling, 0.5 * delta)
    dispersive = _blocks(k.size, -level, 0, 0, level)
    return _largest_norm(ham, dispersive, rot, rot, keep, keep)


def elimination_operator_residuals(g: float, delta: float, n_max: int):
    """Residuals of the transformed-operator expansions on the projected
    block, keyed by operator. "mode" and "lowering" are accurate through
    first order in lambda = g/delta (residual O(lambda^2)); "inversion"
    through second order (residual O(lambda^3))."""
    k, lam, rot, keep = _elimination_sectors(g, delta, n_max)
    root, size = np.sqrt(k), k.size - 1
    # a, sigma- and a sigma_z map sector k to k - 1; sigma_z, a+ sigma- + a sigma+
    # and n sigma_z + sigma+ sigma- = k sigma_z keep it
    down = (rot[:-1], rot[1:], keep[:-1], keep[1:])
    mode = _blocks(size, root[1:], 0, 0, root[:-1])
    lowering = _blocks(size, 0, 1, 0, 0)
    mode_sz = _blocks(size, -root[1:], 0, 0, root[:-1])
    sz = _blocks(k.size, -1, 0, 0, 1)
    hop = _blocks(k.size, 0, root, root, 0)
    sz_approx = (1 - 2 * lam * lam * k)[:, None, None] * sz - 2 * lam * hop
    return {
        "mode": _largest_norm(mode, mode + lam * lowering, *down),
        "lowering": _largest_norm(lowering, lowering + lam * mode_sz, *down),
        "inversion": _largest_norm(sz, sz_approx, rot, rot, keep, keep),
    }
