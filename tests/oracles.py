"""Reference implementations that the runtime package no longer ships.

The tests compare the per-sector runtime code against these. They build the
full (2 dim)^2 single-mode-plus-atom matrices and the (2 dim1 dim2)^2
two-mode matrices of every Hamiltonian variant, so they are slow at large
dim and serve only as an independent check. csv_rows is the per-row writer
that the CSV kernel replaced. gaussian_composition_residual checks the
squeeze composition law on 4x4 Bogoliubov matrices, with no truncation.
"""

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from quasicat.dynamics import (
    SIGMA_Z,
    _check_dispersive,
    coupling_square,
    excitation_diagonal,
)
from quasicat.errors import BothCouplingsZero, DimTooSmall, QuasicatError
from quasicat.fock import (
    ComplexMatrix,
    coherent_state,
    expm_antihermitian,
    ladder_matrix,
)
from quasicat.modes import ModeRotation, decouple_params, squeeze_composition


class InvalidVariantParams(QuasicatError):
    """Hamiltonian variant given missing or meaningless parameters. No
    runtime code raises it; only the dense variant reference below does."""


# Atom basis order (lower, upper).
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_MINUS = SIGMA_PLUS.conj().T

VARIANTS = (
    "lab",
    "interaction",
    "quasiJC",
    "effectiveEqualFreq",
    "effectiveFalse",
    "effectiveCorrect",
    "decoupled",
)


@dataclass
class HamiltonianSpec:
    """Tagged model variant plus the parameters that variant actually uses."""

    variant: str
    g: Optional[float] = None
    g1: Optional[float] = None
    g2: Optional[float] = None
    delta: Optional[float] = None
    delta1: Optional[float] = None
    delta2: Optional[float] = None
    atom_freq: Optional[float] = None
    omega1: Optional[float] = None
    omega2: Optional[float] = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise InvalidVariantParams(f"unknown variant {self.variant!r}")

    @classmethod
    def lab(cls, g1, g2, atom_freq, omega1, omega2):
        return cls(
            "lab", g1=g1, g2=g2, atom_freq=atom_freq, omega1=omega1, omega2=omega2
        )

    @classmethod
    def interaction(cls, g1, g2, delta):
        return cls("interaction", g1=g1, g2=g2, delta=delta)

    @classmethod
    def quasi_jc(cls, g, delta):
        return cls("quasiJC", g=g, delta=delta)

    @classmethod
    def effective_equal_freq(cls, g, delta):
        _check_dispersive(abs(g), (delta,))
        return cls("effectiveEqualFreq", g=g, delta=delta)

    @classmethod
    def effective_false(cls, g1, g2, delta1, delta2):
        _check_dispersive(math.hypot(g1, g2), (delta1, delta2))
        return cls("effectiveFalse", g1=g1, g2=g2, delta1=delta1, delta2=delta2)

    @classmethod
    def effective_correct(cls, g1, g2, delta1, delta2):
        _check_dispersive(math.hypot(g1, g2), (delta1, delta2))
        return cls("effectiveCorrect", g1=g1, g2=g2, delta1=delta1, delta2=delta2)

    @classmethod
    def decoupled(cls, g1, g2, delta1, delta2):
        _check_dispersive(math.hypot(g1, g2), (delta1, delta2))
        return cls("decoupled", g1=g1, g2=g2, delta1=delta1, delta2=delta2)


def _require(spec: HamiltonianSpec, *names):
    vals = []
    for name in names:
        v = getattr(spec, name)
        if v is None:
            raise InvalidVariantParams(f"variant {spec.variant!r} needs {name}")
        vals.append(float(v))
    return vals


def _effective_detuning(g1, g2, delta1, delta2):
    # free atomic term chosen so g2 = 0 reduces to the single-mode dispersive
    # form with delta1, and equal couplings/detunings reduce to delta
    shifts = g1 * g1 / delta1 + g2 * g2 / delta2
    if shifts == 0.0:
        raise InvalidVariantParams("intensity shifts cancel; detuning ill-defined")
    return (g1 * g1 + g2 * g2) / shifts


def dense_hamiltonian(spec: HamiltonianSpec, dim1: int, dim2: int) -> ComplexMatrix:
    """Dense Hermitian matrix for the requested variant on
    (dim1 x dim2 x 2), flattened in C order."""
    if dim1 < 2 or dim2 < 2:
        raise DimTooSmall("dense_hamiltonian needs dims >= 2")
    a = ladder_matrix(dim1)
    b = ladder_matrix(dim2)
    id1 = np.eye(dim1, dtype=np.complex128)
    id2 = np.eye(dim2, dtype=np.complex128)
    id_atom = np.eye(2, dtype=np.complex128)
    num1 = a.conj().T @ a
    num2 = b.conj().T @ b

    def emb(m1, m2, atom):
        return np.kron(np.kron(m1, m2), atom)

    sz = emb(id1, id2, SIGMA_Z)

    def up_proj():
        # only the dispersive variants carry the upper-level projector
        return emb(id1, id2, SIGMA_PLUS @ SIGMA_MINUS)

    variant = spec.variant
    if variant == "lab":
        g1, g2, atom_freq, omega1, omega2 = _require(
            spec, "g1", "g2", "atom_freq", "omega1", "omega2"
        )
        raising = g1 * emb(a, id2, SIGMA_PLUS) + g2 * emb(id1, b, SIGMA_PLUS)
        return (
            0.5 * atom_freq * sz
            + omega1 * emb(num1, id2, id_atom)
            + omega2 * emb(id1, num2, id_atom)
            + raising
            + raising.conj().T
        )
    if variant == "interaction":
        g1, g2, delta = _require(spec, "g1", "g2", "delta")
        raising = g1 * emb(a, id2, SIGMA_PLUS) + g2 * emb(id1, b, SIGMA_PLUS)
        return 0.5 * delta * sz + raising + raising.conj().T
    if variant == "quasiJC":
        g, delta = _require(spec, "g", "delta")
        raising = g * emb(a, id2, SIGMA_PLUS)
        return 0.5 * delta * sz + raising + raising.conj().T
    if variant == "effectiveEqualFreq":
        g, delta = _require(spec, "g", "delta")
        shift = g * g / delta
        return 0.5 * delta * sz + shift * emb(num1, id2, SIGMA_Z) + shift * up_proj()
    if variant in ("effectiveFalse", "effectiveCorrect"):
        g1, g2, delta1, delta2 = _require(spec, "g1", "g2", "delta1", "delta2")
        if g1 == 0.0 and g2 == 0.0:
            raise BothCouplingsZero("effective variants need a nonzero coupling")
        delta_eff = _effective_detuning(g1, g2, delta1, delta2)
        ham = (
            0.5 * delta_eff * sz
            + (g1 * g1 / delta1) * emb(num1, id2, SIGMA_Z)
            + (g2 * g2 / delta2) * emb(id1, num2, SIGMA_Z)
        )
        if variant == "effectiveCorrect":
            cross = 0.5 * g1 * g2 * (1.0 / delta1 + 1.0 / delta2)
            hop = emb(a.conj().T, b, id_atom)
            ham = ham + cross * ((hop + hop.conj().T) @ sz)
            ham = ham + (g1 * g1 / delta1 + g2 * g2 / delta2) * up_proj()
        return ham
    if variant == "decoupled":
        g1, g2, delta1, delta2 = _require(spec, "g1", "g2", "delta1", "delta2")
        if g1 == 0.0 and g2 == 0.0:
            raise BothCouplingsZero("decoupled variant needs a nonzero coupling")
        params = decouple_params(g1, g2, delta1, delta2)
        delta_eff = _effective_detuning(g1, g2, delta1, delta2)
        return (
            0.5 * delta_eff * sz
            + params.lambda_mode * emb(num1, id2, SIGMA_Z)
            + params.zeta_mode * emb(id1, num2, SIGMA_Z)
            + (params.lambda_mode + params.zeta_mode) * up_proj()
        )
    raise InvalidVariantParams(f"unknown variant {variant!r}")


def excitation_number(dim1: int, dim2: int) -> ComplexMatrix:
    """Conserved excitation count: sigma_z/2 + n1 + n2 on the full space."""
    return np.diag(excitation_diagonal(dim1, dim2)).astype(np.complex128)


def dense_from_triplets(triplets, size: int) -> ComplexMatrix:
    """The size x size matrix of (rows, cols, values) triplets, duplicates
    summed."""
    rows, cols, values = triplets
    out = np.zeros((size, size), dtype=np.complex128)
    np.add.at(out, (rows, cols), values)
    return out




def _single_mode_atom_ops(dim: int):
    a = ladder_matrix(dim)
    id_f = np.eye(dim, dtype=np.complex128)
    return (
        np.kron(a, np.eye(2)),
        np.kron(id_f, SIGMA_Z),
        np.kron(id_f, SIGMA_PLUS),
        np.kron(id_f, SIGMA_MINUS),
    )


def _elimination_pieces(g: float, delta: float, dim: int, n_max: int):
    if n_max + 8 > dim:
        raise DimTooSmall("need dim >= n_max + 8 so the projector stays interior")
    coupling_square(g)
    _check_dispersive(abs(g), (delta,))
    a, sz, sp, sm = _single_mode_atom_ops(dim)
    lam = g / delta
    unitary = expm_antihermitian(lam * ((a @ sp) - (a.conj().T @ sm)))
    keep = (np.arange(dim) <= n_max).astype(np.float64)
    proj = np.kron(np.diag(keep), np.eye(2))
    return a, sz, sp, sm, lam, unitary, proj


def dispersive_hamiltonian(g: float, delta: float, dim: int) -> ComplexMatrix:
    """Single-mode dispersive form: delta/2 sz + (g^2/delta)(n sz + upper)."""
    a, sz, sp, sm = _single_mode_atom_ops(dim)
    shift = g * g / delta
    number = a.conj().T @ a
    return 0.5 * delta * sz + shift * (number @ sz) + shift * (sp @ sm)


def adiabatic_residual(g: float, delta: float, dim: int, n_max: int) -> float:
    """Spectral-norm residual of the adiabatic elimination on photon numbers
    <= n_max: || P (e^S H e^-S - H_dispersive) P || with
    S = (g/delta)(a sigma+ - a+ sigma-).

    Scales as O(g^3/delta^2): doubling delta at fixed g cuts it ~4x.
    """
    a, sz, sp, sm, lam, unitary, proj = _elimination_pieces(g, delta, dim, n_max)
    ham = 0.5 * delta * sz + g * ((a @ sp) + (a.conj().T @ sm))
    transformed = unitary @ ham @ unitary.conj().T
    diff = proj @ (transformed - dispersive_hamiltonian(g, delta, dim)) @ proj
    return float(np.linalg.norm(diff, 2))


def elimination_operator_residuals(g: float, delta: float, dim: int, n_max: int):
    """Residuals of the transformed-operator expansions on the projected
    block, keyed by operator. "mode" and "lowering" are accurate through
    first order in lambda = g/delta (residual O(lambda^2)); "inversion"
    through second order (residual O(lambda^3))."""
    a, sz, sp, sm, lam, unitary, proj = _elimination_pieces(g, delta, dim, n_max)
    number = a.conj().T @ a

    def resid(op, approx):
        return float(
            np.linalg.norm(proj @ (unitary @ op @ unitary.conj().T - approx) @ proj, 2)
        )

    return {
        "mode": resid(a, a + lam * sm),
        "lowering": resid(sm, sm + lam * (a @ sz)),
        "inversion": resid(
            sz,
            sz
            - 2.0 * lam * (a.conj().T @ sm + a @ sp)
            - 2.0 * lam * lam * (number @ sz)
            - 2.0 * lam * lam * (sp @ sm),
        ),
    }


def dispersive_coherent_state(
    t: float,
    mu: complex,
    gamma: complex,
    delta_amp: complex,
    g: float,
    delta: float,
    dim: int,
) -> np.ndarray:
    """Closed form of the dispersive evolution of |mu>(gamma|lower> +
    delta_amp|upper>) on quasi mode I, as a (dim, 1, 2) tensor:
    gamma e^{i delta t/2} |mu e^{i chi t}>|lower> +
    delta_amp e^{-i (delta/2 + chi) t} |mu e^{-i chi t}>|upper>, chi = g^2/delta.

    The photon-number phases e^{+-i chi n t} only rotate the coherent
    amplitude, and a truncated coherent state rotates with it."""
    chi = g * g / delta
    lower = gamma * np.exp(0.5j * delta * t) * coherent_state(
        mu * np.exp(1j * chi * t), dim
    ).amps
    upper = delta_amp * np.exp(-1j * (0.5 * delta + chi) * t) * coherent_state(
        mu * np.exp(-1j * chi * t), dim
    ).amps
    return np.stack([lower, upper], axis=-1)[:, None, :]


def grid_peaks_loop(grid, top: int = 2, min_separation: float = 0.5):
    """The per-point loop that cli._grid_peaks replaced with one array
    comparison against the four neighbours; it must pick the same peaks.
    Candidates whose Q lies within 1e-12 relative of the largest one left
    are a tie and go by grid position, im then re."""
    values = grid.values
    found = []
    for i in range(1, values.shape[0] - 1):
        for j in range(1, values.shape[1] - 1):
            v = values[i, j]
            if v < 1e-4:
                continue
            if (
                v >= values[i - 1, j]
                and v >= values[i + 1, j]
                and v >= values[i, j - 1]
                and v >= values[i, j + 1]
            ):
                found.append((float(v), float(grid.re_axis[j]), float(grid.im_axis[i])))
    found.sort(reverse=True)
    ordered = []
    while found:
        ties = [c for c in found if c[0] >= found[0][0] * (1.0 - 1e-12)]
        ordered += sorted(ties, key=lambda c: (c[2], c[1]))
        found = [c for c in found if c not in ties]
    picked = []
    for v, re, im in ordered:
        if all(
            math.hypot(re - p["re"], im - p["im"]) > min_separation for p in picked
        ):
            picked.append({"q": v, "re": re, "im": im})
        if len(picked) == top:
            break
    return picked


def husimi_grid(rho, re_axis, im_axis):
    """Q(alpha) = <alpha|rho|alpha>/pi on a rectangular grid.

    Returns values[i, j] for alpha = re_axis[j] + 1i im_axis[i].
    The dense body that analysis.husimi_q replaced (it now takes a Gabor
    transform of a factor of rho, quasicat.husimi). It costs O(points d^2),
    and e^{-|alpha|^2/2} underflows to 0 past |alpha|^2 of about 1490, so it
    is a reference below that only.
    """
    d = rho.shape[0]
    alphas = (re_axis[None, :] + 1j * im_axis[:, None]).ravel()
    coh = np.empty((alphas.size, d), dtype=np.complex128)
    coh[:, 0] = np.exp(-0.5 * np.abs(alphas) ** 2)
    for n in range(1, d):
        coh[:, n] = coh[:, n - 1] * alphas / np.sqrt(n)
    q = np.einsum("pr,pr->p", np.conj(coh), coh @ rho.T).real / np.pi
    return q.reshape(im_axis.size, re_axis.size)


def cat_husimi(mu: complex, nbar: float, convention: int, alphas) -> np.ndarray:
    """Q(alpha) of the untruncated cat that dynamics.cat_target truncates:
    (e^{i theta}|i mu> - convention e^{-i theta}|-i mu>) / N, theta = pi nbar/2.

    <alpha|gamma> = exp(-|alpha|^2/2 - |gamma|^2/2 + conj(alpha) gamma) is
    taken in the log domain with the larger branch exponent factored out, and
    N^2 = 2 - 2 convention cos(2 theta) e^{-2|mu|^2} keeps the branch overlap.
    """
    mu = complex(mu)
    alphas = np.asarray(alphas, dtype=np.complex128)
    theta = 0.5 * math.pi * nbar
    base = -0.5 * np.abs(alphas) ** 2 - 0.5 * abs(mu) ** 2
    plus = base + np.conj(alphas) * (1j * mu) + 1j * theta
    minus = base - np.conj(alphas) * (1j * mu) - 1j * theta
    top = np.maximum(plus.real, minus.real)
    branches = np.exp(plus - top) - convention * np.exp(minus - top)
    overlap = math.exp(-2.0 * abs(mu) ** 2)
    norm_sq = 2.0 - 2.0 * convention * math.cos(2.0 * theta) * overlap
    return np.exp(2.0 * top) * np.abs(branches) ** 2 / (math.pi * norm_sq)


def cat_husimi_bound(nbar: float, convention: int, leak_tol: float) -> float:
    """Largest |Q_truncated - Q_exact| that a leak_tol truncation allows.

    cat_target normalizes P phi~, with phi~ = e^{i theta}|i mu> - c e^{-i theta}
    |-i mu> of norm N and P the projector on dim levels (each branch is scaled
    by the same 1/||P|branch>||, as both share |c_n|). Each branch leaves a tail
    of mass at most leak_tol, so the unit cat phi = phi~/N has tail mass
    eps <= (2 sqrt(leak_tol))^2 / N^2. For psi = P phi / ||P phi||,
    ||psi - phi||^2 = (1 - sqrt(1 - eps))^2 + eps <= 2 eps, and
    |Q_psi - Q_phi| = ||<b|psi>|^2 - |<b|phi>|^2| / pi <= 2 ||psi - phi|| / pi.
    N^2 = 2 - 2 c cos(pi nbar) e^{-2 nbar} >= 2 - 2/e at nbar >= 0.5, so the
    bound stays near 1.6e-5 at leak_tol 1e-10. The 1e-12 covers roundoff in
    both sums.
    """
    norm_sq = 2.0 - 2.0 * convention * math.cos(math.pi * nbar) * math.exp(-2.0 * nbar)
    eps = 4.0 * leak_tol / norm_sq
    return 2.0 * math.sqrt(2.0 * eps) / math.pi + 1e-12


def csv_rows(table) -> bytes:
    """CSV lines of a 2-D table as the per-row writer formed them: one
    "%.17e"-joined %-format per row, each cell as format(float(v), ".17e")."""
    line = ",".join(["%.17e"] * table.shape[1]) + "\n"
    return "".join(line % tuple(map(float, row)) for row in table).encode()


def _bogoliubov(u, v) -> np.ndarray:
    """M with U+ x U = M x on x = (a, b, a+, b+), for the Gaussian unitary U
    with U+ (a, b) U = u (a, b) + v (a+, b+). The M of a product U1 U2 is
    M1 M2 (Weedbrook et al., RMP 84, 621 (2012))."""
    return np.block([[u, v], [np.conj(v), np.conj(u)]])


def _squeeze_pair(z1: complex, z2: complex) -> np.ndarray:
    """S_1(z1) S_2(z2): S+ a S = cosh(r) a - e^{i phi} sinh(r) a+ for each
    mode, with z = r e^{i phi}."""
    r = np.abs([z1, z2])
    v = -np.exp(1j * np.angle([z1, z2])) * np.sinh(r)
    return _bogoliubov(np.diag(np.cosh(r)), np.diag(v))


def gaussian_composition_residual(rot: ModeRotation, z1: complex, z2: complex) -> float:
    """2-norm of M[S_1(z1) S_2(z2)] - M[R+ TMS(p) (S(q) x S(q)) R] for the
    (p, q) of squeeze_composition: the law squeeze_identity_residual checks
    in Fock space, without truncation.

    R+ a R = cos(theta) a + sin(theta) b, and TMS(p) = exp(p* a b - p a+ b+)
    takes a to cosh|p| a - e^{i arg p} sinh|p| b+.
    """
    p, q = squeeze_composition(rot, z1, z2)
    c, s = math.cos(rot.theta), math.sin(rot.theta)
    rotation = _bogoliubov(np.array([[c, s], [-s, c]]), np.zeros((2, 2)))
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    tms = _bogoliubov(
        math.cosh(abs(p)) * np.eye(2),
        -cmath.exp(1j * cmath.phase(p)) * math.sinh(abs(p)) * swap,
    )
    right = rotation.T @ tms @ _squeeze_pair(q, q) @ rotation
    return float(np.linalg.norm(_squeeze_pair(z1, z2) - right, 2))
