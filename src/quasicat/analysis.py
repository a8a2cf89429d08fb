"""State diagnostics: reduced density matrices, entropy and purity, pure-state
fidelity, atomic inversion, and Husimi-Q phase-space grids."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    BadSubsystem,
    BasisMismatch,
    DimensionMismatch,
    GridTooSmall,
    NormViolation,
)
from .fock import FockVector
from .dynamics import SystemState

SUBSYSTEMS = ("mode1", "mode2", "atom")

# Eigenvalues below this are roundoff negativity and skipped in x ln x.
ENTROPY_CLAMP = 1e-14


@dataclass
class DensityMatrix:
    """Hermitian PSD matrix of unit trace over one or more subsystems.

    dims records the factor dimensions (in state layout order) so the
    matrix can be partially traced again. ket is the unit vector of a pure
    state built with from_ket, and None otherwise.
    """

    matrix: np.ndarray
    dims: tuple
    label: str = ""
    ket: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.complex128)
        size = int(np.prod(self.dims))
        if self.matrix.shape != (size, size):
            raise DimensionMismatch(
                f"matrix shape {self.matrix.shape} does not match dims {self.dims}"
            )
        scale = max(1.0, float(np.abs(self.matrix).max()))
        if not np.allclose(
            self.matrix, self.matrix.conj().T, rtol=0.0, atol=1e-8 * scale
        ):
            raise DimensionMismatch("density matrix is not Hermitian")
        tr = float(np.trace(self.matrix).real)
        if abs(tr - 1.0) > 1e-8:
            raise NormViolation(f"density matrix trace {tr} too far from 1")

    @classmethod
    def from_ket(cls, amps, label: str = "", dims=None) -> "DensityMatrix":
        """|psi><psi| of a unit ket, which is kept as rho.ket.

        The norm is checked with the trace tolerance above; the Hermitian
        check is skipped, as an outer product holds it by construction.
        dims defaults to one factor of the ket's size.
        """
        ket = np.asarray(amps, dtype=np.complex128)
        dims = (ket.size,) if dims is None else tuple(int(d) for d in dims)
        if ket.ndim != 1 or ket.size != int(np.prod(dims)):
            raise DimensionMismatch(
                f"ket shape {ket.shape} does not match dims {dims}"
            )
        norm_sq = float(np.vdot(ket, ket).real)
        if not abs(norm_sq - 1.0) <= 1e-8:
            raise NormViolation(f"ket norm squared {norm_sq} too far from 1")
        rho = cls.__new__(cls)
        rho.matrix = np.outer(ket, ket.conj())
        rho.dims = dims
        rho.label = label
        rho.ket = ket
        return rho


def _normalize_keep(keep) -> tuple:
    if isinstance(keep, str):
        keep = (keep,)
    keep = tuple(keep)
    for name in keep:
        if name not in SUBSYSTEMS:
            raise BadSubsystem(f"unknown subsystem {name!r}")
    if not keep:
        raise BadSubsystem("must keep at least one subsystem")
    # preserve state layout order regardless of argument order
    return tuple(name for name in SUBSYSTEMS if name in keep)


def partial_trace(
    state: Union[SystemState, DensityMatrix], keep
) -> DensityMatrix:
    """Reduced density matrix over the kept subsystems.

    Subsystem order in the output follows the state layout
    (mode1, mode2, atom), not the order of the keep argument.
    """
    keep = _normalize_keep(keep)
    kept_axes = [SUBSYSTEMS.index(name) for name in keep]
    traced = [i for i in range(3) if i not in kept_axes]
    if isinstance(state, SystemState):
        dims = state.tensor.shape
        rho = np.tensordot(state.tensor, np.conj(state.tensor), axes=(traced, traced))
    elif isinstance(state, DensityMatrix):
        dims = state.dims
        if len(dims) != 3:
            raise BadSubsystem("partial_trace over a DensityMatrix needs 3 factors")
        rho = state.matrix.reshape(*dims, *dims)
        # trace the highest axis first, so the lower axis numbers stay valid
        for axis in reversed(traced):
            rho = np.trace(rho, axis1=axis, axis2=axis + rho.ndim // 2)
    else:
        raise BadSubsystem("partial_trace takes a SystemState or DensityMatrix")
    kept_dims = tuple(int(dims[i]) for i in kept_axes)
    size = int(np.prod(kept_dims))
    return DensityMatrix(rho.reshape(size, size), kept_dims, "+".join(keep))


def entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy in nats; roundoff-negative eigenvalues clamped."""
    w = np.linalg.eigvalsh(rho.matrix)
    w = w[w > ENTROPY_CLAMP]
    return float(-np.sum(w * np.log(w)))


def purity(rho: DensityMatrix) -> float:
    """trace(rho^2); equals the squared Frobenius norm for Hermitian rho."""
    return float(np.vdot(rho.matrix, rho.matrix).real)


def _as_vector(state) -> np.ndarray:
    if isinstance(state, FockVector):
        return state.amps
    if isinstance(state, SystemState):
        return state.flat()
    return np.asarray(state, dtype=np.complex128).reshape(-1)


def fidelity(a, b) -> float:
    """|<a|b>|^2 for pure states (FockVector, SystemState, or raw arrays)."""
    if isinstance(a, SystemState) and isinstance(b, SystemState):
        if a.basis != b.basis:
            raise BasisMismatch("fidelity across different bases is meaningless")
    va = _as_vector(a)
    vb = _as_vector(b)
    if va.size != vb.size:
        raise DimensionMismatch(f"sizes {va.size} and {vb.size} differ")
    return float(np.abs(np.vdot(va, vb)) ** 2)


def pure_overlap(rho: DensityMatrix, target) -> float:
    """<target|rho|target> for a pure target; fidelity of a mixed state to a ray."""
    vec = _as_vector(target)
    if vec.size != rho.matrix.shape[0]:
        raise DimensionMismatch("target size does not match density matrix")
    return float(np.real(np.vdot(vec, rho.matrix @ vec)))


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    if rho.matrix.shape != sigma.matrix.shape:
        raise DimensionMismatch("density matrices differ in shape")
    w = np.linalg.eigvalsh(rho.matrix - sigma.matrix)
    return float(0.5 * np.sum(np.abs(w)))


def _amplitudes(state) -> np.ndarray:
    """The (..., dim1, dim2, 2) amplitude stack of a SystemState or array."""
    tensor = np.asarray(getattr(state, "tensor", state))
    if tensor.ndim < 3 or tensor.shape[-1] != 2:
        raise BadSubsystem("state carries no atom")
    return tensor


def _atom_density(state) -> np.ndarray:
    """rho_atom[..., s, t] = sum over the field of psi_s conj(psi_t)."""
    tensor = _amplitudes(state)
    levels = tensor.reshape(tensor.shape[:-3] + (-1, 2))
    return np.matmul(levels.swapaxes(-1, -2), levels.conj())


def _inversion(rho):
    return (rho[..., 1, 1].real - rho[..., 0, 0].real)[()]


def _purity(rho):
    return np.sum(rho.real**2 + rho.imag**2, axis=(-2, -1))[()]


def atomic_inversion(state):
    """<sigma_z> = P(upper) - P(lower) of a pure state: a SystemState or a
    (..., dim1, dim2, 2) amplitude stack, one value per leading index and a
    float for a single state. The stack observables below read alike."""
    return _inversion(_atom_density(state))


def atom_purity(state):
    """trace(rho_atom^2); purity(partial_trace(state, "atom")) of each state."""
    return _purity(_atom_density(state))


def atom_inversion_purity(state):
    """(atomic_inversion, atom_purity) of each state, from one atom density."""
    rho = _atom_density(state)
    return _inversion(rho), _purity(rho)


def mode_overlaps(state, rays) -> np.ndarray:
    """<ray|rho_1|ray> of each state's mode-1 reduced state, for each row of
    rays (n_rays, dim1), ray axis last; pure_overlap without forming rho_1."""
    tensor = _amplitudes(state)
    proj = np.matmul(np.conj(rays), tensor.reshape(tensor.shape[:-2] + (-1,)))
    return np.sum(proj.real**2 + proj.imag**2, axis=-1)


def mode_mean_photon(state):
    """mean_photon(partial_trace(state, "mode1")) of each state."""
    tensor = _amplitudes(state)
    *_, dim1, dim2, _ = tensor.shape
    flat = np.ascontiguousarray(tensor).reshape(tensor.shape[:-3] + (-1,))
    flat = flat.view(np.float64)
    # each level n holds dim2 x 2 amplitudes, so 4 dim2 floats
    number = np.repeat(np.arange(dim1, dtype=np.float64), 4 * dim2)
    return ((flat * flat) @ number)[()]


def mean_photon(rho: DensityMatrix) -> float:
    """<n> of a single-mode rho; from the ket alone when rho has one, whose
    |psi_n|^2 equals the diagonal of |psi><psi| bit for bit."""
    if len(rho.dims) != 1:
        raise BadSubsystem("mean_photon expects a single-mode density matrix")
    n = np.arange(rho.dims[0], dtype=np.float64)
    if rho.ket is not None:
        return float(np.sum(n * (rho.ket * rho.ket.conj()).real))
    return float(np.sum(n * np.diag(rho.matrix).real))


@dataclass
class PhaseSpaceGrid:
    """Husimi-Q samples: values[i, j] = Q(re_axis[j] + 1i im_axis[i])."""

    re_axis: np.ndarray
    im_axis: np.ndarray
    values: np.ndarray

    def cell_area(self) -> float:
        dre = float(self.re_axis[1] - self.re_axis[0])
        dim_ = float(self.im_axis[1] - self.im_axis[0])
        return dre * dim_

    def integral(self) -> float:
        """Riemann sum of Q over the grid; ~1 when the grid covers the state."""
        return float(np.sum(self.values) * self.cell_area())


def _as_axis(spec, default_limit: float, count: int) -> np.ndarray:
    if spec is None:
        return np.linspace(-default_limit, default_limit, count)
    spec = np.asarray(spec, dtype=np.float64)
    if spec.ndim == 1 and spec.size >= 2:
        return spec
    raise GridTooSmall("axis needs at least two points")


def husimi_q(
    rho: DensityMatrix,
    re_axis: Optional[Sequence[float]] = None,
    im_axis: Optional[Sequence[float]] = None,
    count: int = 101,
) -> PhaseSpaceGrid:
    """Q(alpha) = <alpha|rho|alpha>/pi for a single-mode density matrix.

    Default axes span [-L, L] with L = 1.5 (sqrt(<n>) + 2), wide enough for
    both lobes of a cat with margin. Supplied axes must still reach
    1.5 sqrt(<n>) or the grid is rejected. Values are clamped at 0 against
    roundoff and never exceed 1/pi.

    A rho built with DensityMatrix.from_ket is summed from its ket alone,
    and <n> comes from the ket too, so rho.matrix is never read; any other
    rho from its r eigenvectors, leaving out eigenvalues within eps of zero
    relative to the largest (that moves Q by at most d eps / pi).
    Q is the squared Gabor transform of each vector's wavefunction
    (quasicat.husimi): its Hermite sum at M trapezoid nodes, then for each
    position a window of w nodes and one FFT of length L over a uniform
    imaginary axis, or a (w x N_im) phase matrix over any other. That costs
    O(r d M + r N_re (w + L log L)), in place of O(N_re N_im d r) for a sum
    over the levels at each point. The vectors take the Hermite sum 64 at a
    time, so that its memory stays O(M) for any rank. M is at most
    (2K + 18)(2K + 26) / pi with K = sqrt(2d + 1), and about half that on
    the default axes (3200 at nbar 1400). Two margins, in the quadratures
    q, p = sqrt(2) (Re, Im) alpha, hold Q to roundoff: the window and the
    Hermite functions end 9 past their reach (below e^-40 there), and the
    node spacing keeps the aliases 13 past the momentum band (below
    e^-42). So Q reads 0, at no cost, past |q| = K + 18 or |p| = K + 13. A
    log-scale per node keeps e^{-x^2/2} from underflowing up to NBAR_MAX.
    """
    if len(rho.dims) != 1:
        raise BadSubsystem("husimi_q expects a single-mode density matrix")
    nbar = mean_photon(rho)
    limit = 1.5 * (math.sqrt(max(nbar, 0.0)) + 2.0)
    re_axis = _as_axis(re_axis, limit, count)
    im_axis = _as_axis(im_axis, limit, count)
    required = 1.5 * math.sqrt(max(nbar, 0.0))
    for axis in (re_axis, im_axis):
        if max(abs(float(axis[0])), abs(float(axis[-1]))) < required:
            raise GridTooSmall(
                f"axis reaches {max(abs(axis[0]), abs(axis[-1])):.2f} but the state"
                f" needs {required:.2f}"
            )
    if rho.ket is not None:
        weights, vectors = np.ones(1), rho.ket[:, None]
    else:
        weights, vectors = np.linalg.eigh(rho.matrix)
        keep = np.abs(weights) > np.finfo(np.float64).eps * np.abs(weights).max()
        weights, vectors = weights[keep], vectors[:, keep]
    # imported here, so that importing quasicat does not compile the kernel
    from .husimi import gabor_q

    values = np.maximum(gabor_q(weights, vectors, re_axis, im_axis), 0.0)
    return PhaseSpaceGrid(re_axis, im_axis, values)
