"""Truncated Fock-space states and operators for a single bosonic mode.

States are complex amplitude arrays over photon numbers 0..dim-1.
Constructors renormalize after truncation and record how much probability
mass fell beyond the edge; they refuse to proceed when that mass reaches
``leak_tol``, because silent truncation is the dominant numerical hazard
in everything built on top of this module.

Gate matrices (displacement, squeeze) are hopping-chain exponentials from
one real eigh per chain (_chain_gate), so they are unitary to roundoff on
the whole retained space (trusted-block buffer 0), not just away from the
edge. The canonical commutator [a, a+] still breaks on the last row; tests
that probe it must stop at n < dim - 1.

Every conserved quantity splits a basis into blocks: photon-number parity
for S(z), and across the package the total-photon shells, the n1 - n2
diagonals and the excitation sectors. One builder, _stack_by, lays any of
them out as a zero-padded stack of flat indices from an integer label per
basis state.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DimTooSmall,
    NonFiniteInput,
    ParameterOutOfRange,
)

# Default ceiling on probability mass allowed beyond the truncation edge.
LEAK_TOL = 1e-10

# exp(-|alpha|^2 / 2), the vacuum amplitude, underflows past this |alpha|^2.
NBAR_MAX = -2.0 * math.log(np.finfo(np.float64).tiny)

# Squeezed-vacuum tails decay like tanh(r)^{2m} / (sqrt(pi m) cosh r), so
# |z| <= 1.5 keeps the tail below LEAK_TOL for dim >= 60.
SQUEEZE_CAP = 1.5

# Role-agnostic container for operator matrices.
ComplexMatrix = np.ndarray


@dataclass
class TruncationReport:
    """What was asked for, at what dimension, and what leaked past the edge."""

    requested: tuple
    dim: int
    tail_mass: float


@dataclass
class FockVector:
    """Single-mode state over photon numbers 0..dim-1."""

    amps: np.ndarray
    dim: int
    report: TruncationReport | None = None

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=np.complex128)
        if self.dim < 1:
            raise DimTooSmall("FockVector needs dim >= 1")
        if self.amps.shape != (self.dim,):
            raise DimensionMismatch(
                f"amps shape {self.amps.shape} does not match dim {self.dim}"
            )
        if not np.all(np.isfinite(self.amps.view(np.float64))):
            raise NonFiniteInput("non-finite amplitude in FockVector")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def mean_photon(self) -> float:
        return float(np.sum(np.arange(self.dim) * np.abs(self.amps) ** 2))

    def overlap(self, other: "FockVector") -> complex:
        """Inner product <self|other>."""
        if self.dim != other.dim:
            raise DimensionMismatch("FockVector dims differ")
        return complex(np.vdot(self.amps, other.amps))


def _check_finite_scalar(value: complex, name: str) -> complex:
    value = complex(value)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise NonFiniteInput(f"{name} = {value!r}")
    return value


def coherent_nbar(alpha: complex) -> float:
    """|alpha|^2, refused above NBAR_MAX before a huge amplitude overflows."""
    r = abs(_check_finite_scalar(alpha, "alpha"))
    if r * r > NBAR_MAX:
        raise ParameterOutOfRange(
            f"coherent |alpha|^2 = {r * r:.6g} exceeds {NBAR_MAX:.1f},"
            " where exp(-|alpha|^2/2) underflows"
        )
    return r ** 2


def suggested_dim(alpha: complex) -> int:
    """Heuristic truncation for a coherent amplitude: |a|^2 + 5|a| + 10."""
    r = abs(alpha)
    return int(math.ceil(r * r + 5.0 * r + 10.0))


def coherent_dim(alpha: complex, leak_tol: float = LEAK_TOL) -> int:
    """Automatic truncation for |alpha> whose tail mass stays below leak_tol.

    suggested_dim(alpha) + 12 when its tail passes, which holds up to
    |alpha|^2 of about 100 at the default leak_tol. Otherwise the smallest n
    above that size whose Chernoff bound on the Poisson tail,
    e^{-nbar} (e nbar / n)^n, is at most leak_tol / 4.
    """
    dim = suggested_dim(alpha) + 12
    if _coherent_amps(alpha, dim)[1] < leak_tol:
        return dim
    nbar = coherent_nbar(alpha)
    target = math.log(0.25 * leak_tol)
    n = math.floor(nbar) + 1
    while n * (1.0 + math.log(nbar) - math.log(n)) - nbar > target:
        n += 1
    return max(n, dim + 1)


def basis_state(n: int, dim: int) -> FockVector:
    if dim < 1:
        raise DimTooSmall("dim must be >= 1")
    if not 0 <= n < dim:
        raise DimensionMismatch(f"photon number {n} outside 0..{dim - 1}")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[n] = 1.0
    return FockVector(amps, dim, TruncationReport((n,), dim, 0.0))


def coherent_state(alpha: complex, dim: int, leak_tol: float = LEAK_TOL) -> FockVector:
    """Coherent state |alpha> truncated to dim levels.

    Amplitudes follow c_{n+1} = c_n * alpha / sqrt(n+1) with
    c_0 = exp(-|alpha|^2 / 2), i.e. the ratio law
    c_{n+1}/c_n = e^{-i phi} sqrt(nbar/(n+1)) for alpha = sqrt(nbar) e^{-i phi}.
    coherent_dim(alpha, leak_tol) gives a dim whose true tail passes; the
    binding check is the computed tail mass, so a refusal at or above that
    dim is rounding in 1 - sum |c_n|^2.
    """
    if dim < 1:
        raise DimTooSmall("dim must be >= 1")
    amps, tail = _coherent_amps(alpha, dim)
    if tail >= leak_tol:
        need = coherent_dim(alpha, leak_tol)
        hint = (
            f"try dim >= {need}" if need > dim
            else "leak_tol is below the rounding error of the tail sum"
        )
        raise DimTooSmall(
            f"coherent tail mass {tail:.3e} >= leak_tol {leak_tol:.1e} at dim"
            f" {dim}; {hint}"
        )
    amps /= np.linalg.norm(amps)
    return FockVector(amps, dim, TruncationReport((complex(alpha),), dim, tail))


def _coherent_amps(alpha: complex, dim: int):
    """Unnormalized truncated amplitudes of |alpha> and the tail mass lost."""
    vacuum = math.exp(-0.5 * coherent_nbar(alpha))
    alpha = complex(alpha)
    amps = np.empty(dim, dtype=np.complex128)
    amps[0] = vacuum
    for n in range(1, dim):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    return amps, max(0.0, 1.0 - float(np.sum(np.abs(amps) ** 2)))


def squeezed_vacuum(z: complex, dim: int, leak_tol: float = LEAK_TOL) -> FockVector:
    """Squeezed vacuum S(z)|0> truncated to dim levels.

    Only even photon numbers are populated. |z| is capped at SQUEEZE_CAP;
    beyond that the slowly decaying even-n tail cannot be held at desk-scale
    dims (tail per term ~ tanh(r)^{2m} / (sqrt(pi m) cosh r)).
    """
    z = _check_finite_scalar(z, "z")
    if dim < 2:
        raise DimTooSmall("squeezed vacuum needs dim >= 2")
    r = abs(z)
    if r > SQUEEZE_CAP:
        raise ParameterOutOfRange(f"|z| = {r:.3f} exceeds cap {SQUEEZE_CAP}")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[0] = 1.0 / math.sqrt(math.cosh(r))
    if r > 0.0:
        factor = -(z / r) * math.tanh(r)
        c = amps[0]
        for m in range(1, (dim - 1) // 2 + 1):
            c = c * factor * math.sqrt((2 * m - 1) * (2 * m)) / (2 * m)
            amps[2 * m] = c
    tail = max(0.0, 1.0 - float(np.sum(np.abs(amps) ** 2)))
    if tail >= leak_tol:
        raise DimTooSmall(
            f"squeezed tail mass {tail:.3e} >= leak_tol {leak_tol:.1e} at dim {dim}"
        )
    amps /= np.linalg.norm(amps)
    return FockVector(amps, dim, TruncationReport((z,), dim, tail))


def ladder_matrix(dim: int) -> ComplexMatrix:
    """Annihilation operator: sqrt(n) at positions (n-1, n). Creation is the
    conjugate transpose."""
    if dim < 2:
        raise DimTooSmall("ladder_matrix needs dim >= 2")
    return np.diag(np.sqrt(np.arange(1, dim, dtype=np.float64)), k=1).astype(
        np.complex128
    )


def expm_antihermitian(gen: np.ndarray) -> ComplexMatrix:
    """exp(gen) for antihermitian gen, via eigendecomposition of i*gen.

    Unitary to roundoff, unlike a power series. No package gate calls it.
    """
    gen = np.asarray(gen, dtype=np.complex128)
    herm = 1j * gen
    scale = max(1.0, float(np.abs(herm).max()))
    if not np.allclose(herm, herm.conj().T, rtol=0.0, atol=1e-12 * scale):
        raise DimensionMismatch("generator is not antihermitian")
    w, vecs = np.linalg.eigh(herm)
    return (vecs * np.exp(-1j * w)) @ vecs.conj().T


def _chain_trig(hops: np.ndarray, angle: float) -> np.ndarray:
    """cos(angle T) on even offsets k - l and sin(angle T) on odd ones, for a
    stack of real tridiagonal T with hops (..., m - 1) on both off-diagonals.

    A chain is bipartite, so cos(angle T), even in T, vanishes on odd offsets
    and sin(angle T), odd in T, on even ones: exp(-i angle T) is this matrix
    with -i on odd offsets. One real eigh takes the stack; a zero hop cuts a
    chain, so padded sites never mix into it.
    """
    size = hops.shape[-1] + 1
    ham = np.zeros(hops.shape[:-1] + (size, size))
    k = np.arange(size - 1)
    ham[..., k + 1, k] = ham[..., k, k + 1] = hops
    w, u = np.linalg.eigh(ham)
    ut = np.swapaxes(u, -1, -2)
    even, odd = ((u * f(angle * w)[..., None, :]) @ ut for f in (np.cos, np.sin))
    offset = np.arange(size)[:, None] - np.arange(size)
    return np.where(offset % 2, odd, even)


def _chain_gate(hops: np.ndarray, c: complex) -> ComplexMatrix:
    """exp(c* L - c L^T) for the stack of L with real hops (..., m - 1) on the
    superdiagonal: diag(e^{i psi k}), psi = arg c - pi/2, carries the
    generator to -i |c| T, so the gate is e^{i psi (k - l)} exp(-i |c| T)_kl."""
    offset = np.arange(hops.shape[-1] + 1)[:, None] - np.arange(hops.shape[-1] + 1)
    phase = np.exp(1j * (cmath.phase(c) - 0.5 * math.pi) * offset)
    return _chain_trig(hops, abs(c)) * phase * np.where(offset % 2, -1j, 1.0)


def _stack_by(label: np.ndarray, count: int):
    """(index, inside): row s of index holds the flat indices where label is
    s, ascending and zero-padded, for s = 0 .. count - 1; inside marks the
    entries that exist. Labels are nonnegative, and those >= count are left
    out."""
    label = np.ravel(label)
    flat = np.flatnonzero(label < count)
    sizes = np.bincount(label[flat], minlength=count)
    inside = np.arange(sizes.max(initial=0)) < sizes[:, None]
    index = np.zeros(inside.shape, dtype=np.intp)
    index[inside] = flat[np.argsort(label[flat], kind="stable")]
    return index, inside


def _block_diagonal(index, inside, blocks, size: int) -> np.ndarray:
    """The size x size matrix with blocks[s] on the rows and columns
    index[s, inside[s]], zero elsewhere."""
    pick = inside[:, :, None] & inside[:, None, :]
    out = np.zeros((size, size), dtype=blocks.dtype)
    s, k, l = np.nonzero(pick)
    out[index[s, k], index[s, l]] = blocks[pick]
    return out


def _squeeze_gate(z: complex, dim: int) -> ComplexMatrix:
    """S(z) on dim levels: a^2 hops sqrt((n + 1)(n + 2)) from n + 2 to n, so
    S(z) is the chain gate with c = z/2 on the even and on the odd levels."""
    if dim < 2:
        raise DimTooSmall("the squeeze gate needs dim >= 2")
    levels, inside = _stack_by(np.arange(dim) % 2, 2)
    hops = np.sqrt((levels[:, :-1] + 1.0) * (levels[:, :-1] + 2.0)) * inside[:, 1:]
    return _block_diagonal(levels, inside, _chain_gate(hops, 0.5 * z), dim)


def displacement_matrix(
    alpha: complex, dim: int, leak_tol: float = LEAK_TOL
) -> ComplexMatrix:
    """D(alpha) = exp(alpha a+ - alpha* a): the chain gate of a with c = -alpha."""
    if dim < 2:
        raise DimTooSmall("displacement_matrix needs dim >= 2")
    # reuse the coherent-state tail check for sizing
    coherent_state(alpha, dim, leak_tol)
    return _chain_gate(np.sqrt(np.arange(1.0, dim)), -alpha)


def squeeze_matrix(z: complex, dim: int, leak_tol: float = LEAK_TOL) -> ComplexMatrix:
    """Squeeze S(z) = exp((z* a^2 - z a+^2)/2) on the truncated space."""
    squeezed_vacuum(z, dim, leak_tol)
    return _squeeze_gate(z, dim)


def coherent_overlap(alpha: complex, beta: complex) -> complex:
    """Analytic <alpha|beta> = exp(-|alpha|^2/2 - |beta|^2/2 + conj(alpha) beta)."""
    alpha = _check_finite_scalar(alpha, "alpha")
    beta = _check_finite_scalar(beta, "beta")
    return cmath.exp(
        -0.5 * abs(alpha) ** 2 - 0.5 * abs(beta) ** 2 + np.conj(alpha) * beta
    )
