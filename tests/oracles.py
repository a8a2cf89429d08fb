"""Dense reference implementations that the runtime package no longer ships.

The tests compare the per-sector runtime code against these. They build the
full (2 dim)^2 single-mode-plus-atom matrices, so they are slow at large dim
and serve only as an independent check.
"""

import numpy as np

from quasicat.dynamics import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Z,
    _check_dispersive,
    coupling_square,
)
from quasicat.errors import DimTooSmall
from quasicat.fock import ComplexMatrix, expm_antihermitian, ladder_matrix


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
