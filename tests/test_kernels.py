import numpy as np
import pytest
import scipy.linalg

from quasicat.analysis import _husimi_grid
from quasicat.dynamics import _jc_propagate
from quasicat.fock import coherent_state, ladder_matrix


def _random_state(rng, dim, batch):
    psi = rng.normal(size=(dim, batch, 2)) + 1j * rng.normal(size=(dim, batch, 2))
    return psi / np.linalg.norm(psi)


def _jc_hamiltonian(dim, g, delta):
    a = ladder_matrix(dim)
    sz = np.diag([-1.0, 1.0]).astype(complex)
    sp = np.array([[0, 0], [1, 0]], dtype=complex)
    h = 0.5 * delta * np.kron(np.eye(dim), sz)
    h += g * (np.kron(a, sp) + np.kron(a.conj().T, sp.conj().T))
    return h


@pytest.mark.parametrize("delta", [0.0, 0.7, 12.0])
def test_jc_propagate_matches_expm(delta):
    dim, g, t = 16, 1.3, 2.7
    rng = np.random.default_rng(3)
    psi = _random_state(rng, dim, 1)
    out = _jc_propagate(psi, g, delta, t)
    u = scipy.linalg.expm(-1j * t * _jc_hamiltonian(dim, g, delta))
    expected = (u @ psi[:, 0, :].ravel()).reshape(dim, 1, 2)
    assert np.abs(out - expected).max() < 1e-12


def test_jc_propagate_preserves_norm():
    rng = np.random.default_rng(5)
    psi = _random_state(rng, 24, 3)
    out = _jc_propagate(psi, 0.9, 1.4, 5.0)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_jc_propagate_batch_axis_is_independent():
    # evolving a batch equals evolving each column separately
    rng = np.random.default_rng(8)
    psi = _random_state(rng, 12, 4)
    out = _jc_propagate(psi, 1.1, 0.3, 1.9)
    for j in range(4):
        single = _jc_propagate(psi[:, j : j + 1, :].copy(), 1.1, 0.3, 1.9)
        assert np.abs(out[:, j : j + 1, :] - single).max() < 1e-13


def test_husimi_grid_against_coherent_overlap():
    dim = 25
    psi = coherent_state(0.8 + 0.5j, dim).amps
    rho = np.outer(psi, np.conj(psi))
    re = np.array([0.0, 0.8, -1.0])
    im = np.array([0.5, -0.5])
    q = _husimi_grid(rho, re, im)
    assert q.shape == (2, 3)
    for i, y in enumerate(im):
        for j, x in enumerate(re):
            probe = coherent_state(complex(x, y), dim).amps
            expected = abs(np.vdot(probe, psi)) ** 2 / np.pi
            assert abs(q[i, j] - expected) < 1e-12
