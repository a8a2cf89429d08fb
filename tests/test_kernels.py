import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from quasicat.analysis import _coherent_q
from quasicat.dynamics import (
    QUASI,
    SystemState,
    _effective_propagate,
    _jc_propagate,
    evolve_exact_jc,
)
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


def _excitation_distribution(psi):
    """Probability of each excitation number n + sigma_z/2 + 1/2 = k per batch
    column: (k, lower) and (k - 1, upper) share k."""
    pop = np.abs(psi) ** 2
    dist = np.zeros((psi.shape[0] + 1, psi.shape[1]))
    dist[:-1] += pop[:, :, 0]
    dist[1:] += pop[:, :, 1]
    return dist


JC_CASES = {
    "dim": st.integers(2, 20),
    "g": st.floats(0.05, 2.0, exclude_min=True),
    "delta": st.floats(-15.0, 15.0),
    "t": st.floats(0.0, 10.0),
    "batch": st.integers(1, 3),
    "seed": st.integers(0, 2**32 - 1),
}


def _check_matches_expm(dim, g, delta, t, batch, seed):
    psi = _random_state(np.random.default_rng(seed), dim, batch)
    out = _jc_propagate(psi, g, delta, t)
    u = scipy.linalg.expm(-1j * t * _jc_hamiltonian(dim, g, delta))
    for j in range(batch):
        expected = (u @ psi[:, j, :].ravel()).reshape(dim, 2)
        assert np.abs(out[:, j, :] - expected).max() < 1e-12


# resonant, moderate and dispersive detunings, pinned so each is always drawn
@pytest.mark.parametrize("delta", [0.0, 0.7, 12.0])
@settings(max_examples=50, deadline=None)
@given(**{k: v for k, v in JC_CASES.items() if k != "delta"})
def test_jc_propagate_matches_expm(delta, dim, g, t, batch, seed):
    _check_matches_expm(dim, g, delta, t, batch, seed)


@settings(max_examples=100, deadline=None)
@given(**JC_CASES)
def test_jc_propagate_matches_expm_any_detuning(dim, g, delta, t, batch, seed):
    _check_matches_expm(dim, g, delta, t, batch, seed)


@settings(max_examples=100, deadline=None)
@given(**JC_CASES)
def test_jc_propagate_preserves_norm(dim, g, delta, t, batch, seed):
    psi = _random_state(np.random.default_rng(seed), dim, batch)
    out = _jc_propagate(psi, g, delta, t)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12
    # the coupling only mixes (n, upper) with (n + 1, lower)
    drift = _excitation_distribution(out) - _excitation_distribution(psi)
    assert np.abs(drift).max() < 1e-12


def test_jc_propagate_batch_axis_is_independent():
    # evolving a batch equals evolving each column separately
    rng = np.random.default_rng(8)
    psi = _random_state(rng, 12, 4)
    out = _jc_propagate(psi, 1.1, 0.3, 1.9)
    for j in range(4):
        single = _jc_propagate(psi[:, j : j + 1, :].copy(), 1.1, 0.3, 1.9)
        assert np.abs(out[:, j : j + 1, :] - single).max() < 1e-13


@settings(max_examples=100, deadline=None)
@given(
    dim=st.integers(2, 40),
    g=st.floats(0.05, 2.0, exclude_min=True),
    delta=st.floats(-15.0, 15.0),
    times=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=50),
    seed=st.integers(0, 2**32 - 1),
)
def test_time_axis_equals_scalar_calls(dim, g, delta, times, seed):
    # each time on the axis is the scalar call at that time, for both models
    psi = _random_state(np.random.default_rng(seed), dim, 1)
    times = np.array(times)
    jc = _jc_propagate(psi, g, delta, times)
    assert jc.shape == (times.size, dim, 1, 2)
    state = SystemState(psi, QUASI)
    # the dispersive model is refused below |delta| = 5 g
    dispersive = np.copysign(abs(delta) + 5.0 * g, delta)
    effective = _effective_propagate(psi, g, dispersive, times)
    for k, t in enumerate(times):
        assert np.abs(jc[k] - _jc_propagate(psi, g, delta, t)).max() <= 1e-14
        assert np.abs(jc[k] - evolve_exact_jc(state, t, g, delta).tensor).max() <= 1e-14
        scalar = _effective_propagate(psi, g, dispersive, t)
        assert np.abs(effective[k] - scalar).max() <= 1e-14


def test_husimi_grid_against_coherent_overlap():
    dim = 25
    psi = coherent_state(0.8 + 0.5j, dim).amps
    re = np.array([0.0, 0.8, -1.0])
    im = np.array([0.5, -0.5])
    alphas = (re[None, :] + 1j * im[:, None]).ravel()
    q = _coherent_q(np.ones(1), psi[:, None], alphas).reshape(im.size, re.size)
    assert q.shape == (2, 3)
    for i, y in enumerate(im):
        for j, x in enumerate(re):
            probe = coherent_state(complex(x, y), dim).amps
            expected = abs(np.vdot(probe, psi)) ** 2 / np.pi
            assert abs(q[i, j] - expected) < 1e-12
