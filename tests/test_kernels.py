import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import quasicat.cli as cli
from quasicat.analysis import DensityMatrix, husimi_q
from quasicat.cli import _axis_blocks, _time_chunks
from quasicat.dynamics import (
    QUASI,
    SystemState,
    _effective_model,
    _jc_model,
    _phase_factors,
    _propagate,
    evolve_exact_jc,
)
from quasicat.fock import (
    _block_diagonal,
    _chain_gate,
    _stack_by,
    coherent_state,
    displacement_matrix,
    ladder_matrix,
    squeeze_matrix,
)
from quasicat.modes import _diagonal_stack
from quasicat.husimi import gabor_plan, gabor_q


def _evolve(model, psi, g, delta, t):
    """model's evolution of psi at a scalar t or an array of times."""
    rates, field = model(psi, g, delta)
    return _propagate(psi, field, _phase_factors(rates, t))


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
    out = _evolve(_jc_model, psi, g, delta, t)
    u = scipy.linalg.expm(-1j * t * _jc_hamiltonian(dim, g, delta))
    for j in range(batch):
        expected = (u @ psi[:, j, :].ravel()).reshape(dim, 2)
        assert np.abs(out[:, j, :] - expected).max() < 1e-12


# resonant, moderate and dispersive detunings, pinned so each is always drawn
@pytest.mark.parametrize("delta", [0.0, 0.7, 12.0])
@settings(max_examples=50, deadline=None)
@given(**{k: v for k, v in JC_CASES.items() if k != "delta"})
def test_jc_propagation_matches_expm(delta, dim, g, t, batch, seed):
    _check_matches_expm(dim, g, delta, t, batch, seed)


@settings(max_examples=100, deadline=None)
@given(**JC_CASES)
def test_jc_propagation_matches_expm_any_detuning(dim, g, delta, t, batch, seed):
    _check_matches_expm(dim, g, delta, t, batch, seed)


@settings(max_examples=100, deadline=None)
@given(**JC_CASES)
def test_jc_propagation_preserves_norm(dim, g, delta, t, batch, seed):
    psi = _random_state(np.random.default_rng(seed), dim, batch)
    out = _evolve(_jc_model, psi, g, delta, t)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12
    # the coupling only mixes (n, upper) with (n + 1, lower)
    drift = _excitation_distribution(out) - _excitation_distribution(psi)
    assert np.abs(drift).max() < 1e-12


def test_jc_propagation_batch_axis_is_independent():
    # evolving a batch equals evolving each column separately
    rng = np.random.default_rng(8)
    psi = _random_state(rng, 12, 4)
    out = _evolve(_jc_model, psi, 1.1, 0.3, 1.9)
    for j in range(4):
        single = _evolve(_jc_model, psi[:, j : j + 1, :].copy(), 1.1, 0.3, 1.9)
        assert np.abs(out[:, j : j + 1, :] - single).max() < 1e-13


@pytest.mark.parametrize("g, delta", [(1e150, 1.0), (1.0, 1e300), (1e-300, 0.0)])
def test_jc_field_stays_finite_at_extreme_couplings(g, delta):
    # the field comes from the ratios delta / omega and 2 g sqrt(n+1) / omega;
    # H / rate squares to 1 on each block, so the field keeps psi's norm
    psi = _random_state(np.random.default_rng(3), 20, 2)
    rates, field = _jc_model(psi, g, delta)
    assert np.all(np.isfinite(rates)) and np.all(np.isfinite(field))
    assert abs(np.linalg.norm(field) - 1.0) < 1e-12


def test_jc_at_zero_coupling_and_detuning_leaves_the_state():
    # every rate is 0 and H = 0, so the 2x2 blocks get a zero field, not 0/0
    psi = _random_state(np.random.default_rng(4), 30, 2)
    rates, field = _jc_model(psi, 0.0, 0.0)
    assert not rates.any() and not field[:-1, :, 1].any() and not field[1:, :, 0].any()
    out = evolve_exact_jc(SystemState(psi, QUASI), 2.5, 0.0, 0.0)
    assert out.tensor.tobytes() == psi.tobytes()


@pytest.mark.parametrize(
    "g, delta", [(0.7, 0.0), (0.7, -1.3), (0.0, 1.3), (1e-300, 0.0)]
)
def test_jc_field_where_omega_is_nonzero_is_the_ratio_formula(g, delta):
    psi = _random_state(np.random.default_rng(5), 30, 2)
    coupling = 2.0 * g * np.sqrt(np.arange(1, 30, dtype=np.float64))
    omega = np.hypot(delta, coupling)
    detune, mix = (delta / omega)[:, None], (coupling / omega)[:, None]
    upper, lower = psi[:-1, :, 1], psi[1:, :, 0]
    _, field = _jc_model(psi, g, delta)
    assert np.array_equal(field[:-1, :, 1], -1j * (detune * upper + mix * lower))
    assert np.array_equal(field[1:, :, 0], 1j * (detune * lower - mix * upper))


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
    jc = _evolve(_jc_model, psi, g, delta, times)
    assert jc.shape == (times.size, dim, 1, 2)
    state = SystemState(psi, QUASI)
    # the dispersive model is refused below |delta| = 5 g
    dispersive = np.copysign(abs(delta) + 5.0 * g, delta)
    effective = _evolve(_effective_model, psi, g, dispersive, times)
    for k, t in enumerate(times):
        assert np.abs(jc[k] - _evolve(_jc_model, psi, g, delta, t)).max() <= 1e-14
        assert np.abs(jc[k] - evolve_exact_jc(state, t, g, delta).tensor).max() <= 1e-14
        scalar = _evolve(_effective_model, psi, g, dispersive, t)
        assert np.abs(effective[k] - scalar).max() <= 1e-14


def _check_uniform_axis(dim, g, delta, t_max, steps, seed):
    # the factors from the anchor and offset table against direct evaluation
    # at each t_k: anchor rows bit for bit, the others within one rounding of
    # the largest phase argument on the axis; both kernels then read them
    # like the scalar call at t_k
    psi = _random_state(np.random.default_rng(seed), dim, 1)
    dispersive = np.copysign(abs(delta) + 5.0 * g, delta)
    # (model, detuning, scale of the bound on the propagated state)
    tracks = ((_jc_model, delta, 2.0), (_effective_model, dispersive, 1.0))
    models = [model(psi, g, d) for model, d, _ in tracks]
    rates = [r for r, _ in models]
    times = np.linspace(0.0, t_max, steps)
    chunks = list(_time_chunks(times, dim, *rates))
    step, span = _axis_blocks(steps, dim)
    sizes = [min(step, steps - k) for k in range(0, steps, step)]
    assert [chunk.size for chunk, _, _ in chunks] == sizes
    assert np.array_equal(np.concatenate([chunk for chunk, _, _ in chunks]), times)
    eps = np.finfo(float).eps
    bound = 1e-14 + 8.0 * eps * max(np.abs(r).max() for r in rates) * t_max
    for track, ((model, d, scale), (r, field)) in enumerate(zip(tracks, models)):
        factors = np.concatenate([chunk[1 + track] for chunk in chunks])
        direct = _phase_factors(r, times)
        assert np.array_equal(factors[::span], direct[::span])
        assert np.abs(factors - direct).max() <= bound
        stack = _propagate(psi, field, factors)
        for k, t in enumerate(times):
            scalar = _evolve(model, psi, g, d, t)
            assert np.abs(stack[k] - scalar).max() <= scale * bound


@pytest.mark.parametrize(
    "dim, steps",
    [
        (12, 2),  # the shortest axis
        (30, 100),  # not a whole number of 68-time chunks
        (1100, 150),  # CHUNK_PAIRS // dim == 1: one time per chunk
    ],
)
def test_uniform_axis_edge_cases(dim, steps):
    _check_uniform_axis(dim, 0.9, 2.5, 400.0, steps, 5)


@pytest.mark.parametrize(
    "dim, steps, expected",
    [(30, 100, 68 + 2), (88, 400, 23 + 18), (1670, 2000, 45 + 45)],
)
def test_uniform_axis_evaluates_offset_and_anchor_rows_only(
    monkeypatch, dim, steps, expected
):
    # the offset table's rows plus one anchor row per block, against one
    # row per time when each time is evaluated directly
    rows = []

    def counted(rates, t):
        rows.append(np.size(t))
        return _phase_factors(rates, t)

    monkeypatch.setattr(cli, "_phase_factors", counted)
    times = np.linspace(0.0, 50.0, steps)
    for _ in _time_chunks(times, dim, _jc_model(np.zeros((dim, 1, 2)), 1.0, 0.0)[0]):
        pass
    assert sum(rows) == expected


@settings(max_examples=60, deadline=None)
@given(
    dim=st.one_of(st.integers(2, 60), st.integers(1025, 1100)),
    g=st.floats(0.05, 2.0, exclude_min=True),
    delta=st.floats(-15.0, 15.0),
    t_max=st.floats(0.0, 2000.0),
    steps=st.integers(2, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_uniform_axis_equals_scalar_calls(dim, g, delta, t_max, steps, seed):
    _check_uniform_axis(dim, g, delta, t_max, steps, seed)


def test_husimi_grid_against_coherent_overlap():
    dim = 25
    psi = coherent_state(0.8 + 0.5j, dim).amps
    re = np.array([0.0, 0.8, -1.0])
    im = np.array([0.5, -0.5])
    q = gabor_q(np.ones(1), psi[:, None], re, im)
    assert q.shape == (2, 3)
    for i, y in enumerate(im):
        for j, x in enumerate(re):
            probe = coherent_state(complex(x, y), dim).amps
            expected = abs(np.vdot(probe, psi)) ** 2 / np.pi
            assert abs(q[i, j] - expected) < 1e-12


def test_husimi_wide_uniform_axis_costs_nodes_by_dim():
    # Q past the state's reach is 0 without a node there, so a +-1e6 axis
    # takes as many nodes as the state needs, however far it reaches
    alpha = 1.5 - 2.0j
    dim = 60
    psi = coherent_state(alpha, dim).amps
    axis = np.linspace(-1e6, 1e6, 201)
    grid = husimi_q(DensityMatrix.from_ket(psi), axis, axis)
    beta = axis[None, :] + 1j * axis[:, None]
    exact = np.exp(-np.abs(beta - alpha) ** 2) / np.pi
    assert np.abs(grid.values - exact).max() <= 1e-14
    quad = np.sqrt(2.0) * axis
    _, _, nodes, _, _ = gabor_plan(dim, quad, quad)
    # (2K + 18) / spacing, with a spacing of at least 2 pi / (2K + 26)
    reach = np.sqrt(2 * dim + 1)
    assert 0 < nodes.size <= (2 * reach + 18) * (2 * reach + 26) / (2 * np.pi) + 2


# chain kernel ---------------------------------------------------------------

# complex parameters of modulus up to 1.5, at any phase
GATE_PARAM = st.builds(
    lambda r, phi: r * np.exp(1j * phi),
    st.floats(0.0, 1.5),
    st.floats(-np.pi, np.pi),
)


def _assert_unitary(gate):
    assert np.abs(gate.conj().T @ gate - np.eye(gate.shape[0])).max() <= 1e-13


@settings(max_examples=80, deadline=None)
@given(z=GATE_PARAM, dim=st.integers(2, 40))
@example(z=1.5j, dim=2)  # each parity chain is one level
@example(z=-1.5, dim=3)  # the odd chain is one level
def test_squeeze_gate_matches_dense_expm(z, dim):
    # leak_tol = 1 lets the gate be checked at any dim; the tail check only
    # sizes the squeezed vacuum
    gate = squeeze_matrix(z, dim, leak_tol=1.0)
    a = ladder_matrix(dim)
    dense = scipy.linalg.expm(0.5 * (np.conj(z) * (a @ a) - z * (a.T @ a.T)))
    assert np.abs(gate - dense).max() <= 1e-13
    _assert_unitary(gate)
    n = np.arange(dim)
    assert np.all(gate[(n[:, None] - n[None, :]) % 2 == 1] == 0.0)


@settings(max_examples=80, deadline=None)
@given(alpha=GATE_PARAM, dim=st.integers(2, 40))
@example(alpha=1.5, dim=2)
def test_displacement_gate_matches_dense_expm(alpha, dim):
    gate = displacement_matrix(alpha, dim, leak_tol=1.0)
    a = ladder_matrix(dim)
    dense = scipy.linalg.expm(alpha * a.T - np.conj(alpha) * a)
    assert np.abs(gate - dense).max() <= 1e-13
    _assert_unitary(gate)


@settings(max_examples=100, deadline=None)
@given(
    label=arrays(
        np.int64, array_shapes(max_dims=3, max_side=6), elements=st.integers(0, 9)
    ),
    count=st.integers(1, 8),
)
def test_stack_by_partitions_the_labels_below_count(label, count):
    # every block layout (shells, n1 - n2 diagonals, parities, excitation
    # sectors) is this one stack of a label per flat index
    index, inside = _stack_by(label, count)
    label = label.ravel()
    kept = np.flatnonzero(label < count)
    sizes = np.bincount(label[kept], minlength=count)
    assert np.array_equal(inside, np.arange(sizes.max()) < sizes[:, None])
    assert not np.any(index[~inside])
    assert np.array_equal(np.sort(index[inside]), kept)
    for s, (row, on) in enumerate(zip(index, inside)):
        assert np.all(label[row[on]] == s)
        assert np.all(np.diff(row[on]) > 0)


@settings(max_examples=60, deadline=None)
@given(p=GATE_PARAM, dim=st.integers(2, 12))
def test_two_mode_squeeze_stack_matches_dense_expm(p, dim):
    index, inside, blocks = _diagonal_stack(p, dim)
    gate = _block_diagonal(index, inside, blocks, dim * dim)
    a = np.kron(ladder_matrix(dim), np.eye(dim))
    b = np.kron(np.eye(dim), ladder_matrix(dim))
    dense = scipy.linalg.expm(np.conj(p) * (a @ b) - p * (a.T @ b.T))
    assert np.abs(gate - dense).max() <= 1e-13
    _assert_unitary(gate)
    # each padded row of the stack is the gate of its diagonal alone
    for s in range(2 * dim - 1):
        n1, n2 = np.divmod(index[s, inside[s]], dim)
        alone = _chain_gate(np.sqrt(n1[1:] * n2[1:]), p)
        assert np.abs(blocks[s, : n1.size, : n1.size] - alone).max() <= 1e-13
