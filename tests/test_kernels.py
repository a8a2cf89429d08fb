import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import quasicat.dynamics as dynamics
from quasicat.analysis import DensityMatrix, husimi_q
from quasicat.cli import _dispersive_rows, _resonant_rows
from quasicat.dynamics import (
    QUASI,
    SystemState,
    _effective_model,
    _exp_sums,
    _jc_model,
    _phase_factors,
    _propagate,
    cat_target,
    evolve_exact_jc,
)
from quasicat.fock import (
    _block_diagonal,
    _chain_gate,
    _stack_by,
    coherent_dim,
    coherent_state,
    displacement_matrix,
    ladder_matrix,
    squeeze_matrix,
)
from quasicat.modes import _diagonal_stack
from quasicat.husimi import gabor_plan, gabor_q

import oracles


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


EPS = np.finfo(float).eps


def _axis_bound(rate_max, t_max):
    """The roundoff a time-axis value may carry per unit weight: the anchor
    and offset factors each round their phase argument, t_s + t_l is t_k
    only to a rounding, and the sums round too."""
    return 1e-14 + 16.0 * EPS * rate_max * abs(t_max)


def _random_sums(rng, terms, columns, rate_max):
    freqs = rng.uniform(-rate_max, rate_max, terms)
    weights = rng.normal(size=(columns, terms)) + 1j * rng.normal(size=(columns, terms))
    return freqs, weights


def _direct_sums(freqs, weights, times):
    """sum_j weights[c, j] e^{i freqs[j] t} at each of the times, each factor
    evaluated directly and multiplied into each weight, then summed."""
    return (_phase_factors(freqs, times)[:, None] * weights).sum(axis=-1)


def _check_exp_sums(freqs, weights, times):
    # anchor rows bit for bit against the direct sums at the anchor times,
    # the others within the axis bound per unit weight
    sums = _exp_sums(freqs, weights, times)
    assert sums.shape == (times.size, weights.shape[0])
    span = math.isqrt(times.size - 1) + 1
    anchors = _direct_sums(freqs, weights, times[::span])
    assert sums[::span].tobytes() == anchors.tobytes()
    bound = _axis_bound(np.abs(freqs).max(), times[-1]) * np.abs(weights).sum(axis=-1)
    assert np.all(np.abs(sums - _direct_sums(freqs, weights, times)) <= bound)


@settings(max_examples=100, deadline=None)
@given(
    terms=st.integers(1, 40),
    columns=st.integers(1, 4),
    rate_max=st.floats(0.01, 60.0),
    t_max=st.floats(0.0, 2000.0),
    steps=st.integers(2, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_exp_sums_equal_direct_sums(terms, columns, rate_max, t_max, steps, seed):
    freqs, weights = _random_sums(np.random.default_rng(seed), terms, columns, rate_max)
    _check_exp_sums(freqs, weights, np.linspace(0.0, t_max, steps))


@pytest.mark.parametrize(
    "steps",
    [
        2,  # the shortest axis: one block of two times
        111,  # the last block holds one time
        120,  # the last block is cut short
    ],
)
def test_exp_sums_edge_cases(steps):
    freqs, weights = _random_sums(np.random.default_rng(5), 30, 3, 20.0)
    freqs[:2] = 0.0, -freqs[2]  # a zero frequency and a +-f pair
    _check_exp_sums(freqs, weights, np.linspace(0.0, 400.0, steps))


def test_exp_sums_groups_change_only_memory(monkeypatch):
    freqs, weights = _random_sums(np.random.default_rng(6), 50, 2, 5.0)
    times = np.linspace(0.0, 300.0, 1000)
    whole = _exp_sums(freqs, weights, times)
    # one block per group in place of all 32 at once
    monkeypatch.setattr(dynamics, "GROUP_CELLS", 1)
    bound = _axis_bound(5.0, 300.0) * np.abs(weights).sum(axis=-1)
    assert np.all(np.abs(_exp_sums(freqs, weights, times) - whole) <= bound)


@pytest.mark.parametrize(
    "steps, expected",
    [(2, 1 + 1), (100, 9 + 10), (400, 19 + 20), (2000, 44 + 45)],
)
def test_uniform_axis_evaluates_offset_and_anchor_rows_only(
    monkeypatch, steps, expected
):
    # the offset table's rows past t = 0 plus one anchor row per block,
    # against one row per time when each time is evaluated directly; a row
    # takes one exponential per distinct |frequency|
    rows, cells = [], []

    def counted(rates, t):
        rows.append(np.size(t))
        cells.append(np.size(rates) * np.size(t))
        return _phase_factors(rates, t)

    monkeypatch.setattr(dynamics, "_phase_factors", counted)
    freqs = np.array([0.0, 1.5, -1.5, 2.0, -0.5, 0.5, 3.0])
    _exp_sums(freqs, np.ones((2, freqs.size)), np.linspace(0.0, 50.0, steps))
    assert sum(rows) == expected
    assert sum(cells) == 5 * expected


def _axis_case(dim, g, delta, t_max, steps, atom, cats, seed):
    """A random field times the unit atom, its uniform axis, random unit cat
    rays, and the bound of both scenarios' rates."""
    rng = np.random.default_rng(seed)
    field = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    atom = np.array([math.cos(atom[0]), math.sin(atom[0]) * np.exp(1j * atom[1])])
    psi = (field / np.linalg.norm(field))[:, None, None] * atom
    rays = rng.normal(size=(cats, dim)) + 1j * rng.normal(size=(cats, dim))
    rays /= np.linalg.norm(rays, axis=1)[:, None]
    rates = [_jc_model(psi, g, d)[0] for d in (0.0, delta)]
    rates.append(_effective_model(psi, g, delta)[0])
    bound = _axis_bound(max(np.abs(r).max() for r in rates), t_max)
    return psi, np.linspace(0.0, t_max, steps), rays, bound


@settings(max_examples=60, deadline=None)
@given(
    dim=st.one_of(st.integers(2, 60), st.integers(1025, 1100)),
    g=st.floats(0.05, 2.0, exclude_min=True),
    delta=st.floats(-15.0, 15.0),
    t_max=st.floats(0.0, 2000.0),
    steps=st.integers(2, 300),
    atom=st.tuples(st.floats(0.0, math.pi / 2), st.floats(-math.pi, math.pi)),
    cats=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_axis_columns_equal_propagated_stacks(
    dim, g, delta, t_max, steps, atom, cats, seed
):
    # every column of both cat scenarios against the stack propagated to
    # every t and read with the stack observables; <n> scales with the
    # photon numbers, so its bound does too
    dispersive = np.copysign(abs(delta) + 5.0 * g, delta)
    case = _axis_case(dim, g, dispersive, t_max, steps, atom, cats, seed)
    psi, times, rays, bound = case
    for ours, reference in (
        (
            _resonant_rows(psi, times, g, rays),
            oracles.resonant_rows(psi, times, g, rays),
        ),
        (
            _dispersive_rows(psi, times, g, dispersive),
            oracles.dispersive_rows(psi, times, g, dispersive),
        ),
    ):
        (rows, worst), (expected, expected_worst) = ours, reference
        assert rows.shape == expected.shape
        assert np.array_equal(rows[:, 0], times)
        scale = np.maximum(1.0, np.abs(expected).max(axis=0))
        assert np.all(np.abs(rows - expected) <= bound * scale)
        assert abs(worst - expected_worst) <= bound


def test_axis_memory_stays_bounded():
    # zero-detuning at nbar 1400 (d = 1670) over 20 000 times peaks at the
    # output table, the widest form's complex columns (two cats, two levels)
    # and O((span + group) J) factors, J = 4 d the terms of the coherence
    # form: never a (steps, J) table, nor the anchor-scaled weights of every
    # block at once
    mu = -1j * math.sqrt(1400.0)
    dim = coherent_dim(mu)
    psi = np.zeros((dim, 1, 2), dtype=complex)
    psi[:, 0, 0] = coherent_state(mu, dim).amps
    cats = np.array([cat_target(mu, convention, dim).amps for convention in (1, -1)])
    times = np.linspace(0.0, 2.0 * math.pi * math.sqrt(1400.0), 20_000)
    tracemalloc.start()
    try:
        rows, _ = _resonant_rows(psi, times, 1.0, cats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    span, terms = math.isqrt(times.size - 1) + 1, 4 * dim
    factors = 16 * (2 * span * terms + 2 * dynamics.GROUP_CELLS)
    assert dim == 1670
    assert peak <= rows.nbytes + 16 * times.size * 4 + factors


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
