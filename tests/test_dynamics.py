import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies

from quasicat import (
    AmplitudePair,
    BadSubsystem,
    BasisMismatch,
    DegenerateCat,
    DetuningRatioWarning,
    DetuningTooSmall,
    DimTooSmall,
    DimensionMismatch,
    HermitianPropagator,
    NonPositiveInput,
    NormViolation,
    SystemState,
    adiabatic_residual,
    basis_state,
    build_hamiltonian,
    cat_target,
    coherent_overlap,
    coherent_state,
    decouple_params,
    elimination_operator_residuals,
    evolve_effective,
    evolve_exact_jc,
    half_revival_time,
    ladder_matrix,
    large_amplitude_state,
    measure_atom,
    mode_rotation_unitary,
    partial_trace,
    product_state,
    protocol_time,
    purity,
    rotate_amplitudes,
    rotation_params,
    suggested_dim,
    trace_distance,
    two_mode_cat_target,
)
from quasicat.dynamics import (
    RATIO_HARD_FLOOR,
    RATIO_MIN,
    SIGMA_Z,
    _check_dispersive,
    dispersive_norm,
    excitation_diagonal,
    excitation_sectors,
)
from quasicat.analysis import mode_overlaps
from quasicat.fock import coherent_dim

import oracles
from oracles import (
    SIGMA_PLUS,
    HamiltonianSpec,
    InvalidVariantParams,
    dense_from_triplets,
    dense_hamiltonian,
    excitation_number,
    total_photon_shell_indices,
)


def _shell_capped_state(rng, dim1, dim2, basis):
    tensor = rng.normal(size=(dim1, dim2, 2)) + 1j * rng.normal(size=(dim1, dim2, 2))
    n1 = np.arange(dim1)[:, None, None]
    n2 = np.arange(dim2)[None, :, None]
    tensor[np.broadcast_to(n1 + n2 > min(dim1, dim2) - 2, tensor.shape)] = 0.0
    tensor /= np.linalg.norm(tensor)
    return SystemState(tensor, basis)


# ---------------------------------------------------------------- states


def test_system_state_validates_norm():
    bad = np.zeros((3, 2, 2), dtype=complex)
    bad[0, 0, 0] = 0.5
    with pytest.raises(NormViolation):
        SystemState(bad, "physical")


def test_system_state_shape_guards():
    with pytest.raises(DimensionMismatch):
        SystemState(np.ones((4, 4)) / 4.0, "physical")
    with pytest.raises(DimensionMismatch):
        t = np.zeros((2, 2, 3), dtype=complex)
        t[0, 0, 0] = 1.0
        SystemState(t, "physical")
    with pytest.raises(BasisMismatch):
        t = np.zeros((2, 2, 2), dtype=complex)
        t[0, 0, 0] = 1.0
        SystemState(t, "rotated")


def test_product_state_layout():
    m1 = basis_state(1, 3)
    m2 = basis_state(0, 2)
    st = product_state(m1, m2, (0.0, 1.0))
    assert st.dims == (3, 2, 2)
    assert st.tensor[1, 0, 1] == 1.0
    assert np.count_nonzero(st.tensor) == 1


def test_product_state_field_only():
    st = product_state(basis_state(0, 4), basis_state(2, 3), (1.0,))
    assert st.dims == (4, 3, 1)


# ---------------------------------------------------------- Hamiltonians


@pytest.mark.parametrize(
    "spec",
    [
        HamiltonianSpec.lab(1.0, 0.5, 10.0, 9.0, 9.5),
        HamiltonianSpec.interaction(1.0, 0.5, 0.7),
        HamiltonianSpec.quasi_jc(1.2, 0.3),
        HamiltonianSpec.effective_equal_freq(1.0, 40.0),
        HamiltonianSpec.effective_false(1.0, 0.5, 40.0, 60.0),
        HamiltonianSpec.effective_correct(1.0, 0.5, 40.0, 60.0),
        HamiltonianSpec.decoupled(1.0, 0.5, 40.0, 60.0),
    ],
)
def test_build_hamiltonian_hermitian(spec):
    h = dense_hamiltonian(spec, 5, 4)
    assert np.abs(h - h.conj().T).max() < 1e-12


@settings(max_examples=100, deadline=None)
@given(
    g1=strategies.floats(-3.0, 3.0),
    g2=strategies.floats(-3.0, 3.0),
    delta=strategies.one_of(strategies.just(0.0), strategies.floats(-5.0, 5.0)),
    dim=strategies.integers(2, 12),
)
def test_build_hamiltonian_triplets_match_dense_variants(g1, g2, delta, dim):
    size = 2 * dim * dim
    triplets = build_hamiltonian(g1, g2, delta, dim)
    rows, cols, _ = triplets
    assert np.unique(rows * size + cols).size == rows.size
    dense = dense_hamiltonian(HamiltonianSpec.interaction(g1, g2, delta), dim, dim)
    assert np.array_equal(dense_from_triplets(triplets, size), dense)
    # the quasi-mode JC model is the interaction with the second coupling off
    quasi_jc = dense_hamiltonian(HamiltonianSpec.quasi_jc(g1, delta), dim, dim)
    jc_triplets = build_hamiltonian(g1, 0.0, delta, dim)
    assert np.array_equal(dense_from_triplets(jc_triplets, size), quasi_jc)


def test_build_hamiltonian_guards_dim():
    with pytest.raises(DimTooSmall):
        build_hamiltonian(1.0, 0.5, 0.3, 1)


def test_interaction_no_coupling_is_diagonal():
    h = dense_hamiltonian(HamiltonianSpec.interaction(0.0, 0.0, 0.8), 4, 4)
    expected = 0.5 * 0.8 * np.kron(np.eye(16), SIGMA_Z)
    np.testing.assert_allclose(h, expected, atol=1e-14)


def test_interaction_conserves_excitation():
    h = dense_hamiltonian(HamiltonianSpec.interaction(1.0, 0.7, 0.5), 6, 6)
    n = excitation_number(6, 6)
    assert np.abs(h @ n - n @ h).max() < 1e-10


def test_quasi_jc_is_rotated_interaction():
    g1, g2, delta, dim = 1.0, 0.7, 0.5, 8
    rot = rotation_params(g1, g2)
    h_int = dense_hamiltonian(HamiltonianSpec.interaction(g1, g2, delta), dim, dim)
    h_quasi = dense_hamiltonian(HamiltonianSpec.quasi_jc(rot.g, delta), dim, dim)
    r = np.kron(mode_rotation_unitary(rot, dim, dim), np.eye(2))
    shell = total_photon_shell_indices(dim)
    cols = np.concatenate([2 * shell, 2 * shell + 1])
    diff = (r @ h_int @ r.conj().T - h_quasi)[:, cols]
    assert np.linalg.norm(diff, 2) < 1e-9


def test_effective_correct_reduces_to_equal_freq():
    h1 = dense_hamiltonian(HamiltonianSpec.effective_correct(1.0, 0.0, 40.0, 40.0), 5, 5)
    h2 = dense_hamiltonian(HamiltonianSpec.effective_equal_freq(1.0, 40.0), 5, 5)
    assert np.abs(h1 - h2).max() < 1e-14


def test_false_vs_correct_difference_is_analytic():
    g1, g2, d1, d2, dim = 1.0, 0.8, 40.0, 55.0, 5
    hf = dense_hamiltonian(HamiltonianSpec.effective_false(g1, g2, d1, d2), dim, dim)
    hc = dense_hamiltonian(HamiltonianSpec.effective_correct(g1, g2, d1, d2), dim, dim)
    a = ladder_matrix(dim)
    hop = np.kron(np.kron(a.conj().T, a), np.eye(2))
    sz = np.kron(np.eye(dim * dim), SIGMA_Z)
    up = np.kron(np.eye(dim * dim), SIGMA_PLUS @ SIGMA_PLUS.conj().T)
    cross = 0.5 * g1 * g2 * (1.0 / d1 + 1.0 / d2)
    shift = g1 * g1 / d1 + g2 * g2 / d2
    expected = cross * ((hop + hop.conj().T) @ sz) + shift * up
    assert np.abs((hc - hf) - expected).max() < 1e-12


def test_decoupled_diagonalizes_correct_variant():
    g1, g2, d1, d2, dim = 1.0, 0.8, 40.0, 55.0, 8
    params = decouple_params(g1, g2, d1, d2)
    hc = dense_hamiltonian(HamiltonianSpec.effective_correct(g1, g2, d1, d2), dim, dim)
    hd = dense_hamiltonian(HamiltonianSpec.decoupled(g1, g2, d1, d2), dim, dim)
    rot = rotation_params(math.cos(params.eta), math.sin(params.eta))
    r = np.kron(mode_rotation_unitary(rot, dim, dim), np.eye(2))
    shell = total_photon_shell_indices(dim)
    cols = np.concatenate([2 * shell, 2 * shell + 1])
    diff = (r @ hc @ r.conj().T - hd)[:, cols]
    assert np.linalg.norm(diff, 2) < 1e-9


def test_variant_guards():
    with pytest.raises(InvalidVariantParams):
        HamiltonianSpec("bogus")
    with pytest.raises(InvalidVariantParams):
        dense_hamiltonian(HamiltonianSpec("quasiJC", g=1.0), 4, 4)  # delta missing
    with pytest.raises(DimTooSmall):
        dense_hamiltonian(HamiltonianSpec.quasi_jc(1.0, 0.0), 1, 4)
    with pytest.raises(DetuningTooSmall):
        HamiltonianSpec.effective_equal_freq(1.0, 3.0)
    with pytest.warns(DetuningRatioWarning):
        HamiltonianSpec.effective_equal_freq(1.0, 7.0)


# ------------------------------------------------------------- evolution


def test_oracle_t_zero_identity():
    rng = np.random.default_rng(0)
    st = _shell_capped_state(rng, 5, 5, "physical")
    h = dense_hamiltonian(HamiltonianSpec.interaction(1.0, 0.5, 0.3), 5, 5)
    out = HermitianPropagator(h).evolve(st, 0.0)
    assert np.abs(out.tensor - st.tensor).max() < 1e-12


def test_oracle_group_property_and_conservation():
    rng = np.random.default_rng(1)
    st = _shell_capped_state(rng, 5, 5, "physical")
    h = dense_hamiltonian(HamiltonianSpec.interaction(1.0, 0.5, 0.3), 5, 5)
    prop = HermitianPropagator(h)
    once = prop.evolve(prop.evolve(st, 1.1), 2.3)
    at_once = prop.evolve(st, 3.4)
    assert abs(np.vdot(once.tensor, at_once.tensor)) ** 2 >= 1.0 - 1e-10
    assert abs(np.linalg.norm(at_once.tensor) - 1.0) < 1e-10
    e0 = np.vdot(st.flat(), h @ st.flat()).real
    e1 = np.vdot(at_once.flat(), h @ at_once.flat()).real
    assert abs(e1 - e0) < 1e-9


def test_oracle_diagonal_phases():
    h = np.diag([0.5, -1.5]).astype(complex)
    vec = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
    out = HermitianPropagator(h).evolve_flat(vec, 2.0)
    expected = vec * np.exp(-1j * np.array([0.5, -1.5]) * 2.0)
    assert np.abs(out - expected).max() < 1e-12


def test_oracle_excitation_moments_conserved():
    rng = np.random.default_rng(2)
    st = _shell_capped_state(rng, 6, 6, "physical")
    h = dense_hamiltonian(HamiltonianSpec.interaction(1.0, 0.7, 0.5), 6, 6)
    n = excitation_number(6, 6)
    out = HermitianPropagator(h).evolve(st, 4.2)
    for op in (n, n @ n):
        before = np.vdot(st.flat(), op @ st.flat()).real
        after = np.vdot(out.flat(), op @ out.flat()).real
        assert abs(after - before) < 1e-9


@pytest.mark.parametrize("dim1, dim2", [(2, 2), (5, 5), (14, 14), (3, 7), (6, 2)])
def test_excitation_sectors_partition_the_space(dim1, dim2):
    index, inside = excitation_sectors(dim1, dim2)
    assert np.array_equal(np.sort(index[inside]), np.arange(2 * dim1 * dim2))
    assert not np.any(index[~inside])
    number = excitation_diagonal(dim1, dim2)
    levels = [np.unique(number[idx[on]]) for idx, on in zip(index, inside)]
    assert all(level.size == 1 for level in levels)
    assert np.all(np.diff(np.concatenate(levels)) > 0)
    assert index.shape[0] == dim1 + dim2
    if dim1 == dim2:
        assert inside.sum(axis=1).max() == index.shape[1] == 2 * dim1 - 1


@settings(max_examples=100, deadline=None)
@given(
    dim=strategies.integers(3, 9),
    g1=strategies.floats(0.05, 2.0, exclude_min=True),
    g2=strategies.floats(0.0, 2.0),
    delta=strategies.floats(-5.0, 5.0),
    t=strategies.floats(0.0, 10.0),
    seed=strategies.integers(0, 2**32 - 1),
)
def test_sector_oracle_matches_dense_oracle(dim, g1, g2, delta, t, seed):
    ham = dense_hamiltonian(HamiltonianSpec.interaction(g1, g2, delta), dim, dim)
    ham_quasi = dense_hamiltonian(
        HamiltonianSpec.quasi_jc(math.hypot(g1, g2), delta), dim, dim
    )
    sectors = [idx[on] for idx, on in zip(*excitation_sectors(dim, dim))]
    inside = np.zeros(ham.shape, dtype=bool)
    for idx in sectors:
        inside[np.ix_(idx, idx)] = True
    assert not np.any(ham[~inside])
    assert not np.any(ham_quasi[~inside])
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=ham.shape[0]) + 1j * rng.normal(size=ham.shape[0])
    vec /= np.linalg.norm(vec)
    by_sector = np.empty_like(vec)
    for idx in sectors:
        block = HermitianPropagator(ham[np.ix_(idx, idx)])
        by_sector[idx] = block.evolve_flat(vec[idx], t)
    dense = HermitianPropagator(ham).evolve_flat(vec, t)
    assert np.abs(by_sector - dense).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    sizes=strategies.lists(strategies.integers(1, 6), min_size=1, max_size=5),
    real=strategies.booleans(),
    t=strategies.floats(-5.0, 5.0),
    seed=strategies.integers(0, 2**32 - 1),
)
def test_stacked_propagator_matches_blocks_and_dense_oracle(sizes, real, t, seed):
    # a zero-padded stack of Hermitian blocks, as validate builds from its
    # excitation sectors, evolves a batch of padded vectors at once
    rng = np.random.default_rng(seed)
    m = max(sizes)
    stack = np.zeros((len(sizes), m, m), dtype=np.float64 if real else np.complex128)
    vecs = np.zeros((2, len(sizes), m), dtype=np.complex128)
    for k, size in enumerate(sizes):
        block = rng.uniform(-2.0, 2.0, size=(size, size))
        if not real:
            block = block + 1j * rng.uniform(-2.0, 2.0, size=(size, size))
        stack[k, :size, :size] = block + block.conj().T
        vecs[:, k, :size] = rng.normal(size=(2, size)) + 1j * rng.normal(size=(2, size))
    stacked = HermitianPropagator(stack)
    assert stacked.dim == m
    assert stacked.vectors.dtype == stack.dtype
    out = stacked.evolve_flat(vecs, t)
    blocks = [stack[k, :size, :size] for k, size in enumerate(sizes)]
    dense = scipy.linalg.expm(-1j * t * scipy.linalg.block_diag(*blocks))
    inside = np.arange(m) < np.array(sizes)[:, None]
    np.testing.assert_allclose(out[:, ~inside], 0.0, rtol=0.0, atol=1e-12)
    for j in range(2):
        oracle = dense @ vecs[j][inside]
        assert np.abs(out[j][inside] - oracle).max() <= 1e-12
        for k, block in enumerate(blocks):
            single = HermitianPropagator(block).evolve_flat(vecs[j, k, : sizes[k]], t)
            assert np.abs(out[j, k, : sizes[k]] - single).max() <= 1e-12


def test_propagator_rejects_nonhermitian():
    with pytest.raises(DimensionMismatch):
        HermitianPropagator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # one bad block in a stack is enough
    stack = np.zeros((3, 2, 2))
    stack[:] = np.eye(2)
    stack[1, 0, 1] = 1e-6
    with pytest.raises(DimensionMismatch):
        HermitianPropagator(stack)
    with pytest.raises(DimensionMismatch):
        HermitianPropagator(np.zeros((3, 2, 4)))


def test_propagator_rejects_an_asymmetry_above_its_tolerance():
    # 5e-6 is far above the 1e-12 tolerance, but inside np.allclose's default
    # relative one; eigh would read one triangle and drop it
    with pytest.raises(DimensionMismatch):
        HermitianPropagator(np.array([[1.0, 1.0], [1.0 + 5e-6, 2.0]]))


def test_exact_jc_ground_stationary():
    st = product_state(basis_state(0, 6), basis_state(0, 2), (1.0, 0.0), "quasi")
    out = evolve_exact_jc(st, 3.7, 1.0, 0.0)
    assert abs(abs(np.vdot(st.tensor, out.tensor)) - 1.0) < 1e-12


def test_exact_jc_rabi_half_cycle():
    n, g = 2, 1.3
    st = product_state(basis_state(n, 8), basis_state(0, 2), (0.0, 1.0), "quasi")
    t = math.pi / (2 * g * math.sqrt(n + 1))
    out = evolve_exact_jc(st, t, g, 0.0)
    target = product_state(basis_state(n + 1, 8), basis_state(0, 2), (1.0, 0.0), "quasi")
    assert abs(np.vdot(target.tensor, out.tensor)) ** 2 >= 1.0 - 1e-12


def test_exact_jc_matches_oracle():
    rng = np.random.default_rng(3)
    st = _shell_capped_state(rng, 10, 4, "quasi")
    h = dense_hamiltonian(HamiltonianSpec.quasi_jc(1.0, 0.7), 10, 4)
    fast = evolve_exact_jc(st, 3.2, 1.0, 0.7)
    slow = HermitianPropagator(h).evolve(st, 3.2)
    assert abs(np.vdot(slow.tensor, fast.tensor)) ** 2 >= 1.0 - 1e-10

    # dispersive regime at the large-detuning protocol time pi delta / (2 g^2)
    g, delta = 0.5, 60.0
    t = math.pi * delta / (2.0 * g * g)
    h = dense_hamiltonian(HamiltonianSpec.quasi_jc(g, delta), 10, 4)
    fast = evolve_exact_jc(st, t, g, delta)
    slow = HermitianPropagator(h).evolve(st, t)
    assert np.abs(slow.tensor - fast.tensor).max() <= 1e-10


def test_exact_jc_spectator_mode_untouched():
    rng = np.random.default_rng(4)
    st = _shell_capped_state(rng, 8, 5, "quasi")
    before = partial_trace(st, "mode2")
    after = partial_trace(evolve_exact_jc(st, 2.9, 1.1, 0.4), "mode2")
    assert trace_distance(before, after) < 1e-10

    # zero-detuning once carried a coherent |nu> on quasi mode II; as the
    # reference, it must leave the same (mode1, atom) state as the size-1
    # vacuum slot that replaced it
    mode1 = coherent_state(-2.0j, 36)
    atom = (0.6, 0.8j)
    slot = product_state(mode1, basis_state(0, 1), atom, "quasi")
    for dim2 in (2, 9, 32):
        spectator = coherent_state(1.5 * np.exp(0.4j), dim2, leak_tol=1.0)
        wide = product_state(mode1, spectator, atom, "quasi")
        for t, g, delta in ((4.4, math.sqrt(2.0), 0.0), (2.9, 1.1, 0.4)):
            keep = ("mode1", "atom")
            reference = partial_trace(evolve_exact_jc(wide, t, g, delta), keep)
            reduced = partial_trace(evolve_exact_jc(slot, t, g, delta), keep)
            assert trace_distance(reference, reduced) < 1e-12


def test_exact_jc_requires_quasi_basis():
    st = product_state(basis_state(0, 4), basis_state(0, 2), (1.0, 0.0), "physical")
    with pytest.raises(BasisMismatch):
        evolve_exact_jc(st, 1.0, 1.0, 0.0)


# ----------------------------------------------------------- timescales


def test_half_revival_values():
    assert half_revival_time(25.0, 2 * math.pi) == pytest.approx(5.0)
    assert half_revival_time(80.0, 1.0) == pytest.approx(2 * half_revival_time(20.0, 1.0))
    assert half_revival_time(20.0, 1.0) == pytest.approx(2 * math.pi * math.sqrt(20.0))
    assert protocol_time(25.0, 1.0) == pytest.approx(math.pi * 5.0)
    with pytest.raises(NonPositiveInput):
        half_revival_time(0.0, 1.0)
    with pytest.raises(NonPositiveInput):
        half_revival_time(10.0, -1.0)


# ------------------------------------------------- large-amplitude form


def test_large_amplitude_t_zero_is_input():
    mu = 3.0j
    dim = suggested_dim(mu) + 4
    approx = large_amplitude_state(0.0, mu, 0.6, 0.8j, 1.0, dim)
    direct = product_state(
        coherent_state(mu, dim), basis_state(0, 1), (0.6, 0.8j), "quasi"
    )
    assert abs(np.vdot(direct.tensor, approx.tensor)) ** 2 >= 1.0 - 1e-12


def test_large_amplitude_purity_at_protocol_time():
    nbar, g = 25.0, 1.0
    mu = -1j * math.sqrt(nbar)
    dim = suggested_dim(mu) + 4
    t = protocol_time(nbar, g)
    approx = large_amplitude_state(t, mu, 1.0, 0.0, g, dim)
    exact = evolve_exact_jc(
        product_state(coherent_state(mu, dim), basis_state(0, 1), (1.0, 0.0), "quasi"),
        t,
        g,
        0.0,
    )
    assert purity(partial_trace(approx, "atom")) >= 0.9
    assert purity(partial_trace(exact, "atom")) >= 0.9


def test_large_amplitude_accuracy_improves_with_nbar():
    g = 1.0
    fids = []
    for nbar, frozen in ((10.0, 0.688755), (25.0, 0.696824), (50.0, 0.699649)):
        mu = -1j * math.sqrt(nbar)
        dim = suggested_dim(mu) + 12
        t = protocol_time(nbar, g)
        exact = evolve_exact_jc(
            product_state(
                coherent_state(mu, dim), basis_state(0, 1), (1.0, 0.0), "quasi"
            ),
            t,
            g,
            0.0,
        )
        approx = large_amplitude_state(t, mu, 1.0, 0.0, g, dim)
        fid = abs(np.vdot(exact.tensor, approx.tensor)) ** 2
        assert fid == pytest.approx(frozen, abs=5e-6)
        fids.append(fid)
    assert fids[0] < fids[1] < fids[2]


def test_large_amplitude_guards():
    with pytest.raises(NormViolation):
        large_amplitude_state(1.0, 2.0, 1.0, 1.0, 1.0, 40)
    with pytest.raises(NonPositiveInput):
        large_amplitude_state(1.0, 0.0, 1.0, 0.0, 1.0, 40)
    with pytest.raises(DimTooSmall):
        large_amplitude_state(1.0, 4.0, 1.0, 0.0, 1.0, 18)


# ------------------------------------------------------------ cat states


def test_cat_norm_includes_cross_term():
    mu, nbar = 1.3, 1.69
    for convention in (1, -1):
        plus = coherent_state(1j * mu, 30).amps
        minus = coherent_state(-1j * mu, 30).amps
        vec = (
            np.exp(0.5j * math.pi * nbar) * plus
            - convention * np.exp(-0.5j * math.pi * nbar) * minus
        )
        norm_sq = np.vdot(vec, vec).real
        expected = 2.0 - 2.0 * convention * np.real(
            np.exp(-1j * math.pi * nbar) * coherent_overlap(1j * mu, -1j * mu)
        )
        assert norm_sq == pytest.approx(expected, abs=1e-10)
        cat = cat_target(mu, convention, dim=30)
        assert abs(np.linalg.norm(cat.amps) - 1.0) < 1e-12
        assert abs(np.vdot(vec, cat.amps)) ** 2 == pytest.approx(norm_sq, abs=1e-12)


def test_cat_degenerate_boundary():
    with pytest.raises(DegenerateCat):
        cat_target(0.0, convention=1, dim=8)
    # the opposite sign keeps the two branches additive
    cat = cat_target(0.0, convention=-1, dim=8)
    assert abs(cat.amps[0] - 1.0) < 1e-12


def test_cat_large_mu_orthogonal_branch_limit():
    mu, nbar = 5.0, 25.0
    cat = cat_target(mu, 1, dim=70)
    naive = (
        np.exp(0.5j * math.pi * nbar) * coherent_state(1j * mu, 70).amps
        - np.exp(-0.5j * math.pi * nbar) * coherent_state(-1j * mu, 70).amps
    ) / math.sqrt(2.0)
    assert abs(coherent_overlap(5j, -5j)) ** 2 < 1e-20
    assert abs(np.vdot(naive, cat.amps)) ** 2 == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    nbar=strategies.floats(0.5, 400.0),
    angle=strategies.floats(0.0, 2.0 * math.pi),
    g=strategies.floats(0.1, 3.0),
    atom=strategies.sampled_from([(1.0, 0.0), (0.0, 1.0)]),
)
def test_cat_target_has_the_branch_phases_of_the_dynamics(nbar, angle, g, atom):
    # at protocol_time the large-amplitude state is the cat e^(+-i pi nbar/2)
    # |+-i mu> for every real nbar, not only where nbar is an integer
    mu = math.sqrt(nbar) * complex(math.cos(angle), math.sin(angle))
    dim = coherent_dim(mu)
    state = large_amplitude_state(protocol_time(nbar, g), mu, *atom, g, dim)
    cats = np.array([cat_target(mu, c, dim).amps for c in (1, -1)])
    assert mode_overlaps(state, cats).max() >= 1.0 - 1e-10


def test_two_mode_cat_theta_zero_factorizes():
    rot = rotation_params(1.0, 0.0)
    alpha, beta = 2.0, 0.7
    st = two_mode_cat_target(alpha, beta, rot, 30, 14, convention=1)
    cat = cat_target(alpha, 1, dim=30)
    target = np.einsum("i,j->ij", cat.amps, coherent_state(beta, 14).amps)[:, :, None]
    assert abs(np.vdot(target, st.tensor)) ** 2 >= 1.0 - 1e-10


def test_two_mode_cat_matches_rotated_single_mode():
    rot = rotation_params(1.0, 1.0)
    nbar = 4.0
    alpha = 1j * math.sqrt(nbar / 2.0)
    dim = 30
    st = two_mode_cat_target(alpha, alpha, rot, dim, dim, convention=1)
    quasi = rotate_amplitudes(rot, AmplitudePair(alpha, alpha))
    cat = cat_target(quasi.first, 1, dim=dim)
    spectator = coherent_state(quasi.second, dim)
    flat = np.kron(cat.amps, spectator.amps)
    rotated = mode_rotation_unitary(rot, dim, dim).conj().T @ flat
    fid = abs(np.vdot(rotated, st.tensor[:, :, 0].reshape(-1))) ** 2
    assert fid >= 1.0 - 1e-8


def test_two_mode_cat_branch_amplitudes():
    rot = rotation_params(1.0, 1.0)
    nbar = 8.0
    alpha = math.sqrt(nbar / 2.0)
    st = two_mode_cat_target(alpha, alpha, rot, 40, 40, convention=1)
    from quasicat import quasi_phase_amplitudes

    up = quasi_phase_amplitudes(rot, 1j, AmplitudePair(alpha, alpha))
    dn = quasi_phase_amplitudes(rot, -1j, AmplitudePair(alpha, alpha))
    vec = np.exp(1j * math.pi * nbar) * np.kron(
        coherent_state(up.first, 40).amps, coherent_state(up.second, 40).amps
    ) - np.exp(-1j * math.pi * nbar) * np.kron(
        coherent_state(dn.first, 40).amps, coherent_state(dn.second, 40).amps
    )
    vec /= np.linalg.norm(vec)
    assert abs(np.vdot(vec, st.tensor[:, :, 0].reshape(-1))) ** 2 >= 1.0 - 1e-12


# ------------------------------------------------------ dispersive model


def test_effective_t_zero_identity():
    st = product_state(coherent_state(1.5, 20), basis_state(0, 2), (1.0, 0.0), "quasi")
    out = evolve_effective(st, 0.0, 1.0, 40.0)
    assert np.abs(out.tensor - st.tensor).max() < 1e-12


def test_effective_lower_branch_rotates_coherent():
    g, delta, mu, t = 1.0, 40.0, 1.5, 7.0
    dim = 20
    st = product_state(coherent_state(mu, dim), basis_state(0, 2), (1.0, 0.0), "quasi")
    out = evolve_effective(st, t, g, delta)
    rotated = coherent_state(mu * np.exp(1j * g * g * t / delta), dim)
    fid = abs(np.vdot(rotated.amps, out.tensor[:, 0, 0])) ** 2
    assert fid >= 1.0 - 1e-9


def test_effective_upper_branch_counter_rotates():
    g, delta, mu = 1.0, 50.0, 2.0
    dim = 24
    t_prime = math.pi * delta / (2 * g * g)
    st = product_state(coherent_state(mu, dim), basis_state(0, 2), (0.0, 1.0), "quasi")
    out = evolve_effective(st, t_prime, g, delta)
    target = coherent_state(-1j * mu, dim)
    fid = abs(np.vdot(target.amps, out.tensor[:, 0, 1])) ** 2
    assert fid >= 1.0 - 1e-9


def test_effective_branches_reach_cat_geometry():
    g, delta, mu = 1.0, 50.0, 2.0
    dim = 24
    t_prime = math.pi * delta / (2 * g * g)
    st = product_state(coherent_state(mu, dim), basis_state(0, 2), (1.0, 0.0), "quasi")
    out = evolve_effective(st, t_prime, g, delta)
    target = coherent_state(1j * mu, dim)
    assert abs(np.vdot(target.amps, out.tensor[:, 0, 0])) ** 2 >= 1.0 - 1e-9


def test_effective_matches_oracle_matrix():
    g, delta = 1.0, 40.0
    dim = 16
    rng = np.random.default_rng(6)
    st = _shell_capped_state(rng, dim, 2, "quasi")
    h = dense_hamiltonian(HamiltonianSpec.effective_equal_freq(g, delta), dim, 2)
    slow = HermitianPropagator(h).evolve(st, 3.3)
    fast = evolve_effective(st, 3.3, g, delta)
    assert abs(np.vdot(slow.tensor, fast.tensor)) ** 2 >= 1.0 - 1e-10


@settings(max_examples=100, deadline=None)
@given(
    nbar=strategies.floats(0.5, 60.0),
    g=strategies.floats(0.1, 10.0),
    ratio=strategies.floats(10.0, 200.0),
    sign=strategies.sampled_from([1.0, -1.0]),
    fraction=strategies.floats(0.0, 1.0),
    theta=strategies.floats(0.0, 0.5 * math.pi),
    phi=strategies.floats(0.0, 2.0 * math.pi),
)
# all on the lower level at t': a phase error of 1e-9 per photon number
# there moves the amplitudes by about 1.6e-9
@example(nbar=0.5, g=1.0, ratio=200.0, sign=1.0, fraction=1.0, theta=0.0, phi=0.0)
def test_effective_matches_dispersive_closed_form(
    nbar, g, ratio, sign, fraction, theta, phi
):
    delta = sign * ratio * g
    t = fraction * math.pi * abs(delta) / (2.0 * g * g)
    mu = math.sqrt(nbar)
    gamma, delta_amp = math.cos(theta), math.sin(theta) * np.exp(1j * phi)
    dim = coherent_dim(mu)
    st = product_state(
        coherent_state(mu, dim), basis_state(0, 1), (gamma, delta_amp), "quasi"
    )
    out = evolve_effective(st, t, g, delta).tensor
    expected = oracles.dispersive_coherent_state(t, mu, gamma, delta_amp, g, delta, dim)
    # one rounding of the largest phase argument |rate t| on either level
    rate = 0.5 * abs(delta) + g * g / abs(delta) * dim
    bound = 1e-14 + 8.0 * np.finfo(float).eps * rate * t
    assert np.abs(out - expected).max() <= bound


def test_effective_detuning_guards():
    st = product_state(coherent_state(1.0, 16), basis_state(0, 2), (1.0, 0.0), "quasi")
    with pytest.raises(DetuningTooSmall):
        evolve_effective(st, 1.0, 1.0, 2.0)
    with pytest.warns(DetuningRatioWarning):
        evolve_effective(st, 1.0, 1.0, 7.0)
    bad = product_state(coherent_state(1.0, 16), basis_state(0, 2), (1.0, 0.0), "physical")
    with pytest.raises(BasisMismatch):
        evolve_effective(bad, 1.0, 1.0, 40.0)


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None)
@given(g=strategies.floats(1e-3, 1e3))
@example(g=1.7320550147428841)  # |delta|/g reads one ulp below the ratio
def test_ratio_exactly_at_a_bound_is_on_its_safe_side(g):
    # the scenarios form delta as ratio * g
    _check_dispersive(g, (RATIO_MIN * g, -RATIO_MIN * g))
    with pytest.warns(DetuningRatioWarning):
        _check_dispersive(g, (RATIO_MIN * (1.0 - 1e-9) * g,))
    with pytest.warns(DetuningRatioWarning):
        _check_dispersive(g, (RATIO_HARD_FLOOR * g,))
    with pytest.raises(DetuningTooSmall):
        _check_dispersive(g, (RATIO_HARD_FLOOR * (1.0 - 1e-9) * g,))


# ------------------------------------------------------------ measurement


def test_measure_atom_plus_product():
    amp = 1.0 / math.sqrt(2.0)
    st = product_state(coherent_state(1.0, 16), basis_state(0, 2), (amp, amp), "quasi")
    plus, minus = measure_atom(st, "plusminus")
    assert plus.probability == pytest.approx(1.0)
    assert minus.probability == pytest.approx(0.0, abs=1e-15)
    assert minus.post_state is None
    assert plus.post_state.dims == (16, 2, 1)


def test_measure_atom_energy_basis():
    st = product_state(coherent_state(1.0, 16), basis_state(0, 2), (0.6, 0.8), "quasi")
    plus, minus = measure_atom(st, "energy")
    assert plus.probability == pytest.approx(0.64)
    assert minus.probability == pytest.approx(0.36)
    assert plus.probability + minus.probability == pytest.approx(1.0)


def test_measure_atom_branch_orthogonality_bound():
    # the large-detuning protocol's two outputs overlap at most as much as
    # the two coherent branches do
    g, delta, mu = 1.0, 60.0, 2.0
    dim = 24
    amp = 1.0 / math.sqrt(2.0)
    st = product_state(coherent_state(mu, dim), basis_state(0, 2), (amp, amp), "quasi")
    t_prime = math.pi * delta / (2 * g * g)
    out = evolve_effective(st, t_prime, g, delta)
    plus, minus = measure_atom(out, "plusminus")
    overlap = abs(np.vdot(plus.post_state.tensor, minus.post_state.tensor))
    assert overlap <= abs(coherent_overlap(1j * mu, -1j * mu)) + 1e-12


def test_measure_atom_requires_atom_axis():
    st = product_state(basis_state(0, 4), basis_state(0, 3), (1.0,), "quasi")
    with pytest.raises(BadSubsystem):
        measure_atom(st)


# -------------------------------------------------- adiabatic elimination


def test_adiabatic_residual_zero_coupling():
    assert adiabatic_residual(0.0, 50.0, 10) == pytest.approx(0.0, abs=1e-14)


def test_adiabatic_residual_quarters_when_detuning_doubles():
    r1 = adiabatic_residual(1.0, 50.0, 10)
    r2 = adiabatic_residual(1.0, 100.0, 10)
    assert r1 / r2 == pytest.approx(4.0, rel=0.25)


def test_adiabatic_residual_regression_anchor():
    # g/delta = 0.02, n_max = 10
    residual = adiabatic_residual(1.0, 50.0, 10)
    assert residual == pytest.approx(0.016857, abs=5e-5)
    keep = (np.arange(40) <= 10).astype(np.float64)
    proj = np.kron(np.diag(keep), np.eye(2))
    scale = np.linalg.norm(oracles.dispersive_hamiltonian(1.0, 50.0, 40) @ proj, 2)
    assert residual / scale < 1e-3


def test_elimination_operator_orders():
    r1 = elimination_operator_residuals(1.0, 50.0, 10)
    r2 = elimination_operator_residuals(1.0, 100.0, 10)
    # first-order expansions leave O(lambda^2) remainders, the inversion
    # expansion is second order with an O(lambda^3) remainder
    assert r1["mode"] / r2["mode"] == pytest.approx(4.0, rel=0.25)
    assert r1["lowering"] / r2["lowering"] == pytest.approx(4.0, rel=0.25)
    assert r1["inversion"] / r2["inversion"] == pytest.approx(8.0, rel=0.25)


@settings(max_examples=40, deadline=None)
@given(
    g=strategies.floats(0.05, 2.0, exclude_min=True),
    ratio=strategies.floats(10.0, 1000.0),
    sign=strategies.sampled_from((1.0, -1.0)),
    n_max=strategies.integers(0, 40),
    extra=strategies.integers(8, 40),
)
def test_sector_elimination_residuals_match_dense_reference(
    g, ratio, sign, n_max, extra
):
    delta = sign * ratio * g
    dim = n_max + extra
    keep = (np.arange(dim) <= n_max).astype(np.float64)
    proj = np.kron(np.diag(keep), np.eye(2))
    h_disp = oracles.dispersive_hamiltonian(g, delta, dim)
    h_scale = np.linalg.norm(proj @ h_disp @ proj, 2)
    assert dispersive_norm(g, delta, n_max) == pytest.approx(h_scale, rel=1e-13)
    residual = adiabatic_residual(g, delta, n_max)
    dense_residual = oracles.adiabatic_residual(g, delta, dim, n_max)
    assert abs(residual - dense_residual) <= 1e-13 * h_scale
    ops = elimination_operator_residuals(g, delta, n_max)
    dense = oracles.elimination_operator_residuals(g, delta, dim, n_max)
    scales = {"mode": math.sqrt(n_max + 1), "lowering": 1.0, "inversion": 1.0}
    for name, scale in scales.items():
        assert abs(ops[name] - dense[name]) <= 1e-13 * scale, name
