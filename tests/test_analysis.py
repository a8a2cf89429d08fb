import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasicat import (
    BadSubsystem,
    BasisMismatch,
    DensityMatrix,
    DimensionMismatch,
    GridTooSmall,
    NormViolation,
    SystemState,
    atomic_inversion,
    basis_state,
    cat_target,
    coherent_overlap,
    coherent_state,
    entropy,
    fidelity,
    husimi_q,
    mean_photon,
    partial_trace,
    product_state,
    pure_overlap,
    purity,
    rotation_params,
    suggested_dim,
    trace_distance,
    two_mode_cat_target,
)
from quasicat.analysis import atom_purity, mode_mean_photon, mode_overlaps
from quasicat.fock import LEAK_TOL, NBAR_MAX, coherent_dim
from quasicat.husimi import HERMITE_BLOCK, gabor_plan

import oracles


def _pure_dm(vec, dims):
    vec = np.asarray(vec, dtype=np.complex128).reshape(-1)
    return DensityMatrix(np.outer(vec, vec.conj()), dims)


def _random_state(rng, dims=(5, 4, 2)):
    t = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    t /= np.linalg.norm(t)
    return SystemState(t, "physical")


# --------------------------------------------------------- density matrix


def test_density_matrix_guards():
    with pytest.raises(DimensionMismatch):
        DensityMatrix(np.eye(3) / 3.0, (2,))
    with pytest.raises(DimensionMismatch):
        DensityMatrix(np.array([[0.5, 0.3], [0.0, 0.5]]), (2,))
    with pytest.raises(NormViolation):
        DensityMatrix(np.eye(2), (2,))


def test_density_matrix_rejects_an_asymmetry_above_its_tolerance():
    # 5e-6 is above the 1e-8 Hermiticity tolerance, though inside
    # np.allclose's default relative one
    with pytest.raises(DimensionMismatch):
        DensityMatrix(np.array([[0.5, 0.5], [0.5 + 5e-6, 0.5]]), (2,))


def test_partial_trace_product_state_is_pure():
    st = product_state(coherent_state(0.9, 16), basis_state(2, 5), (0.6, 0.8))
    for keep in ("mode1", "mode2", "atom"):
        assert purity(partial_trace(st, keep)) == pytest.approx(1.0, abs=1e-10)


def test_partial_trace_orthogonal_branches_half_purity():
    t = np.zeros((3, 2, 2), dtype=complex)
    t[0, 0, 0] = 1.0 / math.sqrt(2.0)
    t[1, 0, 1] = 1.0 / math.sqrt(2.0)
    st = SystemState(t, "physical")
    rho = partial_trace(st, "atom")
    assert purity(rho) == pytest.approx(0.5, abs=1e-12)
    assert entropy(rho) == pytest.approx(math.log(2.0), abs=1e-12)


def test_partial_trace_mode1_purity_tracks_branch_overlap():
    # (|a>|0> + |b>|1>)/sqrt(2) with orthogonal flags on mode 2 leaves
    # mode 1 in an even mixture of the two branches
    a, b = 0.8, -0.5 + 0.3j
    dim = 20
    va = coherent_state(a, dim).amps
    vb = coherent_state(b, dim).amps
    t = np.zeros((dim, 2, 1), dtype=complex)
    t[:, 0, 0] = va / math.sqrt(2.0)
    t[:, 1, 0] = vb / math.sqrt(2.0)
    st = SystemState(t, "physical")
    expected = 0.5 * (1.0 + abs(coherent_overlap(a, b)) ** 2)
    assert purity(partial_trace(st, "mode1")) == pytest.approx(expected, abs=1e-9)


def test_partial_trace_keep_order_is_layout_order():
    rng = np.random.default_rng(7)
    st = _random_state(rng)
    r1 = partial_trace(st, ("mode1", "atom"))
    r2 = partial_trace(st, ("atom", "mode1"))
    assert r1.dims == r2.dims == (5, 2)
    np.testing.assert_allclose(r1.matrix, r2.matrix, atol=1e-14)


def test_partial_trace_of_density_matrix_matches_direct():
    rng = np.random.default_rng(8)
    st = _random_state(rng)
    joint = partial_trace(st, ("mode1", "mode2", "atom"))
    via_dm = partial_trace(joint, "atom")
    direct = partial_trace(st, "atom")
    assert trace_distance(via_dm, direct) < 1e-12


def test_partial_trace_bad_subsystem():
    rng = np.random.default_rng(9)
    st = _random_state(rng)
    with pytest.raises(BadSubsystem):
        partial_trace(st, "mode3")
    with pytest.raises(BadSubsystem):
        partial_trace(st, ())
    rho = partial_trace(st, ("mode1", "atom"))
    with pytest.raises(BadSubsystem):
        partial_trace(rho, "mode1")


# ------------------------------------------------------- scalar measures


def test_entropy_and_purity_limits():
    pure = _pure_dm([1.0, 0.0], (2,))
    assert entropy(pure) == pytest.approx(0.0, abs=1e-12)
    assert purity(pure) == pytest.approx(1.0, abs=1e-12)
    mixed = DensityMatrix(0.5 * np.eye(2), (2,))
    assert entropy(mixed) == pytest.approx(math.log(2.0), abs=1e-12)
    assert purity(mixed) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_basic():
    v0 = basis_state(0, 4)
    v1 = basis_state(1, 4)
    assert fidelity(v0, v0) == pytest.approx(1.0)
    assert fidelity(v0, v1) == pytest.approx(0.0, abs=1e-15)
    a, b = 0.7 + 0.2j, -0.4
    f = fidelity(coherent_state(a, 20), coherent_state(b, 20))
    assert f == pytest.approx(abs(coherent_overlap(a, b)) ** 2, abs=1e-10)


def test_fidelity_guards():
    sa = product_state(basis_state(0, 3), basis_state(0, 2), (1.0, 0.0), "physical")
    sb = product_state(basis_state(0, 3), basis_state(0, 2), (1.0, 0.0), "quasi")
    with pytest.raises(BasisMismatch):
        fidelity(sa, sb)
    with pytest.raises(DimensionMismatch):
        fidelity(basis_state(0, 3), basis_state(0, 4))


def test_pure_overlap_mixed_state():
    mixed = DensityMatrix(0.5 * np.eye(2), (2,))
    assert pure_overlap(mixed, [1.0, 0.0]) == pytest.approx(0.5)
    with pytest.raises(DimensionMismatch):
        pure_overlap(mixed, [1.0, 0.0, 0.0])


def test_trace_distance_limits():
    p0 = _pure_dm([1.0, 0.0], (2,))
    p1 = _pure_dm([0.0, 1.0], (2,))
    assert trace_distance(p0, p0) == pytest.approx(0.0, abs=1e-15)
    assert trace_distance(p0, p1) == pytest.approx(1.0)
    mixed = DensityMatrix(0.5 * np.eye(2), (2,))
    assert trace_distance(mixed, p0) == pytest.approx(0.5)
    with pytest.raises(DimensionMismatch):
        trace_distance(p0, _pure_dm([1.0, 0.0, 0.0], (3,)))


def test_atomic_inversion_values():
    lower = product_state(basis_state(0, 3), basis_state(0, 2), (1.0, 0.0))
    assert atomic_inversion(lower) == pytest.approx(-1.0)
    upper = product_state(basis_state(0, 3), basis_state(0, 2), (0.0, 1.0))
    assert atomic_inversion(upper) == pytest.approx(1.0)
    amp = 1.0 / math.sqrt(2.0)
    even = product_state(basis_state(0, 3), basis_state(0, 2), (amp, amp))
    assert atomic_inversion(even) == pytest.approx(0.0, abs=1e-15)
    field_only = product_state(basis_state(0, 3), basis_state(0, 2), (1.0,))
    with pytest.raises(BadSubsystem):
        atomic_inversion(field_only)


@settings(max_examples=50, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 9), st.integers(1, 5)),
    rays=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_stack_observables_match_reduced_states(shape, rays, seed):
    # each stack observable equals the partial-trace route on every slice
    steps, dim1, dim2 = shape
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(steps, dim1, dim2, 2)) + 1j * rng.normal(
        size=(steps, dim1, dim2, 2)
    )
    stack /= np.sqrt(np.sum(np.abs(stack) ** 2, axis=(1, 2, 3), keepdims=True))
    targets = rng.normal(size=(rays, dim1)) + 1j * rng.normal(size=(rays, dim1))
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)
    inversion = atomic_inversion(stack)
    atom = atom_purity(stack)
    overlaps = mode_overlaps(stack, targets)
    photons = mode_mean_photon(stack)
    assert overlaps.shape == (steps, rays)
    for k in range(steps):
        state = SystemState(stack[k], "quasi")
        mode1 = partial_trace(state, "mode1")
        assert abs(inversion[k] - atomic_inversion(state)) <= 1e-12
        assert abs(atom[k] - purity(partial_trace(state, "atom"))) <= 1e-12
        assert abs(photons[k] - mean_photon(mode1)) <= 1e-12
        for r in range(rays):
            assert abs(overlaps[k, r] - pure_overlap(mode1, targets[r])) <= 1e-12


def test_stack_observables_of_one_state_are_floats():
    state = product_state(coherent_state(0.9, 16), basis_state(0, 1), (0.6, 0.8))
    assert isinstance(atomic_inversion(state.tensor), float)
    assert isinstance(atom_purity(state), float)
    assert mode_mean_photon(state) == pytest.approx(0.81, abs=1e-10)
    with pytest.raises(BadSubsystem):
        atom_purity(state.tensor[:, :, :1])


def test_mean_photon():
    alpha = 1.2 - 0.4j
    rho = _pure_dm(coherent_state(alpha, 24).amps, (24,))
    assert mean_photon(rho) == pytest.approx(abs(alpha) ** 2, abs=1e-9)
    rng = np.random.default_rng(10)
    with pytest.raises(BadSubsystem):
        mean_photon(partial_trace(_random_state(rng), ("mode1", "mode2")))


# ---------------------------------------------------------- entanglement


def test_schmidt_entropy_symmetry():
    rng = np.random.default_rng(11)
    st = _random_state(rng, (6, 5, 2))
    s_a = entropy(partial_trace(st, "mode1"))
    s_b = entropy(partial_trace(st, ("mode2", "atom")))
    assert abs(s_a - s_b) < 1e-8


def test_local_unitary_leaves_spectra_alone():
    rng = np.random.default_rng(12)
    st = _random_state(rng, (5, 4, 2))
    u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    rotated = SystemState(np.einsum("st,ijt->ijs", u, st.tensor), st.basis)
    assert entropy(partial_trace(rotated, "atom")) == pytest.approx(
        entropy(partial_trace(st, "atom")), abs=1e-9
    )
    assert (
        trace_distance(
            partial_trace(rotated, "mode1"), partial_trace(st, "mode1")
        )
        < 1e-9
    )


def test_two_mode_cat_entanglement_is_one_bit():
    rot = rotation_params(1.0, 1.0)
    nbar = 16.0
    alpha = 1j * math.sqrt(nbar / 2.0)
    st = two_mode_cat_target(alpha, alpha, rot, 40, 40, convention=1)
    assert entropy(partial_trace(st, "mode1")) == pytest.approx(
        math.log(2.0), abs=1e-6
    )
    assert entropy(partial_trace(st, "mode2")) == pytest.approx(
        math.log(2.0), abs=1e-6
    )


# -------------------------------------------------------------- husimi Q


def test_husimi_vacuum_origin_value():
    rho = _pure_dm(basis_state(0, 8).amps, (8,))
    axis = np.linspace(-2.0, 2.0, 81)
    grid = husimi_q(rho, axis, axis)
    assert grid.values[40, 40] == pytest.approx(1.0 / math.pi, abs=1e-12)
    assert grid.values.max() <= 1.0 / math.pi + 1e-12
    assert grid.values.min() >= 0.0


def test_husimi_coherent_peak_location():
    alpha = 1.0 + 0.5j
    rho = _pure_dm(coherent_state(alpha, suggested_dim(alpha)).amps,
                   (suggested_dim(alpha),))
    grid = husimi_q(rho)
    i, j = np.unravel_index(np.argmax(grid.values), grid.values.shape)
    step = grid.re_axis[1] - grid.re_axis[0]
    assert abs(grid.re_axis[j] - alpha.real) <= step
    assert abs(grid.im_axis[i] - alpha.imag) <= step
    assert grid.integral() == pytest.approx(1.0, rel=0.02)


def test_husimi_cat_shows_both_lobes():
    cat = cat_target(3.0, 1, dim=40)
    rho = _pure_dm(cat.amps, (40,))
    grid = husimi_q(rho)
    for sel, sign in ((grid.im_axis > 0, 1.0), (grid.im_axis < 0, -1.0)):
        sub = grid.values[sel, :]
        i, j = np.unravel_index(np.argmax(sub), sub.shape)
        assert abs(grid.re_axis[j] - 0.0) < 0.2
        assert abs(grid.im_axis[sel][i] - sign * 3.0) < 0.2
    assert grid.integral() == pytest.approx(1.0, rel=0.02)
    assert grid.values.max() <= 1.0 / math.pi + 1e-12


def test_husimi_of_a_ket_never_reads_the_matrix():
    # from_ket's rho is summed from the ket, and <n> for the default axes
    # comes from it too, so the grid is the same without rho.matrix
    rho = DensityMatrix.from_ket(cat_target(2.5 - 1.5j, 1, 40).amps)
    limit = 1.5 * (math.sqrt(mean_photon(rho)) + 2.0)
    expected = husimi_q(rho, count=31)
    np.testing.assert_array_equal(expected.re_axis, np.linspace(-limit, limit, 31))
    del rho.matrix
    grid = husimi_q(rho, count=31)
    np.testing.assert_array_equal(grid.re_axis, expected.re_axis)
    np.testing.assert_array_equal(grid.values, expected.values)


def test_husimi_grid_guards():
    cat = cat_target(2.0, 1, dim=30)
    rho = _pure_dm(cat.amps, (30,))
    with pytest.raises(GridTooSmall):
        husimi_q(rho, np.linspace(-2.0, 2.0, 41), np.linspace(-2.0, 2.0, 41))
    with pytest.raises(GridTooSmall):
        husimi_q(rho, np.array([0.0]), None)
    rng = np.random.default_rng(13)
    joint = partial_trace(_random_state(rng), ("mode1", "mode2"))
    with pytest.raises(BadSubsystem):
        husimi_q(joint)


def test_from_ket_guards():
    ket = coherent_state(1.0 + 0.5j, 24).amps
    rho = DensityMatrix.from_ket(ket, "mode1")
    assert rho.dims == (24,)
    assert np.array_equal(rho.matrix, np.outer(ket, ket.conj()))
    with pytest.raises(NormViolation):
        DensityMatrix.from_ket(ket * math.sqrt(1.0 + 1e-6))
    with pytest.raises(NormViolation):
        DensityMatrix.from_ket(ket * math.sqrt(1.0 - 1e-6))
    with pytest.raises(NormViolation):
        DensityMatrix.from_ket(np.full(24, np.nan))
    with pytest.raises(DimensionMismatch):
        DensityMatrix.from_ket(ket, dims=(5,))
    with pytest.raises(DimensionMismatch):
        DensityMatrix.from_ket(ket.reshape(4, 6), dims=(24,))


@pytest.mark.filterwarnings("error")
def test_husimi_far_axes_stay_finite():
    # points far past the state's reach read 0 and add no trapezoid nodes,
    # so the +-1e7 rows and columns neither overflow nor cost anything
    alpha = 2.0 - 1.0j
    rho = DensityMatrix.from_ket(coherent_state(alpha, 80).amps)
    axis = np.array([-1e7, -1.0, 0.0, 2.0, 1e7])
    grid = husimi_q(rho, axis, axis)
    beta = axis[None, :] + 1j * axis[:, None]
    exact = np.exp(-np.abs(beta - alpha) ** 2) / np.pi
    assert np.abs(grid.values - exact).max() <= 1e-14


def _axis(draw, reach):
    """+-reach first, then 0 and random points within [-reach, reach]; or,
    half the time, np.linspace from +-reach, which takes the FFT route."""
    edge = draw(st.sampled_from((-1.0, 1.0)))
    if draw(st.booleans()):
        end = draw(st.floats(-1.0, 1.0))
        return np.linspace(edge * reach, end * reach, draw(st.integers(2, 40)))
    inner = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6))
    return np.array([edge, 0.0, *inner]) * reach


@st.composite
def _husimi_case(draw, max_dim, mixed):
    dim = draw(st.integers(2, max_dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ket = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    # weight the levels so that some kets sit near the vacuum, some far out
    ket *= rng.random(dim) ** draw(st.sampled_from((0.0, 2.0, 8.0)))
    if mixed:
        unitary, _ = np.linalg.qr(
            rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        )
        # eigenvalues spread over many decades, and some exactly zero
        weights = rng.random(dim) ** draw(st.sampled_from((1.0, 4.0, 16.0)))
        weights[: draw(st.integers(0, dim - 1))] = 0.0
        matrix = (unitary * (weights / weights.sum())) @ unitary.conj().T
        rho = DensityMatrix(0.5 * (matrix + matrix.conj().T), (dim,))
    else:
        rho = DensityMatrix.from_ket(ket / np.linalg.norm(ket))
    # |beta|^2 <= 600 keeps the dense reference clear of underflow
    low = 1.5 * math.sqrt(max(mean_photon(rho), 0.0)) + 1e-9
    reach = draw(st.floats(low, math.sqrt(300.0)))
    return rho, _axis(draw, reach), _axis(draw, reach)


@settings(max_examples=100, deadline=None)
@given(case=st.one_of(_husimi_case(80, mixed=False), _husimi_case(30, mixed=True)))
def test_husimi_matches_dense_reference(case):
    rho, re_axis, im_axis = case
    grid = husimi_q(rho, re_axis, im_axis)
    dense = np.maximum(oracles.husimi_grid(rho.matrix, re_axis, im_axis), 0.0)
    assert np.abs(grid.values - dense).max() <= 1e-14


@pytest.mark.parametrize("n_re, n_im", [(41, 40), (40, 41), (2, 3), (60, 17)])
def test_husimi_fft_route_matches_dense_reference(n_re, n_im):
    # uniform momenta take one FFT per position; a rank-3 mixed state
    rng = np.random.default_rng(100 * n_re + n_im)
    dim = 24
    unitary, _ = np.linalg.qr(
        rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    )
    weights = np.zeros(dim)
    weights[:3] = (0.5, 0.3, 0.2)
    matrix = (unitary * weights) @ unitary.conj().T
    rho = DensityMatrix(0.5 * (matrix + matrix.conj().T), (dim,))
    re_axis = np.linspace(-10.0, 10.0, n_re)
    im_axis = np.linspace(-8.0, 10.0, n_im)
    *_, fft_len = gabor_plan(dim, math.sqrt(2.0) * re_axis, math.sqrt(2.0) * im_axis)
    assert fft_len is not None
    grid = husimi_q(rho, re_axis, im_axis)
    dense = np.maximum(oracles.husimi_grid(rho.matrix, re_axis, im_axis), 0.0)
    assert np.abs(grid.values - dense).max() <= 1e-14


@pytest.mark.parametrize("uniform", [True, False])
def test_husimi_rank_past_one_recurrence_pass_matches_dense_reference(uniform):
    # a full-rank rho has more eigenvectors than one pass of the Hermite
    # recurrence takes, on the FFT route and on the phase-matrix route
    rng = np.random.default_rng(7)
    dim = HERMITE_BLOCK + 16
    unitary, _ = np.linalg.qr(
        rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    )
    weights = rng.random(dim)
    matrix = (unitary * (weights / weights.sum())) @ unitary.conj().T
    rho = DensityMatrix(0.5 * (matrix + matrix.conj().T), (dim,))
    re_axis = np.linspace(-12.0, 12.0, 25)
    if uniform:
        im_axis = np.linspace(-12.0, 11.0, 24)
    else:
        im_axis = np.sort(rng.uniform(-12.0, 12.0, 24))
    grid = husimi_q(rho, re_axis, im_axis)
    dense = np.maximum(oracles.husimi_grid(rho.matrix, re_axis, im_axis), 0.0)
    assert np.abs(grid.values - dense).max() <= 1e-14


@settings(max_examples=100, deadline=None)
@given(
    nbar=st.floats(0.5, NBAR_MAX, exclude_max=True),
    convention=st.sampled_from((1, -1)),
    offsets=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4),
)
def test_husimi_cat_matches_closed_form(nbar, convention, offsets):
    mu = math.sqrt(nbar)
    cat = cat_target(mu, convention, coherent_dim(mu), LEAK_TOL)
    limit = 1.5 * (mu + 2.0)
    # both lobes sit at +-i mu on the imaginary axis
    re_axis = np.array([-limit, 0.0, *offsets, limit])
    im_axis = np.array([-limit, -mu, mu, *(mu + o for o in offsets), limit])
    grid = husimi_q(DensityMatrix.from_ket(cat.amps), re_axis, im_axis)
    alphas = re_axis[None, :] + 1j * im_axis[:, None]
    exact = oracles.cat_husimi(mu, nbar, convention, alphas)
    # the truncation bound from leak_tol; its derivation is in the docstring
    bound = oracles.cat_husimi_bound(nbar, convention, LEAK_TOL)
    assert np.abs(grid.values - exact).max() <= bound
