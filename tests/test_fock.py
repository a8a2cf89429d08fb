import math

import numpy as np
import pytest

from quasicat import (
    DimTooSmall,
    DimensionMismatch,
    NonFiniteInput,
    ParameterOutOfRange,
    basis_state,
    coherent_overlap,
    coherent_state,
    displacement_matrix,
    expm_antihermitian,
    ladder_matrix,
    squeeze_matrix,
    squeezed_vacuum,
    suggested_dim,
)
from quasicat.fock import NBAR_MAX, coherent_dim, coherent_nbar


def test_vacuum_is_basis_zero():
    v = coherent_state(0.0, 8)
    expected = np.zeros(8)
    expected[0] = 1.0
    np.testing.assert_allclose(v.amps, expected)
    assert v.report.tail_mass == 0.0


def test_coherent_amplitude_ratio_law():
    # c_{n+1}/c_n = e^{-i phi} sqrt(nbar/(n+1)) for amplitude sqrt(nbar) e^{-i phi}
    nbar = 3.0
    phi = 0.7
    alpha = math.sqrt(nbar) * np.exp(-1j * phi)
    v = coherent_state(alpha, 40)
    for n in range(0, 12):
        ratio = v.amps[n + 1] / v.amps[n]
        expected = np.exp(-1j * phi) * math.sqrt(nbar / (n + 1))
        assert abs(ratio - expected) < 1e-12


def test_coherent_mean_photon():
    v = coherent_state(2.0, 40)
    assert abs(v.mean_photon() - 4.0) < 1e-10


def test_coherent_norm_and_tail():
    for alpha in (0.5, 1.5 + 0.5j, -2.0j):
        v = coherent_state(alpha, suggested_dim(alpha))
        assert abs(v.norm() - 1.0) < 1e-12
        assert 0.0 <= v.report.tail_mass < 1e-10
        assert abs(v.mean_photon() - abs(alpha) ** 2) < 10 * 1e-10


def test_coherent_dim_too_small():
    with pytest.raises(DimTooSmall):
        coherent_state(3.0, 6)


def test_coherent_dim_unchanged_up_to_nbar_100():
    # the automatic truncation keeps suggested_dim + 12 wherever that passed
    rng = np.random.default_rng(3)
    for nbar in np.linspace(0.0, 100.0, 401):
        alpha = math.sqrt(nbar) * np.exp(2j * np.pi * rng.uniform())
        assert coherent_dim(alpha) == suggested_dim(alpha) + 12


@pytest.mark.parametrize(
    "nbar, dim", [(200.0, 307), (400.0, None), (1000.0, 1229), (1400.0, 1670)]
)
def test_coherent_dim_holds_the_tail_past_nbar_100(nbar, dim):
    alpha = -1j * math.sqrt(nbar)
    size = coherent_dim(alpha)
    assert size > suggested_dim(alpha) + 12
    assert dim is None or size == dim
    assert coherent_state(alpha, size).report.tail_mass < 1e-10
    # the old size leaks, and its refusal suggests the new one
    with pytest.raises(DimTooSmall, match=f"try dim >= {size}$"):
        coherent_state(alpha, suggested_dim(alpha) + 12)


@pytest.mark.parametrize("nbar", [9.0, 50.0, 200.0])
@pytest.mark.parametrize("leak_tol", [1e-15, 1e-16, 1e-17])
def test_coherent_dim_at_roundoff_leak_tol_never_names_a_refused_dim(nbar, leak_tol):
    # 1 - sum |c_n|^2 cannot resolve a tail this small, so the automatic dim
    # may be refused; the refusal must then not point back at that dim
    alpha = math.sqrt(nbar)
    heuristic = suggested_dim(alpha) + 12
    size = coherent_dim(alpha, leak_tol)
    assert size >= heuristic
    for dim in (heuristic, size):
        try:
            coherent_state(alpha, dim, leak_tol)
        except DimTooSmall as exc:
            hint = str(exc).split("; ")[-1]
            if hint.startswith("try dim >= "):
                assert int(hint.removeprefix("try dim >= ")) > dim
            else:
                assert hint == "leak_tol is below the rounding error of the tail sum"
                assert dim >= size


def test_coherent_refusal_at_roundoff_names_the_rounding():
    # at nbar 50 the true tail at dim 121 is below 2.5e-16, but the sum
    # leaves 4.1e-15
    alpha = math.sqrt(50.0)
    assert coherent_dim(alpha, 1e-15) == 121
    with pytest.raises(DimTooSmall, match="below the rounding error of the tail sum$"):
        coherent_state(alpha, 121, 1e-15)


def test_coherent_refuses_amplitude_past_vacuum_underflow():
    # exp(-|alpha|^2 / 2) underflows past NBAR_MAX ~ 1416.8; the refusal names
    # alpha and comes before a dim of 2**62 levels is allocated
    assert 1416.0 < NBAR_MAX < 1417.0
    v = coherent_state(math.sqrt(1400.0), 2000)
    assert v.mean_photon() == pytest.approx(1400.0, rel=1e-9)
    for alpha in (math.sqrt(1500.0), 1e150j, 1e300, -1e300j):
        with pytest.raises(ParameterOutOfRange, match="alpha"):
            coherent_state(alpha, 2**62)
    assert coherent_nbar(3.0 - 4.0j) == 25.0


def test_coherent_rejects_nonfinite():
    with pytest.raises(NonFiniteInput):
        coherent_state(complex(np.nan, 0.0), 8)


def test_basis_state_bounds():
    v = basis_state(3, 5)
    assert v.amps[3] == 1.0
    assert v.norm() == 1.0
    with pytest.raises(DimensionMismatch):
        basis_state(5, 5)


def test_squeezed_vacuum_even_support():
    v = squeezed_vacuum(0.4 + 0.2j, 40)
    assert abs(v.norm() - 1.0) < 1e-12
    np.testing.assert_allclose(v.amps[1::2], 0.0)
    assert np.abs(v.amps[2]) > 0.0


def test_squeezed_vacuum_zero_is_vacuum():
    v = squeezed_vacuum(0.0, 8)
    expected = np.zeros(8)
    expected[0] = 1.0
    np.testing.assert_allclose(v.amps, expected)


def test_squeezed_vacuum_mean_photon():
    v = squeezed_vacuum(0.5, 60)
    assert abs(v.mean_photon() - math.sinh(0.5) ** 2) < 1e-8


def test_squeezed_vacuum_cap():
    with pytest.raises(ParameterOutOfRange):
        squeezed_vacuum(1.6, 80)


def test_squeezed_vacuum_matches_operator():
    z = 0.3
    v = squeezed_vacuum(z, 60)
    w = squeeze_matrix(z, 60)[:, 0]
    assert np.linalg.norm(v.amps - w) < 1e-10
    assert abs(np.vdot(w, v.amps)) ** 2 >= 1.0 - 1e-9


def test_ladder_matrix_entries():
    a = ladder_matrix(2)
    np.testing.assert_allclose(a, [[0, 1], [0, 0]])
    a = ladder_matrix(6)
    for n in range(1, 6):
        assert a[n - 1, n] == pytest.approx(math.sqrt(n))


def test_ladder_commutator_interior():
    dim = 12
    a = ladder_matrix(dim)
    comm = a @ a.conj().T - a.conj().T @ a
    # canonical commutator holds below the truncation edge
    np.testing.assert_allclose(comm[: dim - 1, : dim - 1], np.eye(dim - 1), atol=1e-12)
    assert comm[dim - 1, dim - 1] == pytest.approx(1 - dim)


def test_coherent_is_ladder_eigenvector_low_block():
    alpha = 1.2 + 0.3j
    dim = 40
    v = coherent_state(alpha, dim)
    resid = ladder_matrix(dim) @ v.amps - alpha * v.amps
    assert np.linalg.norm(resid[:20]) < 1e-8


def test_displacement_unitary_and_identity():
    np.testing.assert_allclose(displacement_matrix(0.0, 10), np.eye(10), atol=1e-12)
    d = displacement_matrix(0.8 - 0.2j, 30)
    np.testing.assert_allclose(d.conj().T @ d, np.eye(30), atol=1e-10)
    dinv = displacement_matrix(-(0.8 - 0.2j), 30)
    np.testing.assert_allclose(d @ dinv, np.eye(30), atol=1e-9)


def test_displacement_creates_coherent():
    d = displacement_matrix(1.0, 30)
    target = coherent_state(1.0, 30)
    fid = abs(np.vdot(target.amps, d[:, 0])) ** 2
    assert fid >= 1.0 - 1e-10


def test_displacement_refuses_a_single_level():
    with pytest.raises(DimTooSmall):
        displacement_matrix(0.0, 1)


def test_squeeze_matrix_unitary_and_inverse():
    np.testing.assert_allclose(squeeze_matrix(0.0, 12), np.eye(12), atol=1e-12)
    s = squeeze_matrix(0.3 + 0.1j, 40)
    np.testing.assert_allclose(s.conj().T @ s, np.eye(40), atol=1e-10)
    sinv = squeeze_matrix(-(0.3 + 0.1j), 40)
    np.testing.assert_allclose(s @ sinv, np.eye(40), atol=1e-9)


def test_expm_antihermitian_rejects_hermitian():
    with pytest.raises(DimensionMismatch):
        expm_antihermitian(np.eye(3))


def test_expm_antihermitian_rejects_an_asymmetry_above_its_tolerance():
    with pytest.raises(DimensionMismatch):
        expm_antihermitian(np.array([[0.0, 1.0], [-1.0 - 5e-6, 0.0]]))


def test_coherent_overlap_closed_form():
    assert coherent_overlap(1.3 - 0.4j, 1.3 - 0.4j) == pytest.approx(1.0)
    mu = 2.0
    assert abs(coherent_overlap(1j * mu, -1j * mu)) == pytest.approx(
        math.exp(-2 * mu * mu)
    )
    # mu = 5 the two branches are orthogonal for every practical purpose
    assert abs(coherent_overlap(5j, -5j)) < 2e-22


def test_coherent_overlap_matches_truncated_inner_product():
    alpha, beta = 0.9 + 0.4j, -0.6 + 1.1j
    dim = 40
    va = coherent_state(alpha, dim)
    vb = coherent_state(beta, dim)
    assert va.report.tail_mass < 1e-12 and vb.report.tail_mass < 1e-12
    assert abs(va.overlap(vb) - coherent_overlap(alpha, beta)) < 1e-8
