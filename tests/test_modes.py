import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import quasicat
from quasicat import (
    AmplitudePair,
    BasisMismatch,
    BothCouplingsZero,
    DimTooSmall,
    NonFiniteInput,
    NonUnitPhase,
    ParameterOutOfRange,
    ZeroDetuning,
    coherent_state,
    decouple_params,
    ladder_matrix,
    mode_rotation_unitary,
    quasi_phase_amplitudes,
    rotate_amplitudes,
    rotation_params,
    squeeze_composition,
    squeeze_identity_residual,
)
from oracles import gaussian_composition_residual, total_photon_shell_indices


def test_rotation_params_symmetric():
    rot = rotation_params(1.3, 1.3)
    assert rot.theta == pytest.approx(math.pi / 4)
    assert rot.g == pytest.approx(1.3 * math.sqrt(2))


def test_rotation_params_single_mode():
    rot = rotation_params(2.0, 0.0)
    assert rot.theta == 0.0
    assert rot.g == 2.0


def test_rotation_params_pythagorean():
    rot = rotation_params(3.0, 4.0)
    assert rot.g == pytest.approx(5.0)
    assert math.cos(rot.theta) == pytest.approx(0.6)
    assert abs(math.cos(rot.theta) - rot.g1 / rot.g) < 1e-12


def test_rotation_params_rejects_zero():
    with pytest.raises(BothCouplingsZero):
        rotation_params(0.0, 0.0)


@pytest.mark.parametrize("g1, g2", [(1e300, 0.7), (1.0, -1e300), (1e200, 1e200)])
def test_rotation_params_rejects_overflowing_coupling(g1, g2):
    with pytest.raises(NonFiniteInput, match="g1\\^2 \\+ g2\\^2"):
        rotation_params(g1, g2)


def test_rotation_params_keeps_couplings_whose_square_is_normal():
    # 1.5e-154^2 = 2.25e-308 sits just above the smallest normal float
    rot = rotation_params(1.5e-154, 0.0)
    assert rot.g == 1.5e-154
    assert rot.theta == 0.0


@pytest.mark.parametrize(
    "g1, g2",
    # a subnormal sum put g 0.6% off; at 1e-162 the sum underflows to 0
    [(1e-161, 0.0), (1e-162, 0.0), (0.0, -1e-162), (1e-162, 1e-162)],
)
def test_rotation_params_refuses_an_underflowing_coupling_sum(g1, g2):
    with pytest.raises(NonFiniteInput, match="underflows"):
        rotation_params(g1, g2)


def test_rotate_amplitudes_symmetric_concentrates():
    rot = rotation_params(1.0, 1.0)
    alpha = 0.8 - 0.3j
    quasi = rotate_amplitudes(rot, AmplitudePair(alpha, alpha))
    assert quasi.first == pytest.approx(math.sqrt(2) * alpha)
    assert abs(quasi.second) < 1e-15
    assert quasi.basis == "quasi"


def test_rotate_amplitudes_worked_case():
    nbar = 25.0
    rot = rotation_params(1.0, 1.0)
    amp = -1j * math.sqrt(nbar)
    quasi = rotate_amplitudes(rot, AmplitudePair(amp, amp))
    assert quasi.first == pytest.approx(-1j * math.sqrt(2 * nbar))
    assert abs(quasi.second) < 1e-14


def test_rotate_amplitudes_theta_zero_identity():
    rot = rotation_params(1.0, 0.0)
    pair = AmplitudePair(0.2 + 0.1j, -0.4j)
    quasi = rotate_amplitudes(rot, pair)
    assert quasi.first == pair.first and quasi.second == pair.second


def test_rotate_amplitudes_round_trip_and_norm():
    rot = rotation_params(1.0, 0.7)
    rng = np.random.default_rng(11)
    for _ in range(20):
        pair = AmplitudePair(
            complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
        )
        quasi = rotate_amplitudes(rot, pair)
        back = rotate_amplitudes(rot, quasi)
        assert abs(back.first - pair.first) < 1e-14
        assert abs(back.second - pair.second) < 1e-14
        assert abs(quasi.first) ** 2 + abs(quasi.second) ** 2 == pytest.approx(
            abs(pair.first) ** 2 + abs(pair.second) ** 2
        )


def test_rotate_amplitudes_enforces_basis_tags():
    with pytest.raises(BasisMismatch):
        AmplitudePair(1.0, 0.0, "lab")


amplitudes = st.complex_numbers(
    max_magnitude=1e6, allow_nan=False, allow_infinity=False
)


@settings(max_examples=100, deadline=None)
@given(
    theta=st.floats(-math.pi, math.pi),
    first=amplitudes,
    second=amplitudes,
    basis=st.sampled_from(["physical", "quasi"]),
)
def test_rotate_amplitudes_follows_the_tag(theta, first, second, basis):
    # the pair's tag fixes the direction: each call lands in the other basis,
    # keeps |first|^2 + |second|^2, and a second call returns the pair
    rot = rotation_params(math.cos(theta), math.sin(theta))
    pair = AmplitudePair(first, second, basis)
    once = rotate_amplitudes(rot, pair)
    twice = rotate_amplitudes(rot, once)
    assert once.basis == ("quasi" if basis == "physical" else "physical")
    assert twice.basis == basis
    # relative bounds, with the smallest normal float as a floor for the
    # subnormal values tiny amplitudes (and their squares) round to
    tiny = sys.float_info.min
    norm_sq = abs(pair.first) ** 2 + abs(pair.second) ** 2
    assert abs(abs(once.first) ** 2 + abs(once.second) ** 2 - norm_sq) <= (
        1e-14 * norm_sq + tiny
    )
    scale = 1e-14 * max(abs(pair.first), abs(pair.second)) + tiny
    assert abs(twice.first - pair.first) <= scale
    assert abs(twice.second - pair.second) <= scale


def test_mode_rotation_unitary_theta_zero():
    rot = rotation_params(1.0, 0.0)
    np.testing.assert_allclose(mode_rotation_unitary(rot, 6, 6), np.eye(36), atol=1e-12)


def test_mode_rotation_unitary_is_unitary():
    rot = rotation_params(1.0, 0.6)
    r = mode_rotation_unitary(rot, 8, 8)
    np.testing.assert_allclose(r.conj().T @ r, np.eye(64), atol=1e-10)


def test_mode_rotation_unitary_coherent_factorization():
    rot = rotation_params(1.0, 1.4)
    dim = 40
    r = mode_rotation_unitary(rot, dim, dim)
    alpha, beta = 1.1 - 0.5j, -0.7 + 0.9j
    quasi = rotate_amplitudes(rot, AmplitudePair(alpha, beta))
    prod = np.kron(coherent_state(alpha, dim).amps, coherent_state(beta, dim).amps)
    target = np.kron(
        coherent_state(quasi.first, dim).amps, coherent_state(quasi.second, dim).amps
    )
    assert abs(np.vdot(target, r @ prod)) ** 2 >= 1.0 - 1e-8


def test_mode_rotation_conjugates_ladder():
    rot = rotation_params(1.0, 0.8)
    dim = 10
    r = mode_rotation_unitary(rot, dim, dim)
    a = np.kron(ladder_matrix(dim), np.eye(dim))
    b = np.kron(np.eye(dim), ladder_matrix(dim))
    expected = math.cos(rot.theta) * a + math.sin(rot.theta) * b
    cols = total_photon_shell_indices(dim)
    diff = (r.conj().T @ a @ r - expected)[:, cols]
    assert np.linalg.norm(diff, 2) < 1e-8


def test_mode_rotation_preserves_total_photon():
    rot = rotation_params(0.9, 1.2)
    dim = 10
    r = mode_rotation_unitary(rot, dim, dim)
    a = np.kron(ladder_matrix(dim), np.eye(dim))
    b = np.kron(np.eye(dim), ladder_matrix(dim))
    total = a.conj().T @ a + b.conj().T @ b
    cols = total_photon_shell_indices(dim)
    diff = (r.conj().T @ total @ r - total)[:, cols]
    assert np.linalg.norm(diff, 2) < 1e-9


@settings(max_examples=40, deadline=None)
@given(
    theta=st.floats(-math.pi, math.pi),
    dim1=st.integers(2, 9),
    dim2=st.integers(2, 9),
)
def test_mode_rotation_unitary_matches_dense_expm(theta, dim1, dim2):
    # the truncated mixer never leaves a total-photon shell, so the shell
    # blocks reproduce the dense exponential on every shell, edge included
    rot = rotation_params(math.cos(theta), math.sin(theta))
    a = np.kron(ladder_matrix(dim1), np.eye(dim2))
    b = np.kron(np.eye(dim1), ladder_matrix(dim2))
    dense = scipy.linalg.expm(rot.theta * (a.conj().T @ b - a @ b.conj().T))
    r = mode_rotation_unitary(rot, dim1, dim2)
    # real orthogonal: the shell blocks are cos and sin of a real matrix
    assert r.dtype == np.float64
    assert np.abs(r - dense).max() <= 1e-12
    assert np.abs(r.T @ r - np.eye(dim1 * dim2)).max() <= 1e-12


def test_mode_rotation_unitary_dim_guard():
    with pytest.raises(DimTooSmall):
        mode_rotation_unitary(rotation_params(1.0, 1.0), 1, 6)


def test_squeeze_composition_equal_parameters():
    rot = rotation_params(1.0, 0.7)
    p, q = squeeze_composition(rot, 0.3 - 0.2j, 0.3 - 0.2j)
    assert p == 0.0
    assert q == pytest.approx(0.3 - 0.2j)


def test_squeeze_composition_theta_zero():
    rot = rotation_params(1.0, 0.0)
    p, q = squeeze_composition(rot, 0.4j, -0.1)
    assert p == 0.0
    assert q == pytest.approx(0.4j)


def test_squeeze_composition_balanced():
    rot = rotation_params(1.0, 1.0)
    p, q = squeeze_composition(rot, 0.0, 0.4)
    assert p == pytest.approx(0.2)
    assert q == pytest.approx(0.2)


def test_squeeze_identity_equal_parameters():
    resid = squeeze_identity_residual(
        rotation_params(1.0, 0.7), 0.25 + 0.1j, 0.25 + 0.1j, dim=24
    )
    assert resid < 1e-9


def test_squeeze_identity_balanced_real():
    resid = squeeze_identity_residual(
        rotation_params(1.0, 1.0), 0.1, 0.35, dim=30
    )
    assert resid < 1e-6


def test_squeeze_identity_detects_invalid_composition():
    # unequal parameters away from theta = pi/4: the factorized form is wrong
    resid = squeeze_identity_residual(
        rotation_params(1.0, 0.5), 0.4, -0.2, dim=30
    )
    assert resid > 0.1


SQUEEZE_PARAM = st.builds(complex, st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))


@settings(max_examples=100, deadline=None)
@given(theta=st.floats(-math.pi, math.pi), z=SQUEEZE_PARAM)
def test_gaussian_composition_exact_for_equal_parameters(theta, z):
    rot = rotation_params(math.cos(theta), math.sin(theta))
    assert gaussian_composition_residual(rot, z, z) <= 1e-13


@settings(max_examples=100, deadline=None)
@given(z1=st.floats(-1.5, 1.5), z2=st.floats(-1.5, 1.5))
def test_gaussian_composition_exact_for_balanced_real_parameters(z1, z2):
    assert gaussian_composition_residual(rotation_params(1.0, 1.0), z1, z2) <= 1e-13


def test_gaussian_composition_detects_invalid_composition():
    rot = rotation_params(1.0, 0.5)
    assert gaussian_composition_residual(rot, 0.4, -0.2) > 0.1


@pytest.mark.parametrize(
    "g1, g2, z1, z2",
    [
        (1.0, 0.7, 0.3 - 0.2j, 0.3 - 0.2j),
        (-1.0, 0.5, 0.25, 0.25),
        (1.0, 1.0, 0.1, 0.35),
        (1.0, 0.7, 0.3, 0.1),
        (1.0, 1.0, 0.2j, 0.4),
        (0.3, 1.9, 0.2 + 0.1j, -0.3),
    ],
)
def test_gaussian_composition_agrees_with_fock_check(g1, g2, z1, z2):
    # both read roundoff on the same inputs and a clear failure on the rest
    rot = rotation_params(g1, g2)
    exact = gaussian_composition_residual(rot, z1, z2) <= 1e-13
    fock = squeeze_identity_residual(rot, z1, z2, dim=30)
    assert fock < 1e-9 if exact else fock > 1e-2


@pytest.mark.parametrize(
    "z1, z2, name", [(math.nan, 0.2, "z1"), (0.2, complex(0, math.inf), "z2")]
)
def test_squeeze_identity_refuses_a_nonfinite_parameter(z1, z2, name):
    with pytest.raises(NonFiniteInput, match=name):
        squeeze_identity_residual(rotation_params(1.0, 0.7), z1, z2, dim=12)


def test_squeeze_identity_refuses_a_negative_input_cap():
    with pytest.raises(ParameterOutOfRange, match="input_cap"):
        squeeze_identity_residual(rotation_params(1.0, 0.7), 0.2, 0.2, 12, -1)


def test_squeeze_identity_refuses_a_single_level():
    with pytest.raises(DimTooSmall):
        squeeze_identity_residual(rotation_params(1.0, 0.7), 0.2, 0.2, dim=1)


def test_validate_runs_without_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(quasicat.__file__)))
    argv = ["validate", "--out", str(tmp_path / "v"), "--trials", "1"]
    code = (
        "import sys\n"
        "from quasicat.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "assert 'scipy' not in sys.modules\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_quasi_phase_identity():
    rot = rotation_params(1.0, 0.6)
    pair = AmplitudePair(0.4 + 0.2j, -0.3 + 0.1j)
    out = quasi_phase_amplitudes(rot, 1.0, pair)
    assert abs(out.first - pair.first) < 1e-14
    assert abs(out.second - pair.second) < 1e-14


def test_quasi_phase_branch_symmetric():
    # balanced couplings, equal amplitudes: phasing mode I by i phases both
    # physical amplitudes by i
    rot = rotation_params(1.0, 1.0)
    alpha = 0.7 - 0.2j
    out = quasi_phase_amplitudes(rot, 1j, AmplitudePair(alpha, alpha))
    assert abs(out.first - 1j * alpha) < 1e-14
    assert abs(out.second - 1j * alpha) < 1e-14


def test_quasi_phase_minus_one_flips():
    rot = rotation_params(1.0, 1.0)
    alpha, beta = 0.5 + 0.1j, 0.5 + 0.1j
    out = quasi_phase_amplitudes(rot, -1.0, AmplitudePair(alpha, beta))
    assert abs(out.first + alpha) < 1e-14
    assert abs(out.second + beta) < 1e-14


def test_quasi_phase_branches_share_energy():
    rot = rotation_params(1.0, 0.45)
    pair = AmplitudePair(0.6 - 0.3j, 0.2 + 0.9j)
    up = quasi_phase_amplitudes(rot, 1j, pair)
    dn = quasi_phase_amplitudes(rot, -1j, pair)
    nup = abs(up.first) ** 2 + abs(up.second) ** 2
    ndn = abs(dn.first) ** 2 + abs(dn.second) ** 2
    assert nup == pytest.approx(ndn)


def test_quasi_phase_rejects_nonunit():
    rot = rotation_params(1.0, 1.0)
    with pytest.raises(NonUnitPhase):
        quasi_phase_amplitudes(rot, 0.5, AmplitudePair(1.0, 0.0))


def test_quasi_phase_rejects_quasi_pair():
    rot = rotation_params(1.0, 1.0)
    with pytest.raises(BasisMismatch, match="physical"):
        quasi_phase_amplitudes(rot, 1j, AmplitudePair(1.0, 0.0, "quasi"))


def test_decouple_params_single_coupling():
    out = decouple_params(1.2, 0.0, 30.0, 50.0)
    assert out.eta == pytest.approx(0.0)
    assert out.lambda_mode == pytest.approx(1.2**2 / 30.0)
    assert out.zeta_mode == pytest.approx(0.0)


def test_decouple_params_symmetric():
    g0, delta = 0.9, 40.0
    out = decouple_params(g0, g0, delta, delta)
    assert out.eta == pytest.approx(math.pi / 4)
    assert out.lambda_mode == pytest.approx(2 * g0 * g0 / delta)
    assert abs(out.zeta_mode) < 1e-14


def test_decouple_params_eigenvalues():
    g1, g2, d1, d2 = 1.0, 0.8, 25.0, 60.0
    out = decouple_params(g1, g2, d1, d2)
    cross = g1 * g2 * (d1 + d2) / (2 * d1 * d2)
    form = np.array([[g1 * g1 / d1, cross], [cross, g2 * g2 / d2]])
    eigs = sorted(np.linalg.eigvalsh(form))
    got = sorted([out.lambda_mode, out.zeta_mode])
    assert abs(got[0] - eigs[0]) < 1e-10
    assert abs(got[1] - eigs[1]) < 1e-10


def test_decouple_params_rejects_zero_detuning():
    with pytest.raises(ZeroDetuning):
        decouple_params(1.0, 1.0, 0.0, 50.0)
