"""End-to-end acceptance checks: each test exercises one published behavior
of the package at its stated tolerance."""

import json
import math
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies

from quasicat import (
    AmplitudePair,
    HermitianPropagator,
    SystemState,
    basis_state,
    cat_target,
    coherent_overlap,
    coherent_state,
    decouple_params,
    evolve_effective,
    evolve_exact_jc,
    half_revival_time,
    measure_atom,
    mode_rotation_unitary,
    adiabatic_residual,
    elimination_operator_residuals,
    partial_trace,
    product_state,
    protocol_time,
    purity,
    rotate_amplitudes,
    rotation_params,
    squeeze_composition,
    squeeze_identity_residual,
    suggested_dim,
)
from quasicat.cli import main
from quasicat.fock import coherent_dim
from quasicat.modes import total_photon_shell_indices

from oracles import SIGMA_PLUS, HamiltonianSpec, dense_hamiltonian


def _random_capped_state(rng, dim, basis):
    tensor = rng.normal(size=(dim, dim, 2)) + 1j * rng.normal(size=(dim, dim, 2))
    n1 = np.arange(dim)[:, None, None]
    n2 = np.arange(dim)[None, :, None]
    tensor[np.broadcast_to(n1 + n2 > dim - 2, tensor.shape)] = 0.0
    tensor /= np.linalg.norm(tensor)
    return SystemState(tensor, basis)


def test_basis_equivalence_random_states():
    # full-matrix oracle in the physical basis versus rotate, solve the
    # analytic blocks, rotate back; ten randomized draws over coupling and
    # detuning grids
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    dim, t = 12, 2.1
    coupling_grid = [(1.0, 1.0), (1.0, 0.5), (0.3, 1.0), (1.0, 0.0), (0.7, 1.3)]
    worst = 0.0
    for k in range(10):
        g1, g2 = coupling_grid[k % len(coupling_grid)]
        rot = rotation_params(g1, g2)
        delta = (0.0, 0.5 * rot.g, 5.0 * rot.g)[k % 3]
        state = _random_capped_state(rng, dim, "physical")
        ham = dense_hamiltonian(
            HamiltonianSpec.interaction(g1, g2, delta), dim, dim
        )
        direct = HermitianPropagator(ham).evolve(state, t)
        rotation = mode_rotation_unitary(rot, dim, dim)
        quasi_flat = rotation @ state.tensor.reshape(dim * dim, 2)
        quasi = SystemState(quasi_flat.reshape(dim, dim, 2), "quasi")
        evolved = evolve_exact_jc(quasi, t, rot.g, delta)
        back = rotation.conj().T @ evolved.tensor.reshape(dim * dim, 2)
        fid = abs(np.vdot(direct.tensor, back.reshape(dim, dim, 2))) ** 2
        worst = max(worst, 1.0 - fid)
    assert worst <= 1e-9
    assert time.perf_counter() - started < 30.0


def test_coherent_factorization_grid():
    # the mode mixer maps a coherent product to the coherent product of the
    # rotated amplitudes
    started = time.perf_counter()
    dim = 40
    coupling_grid = [
        (1.0, 0.0),
        (math.sqrt(3.0), 1.0),
        (1.0, 1.0),
        (1.0, math.sqrt(3.0)),
        (0.0, 1.0),
    ]
    amplitudes = [2.0, -1.2 + 0.8j, 1.5j]
    worst = 0.0
    for g1, g2 in coupling_grid:
        rot = rotation_params(g1, g2)
        rotation = mode_rotation_unitary(rot, dim, dim)
        for alpha in amplitudes:
            for beta in amplitudes:
                quasi = rotate_amplitudes(rot, AmplitudePair(alpha, beta))
                lhs = rotation @ np.kron(
                    coherent_state(alpha, dim).amps, coherent_state(beta, dim).amps
                )
                rhs = np.kron(
                    coherent_state(quasi.first, dim).amps,
                    coherent_state(quasi.second, dim).amps,
                )
                worst = max(worst, 1.0 - abs(np.vdot(rhs, lhs)) ** 2)
    assert worst <= 1e-8
    assert time.perf_counter() - started < 30.0


def test_squeeze_composition_identity():
    worst = 0.0
    for g1, g2 in ((1.0, 0.0), (math.sqrt(3.0), 1.0), (1.0, 1.0)):
        rot = rotation_params(g1, g2)
        for z in (0.5, 0.3 + 0.4j, -0.5):
            worst = max(
                worst, squeeze_identity_residual(rot, z, z, dim=60, input_cap=10)
            )
    balanced = rotation_params(1.0, 1.0)
    worst = max(
        worst, squeeze_identity_residual(balanced, 0.4, -0.2, dim=60, input_cap=10)
    )
    assert worst < 1e-6
    p, q = squeeze_composition(balanced, 0.31 + 0.2j, 0.31 + 0.2j)
    assert p == 0.0
    assert q == 0.31 + 0.2j


def _evolved_at_half_revival(nbar, dim, atom_amps):
    g = math.sqrt(2.0)  # equal couplings g1 = g2 = 1
    mu = -1j * math.sqrt(nbar)
    state = product_state(
        coherent_state(mu, dim), basis_state(0, 1), atom_amps, "quasi"
    )
    return evolve_exact_jc(state, protocol_time(nbar, g), g, 0.0), mu


def _best_cat_fidelity(state, mu, dim):
    best = 0.0
    for convention in (1, -1):
        cat = cat_target(mu, convention, dim).amps
        proj = np.einsum("i,ijs->js", np.conj(cat), state.tensor)
        best = max(best, float(np.sum(np.abs(proj) ** 2)))
    return best


def test_resonant_cat_generation():
    # thresholds frozen from the first oracle run of this pipeline
    started = time.perf_counter()
    cases = ((10.0, 40, 0.93, 0.68), (25.0, 64, 0.978, 0.69), (50.0, 108, 0.989, 0.695))
    purities = []
    fidelities = []
    for nbar, dim, purity_floor, fidelity_floor in cases:
        out, mu = _evolved_at_half_revival(nbar, dim, (1.0, 0.0))
        pur = purity(partial_trace(out, "atom"))
        fid = _best_cat_fidelity(out, mu, dim)
        assert pur >= purity_floor
        assert fid >= fidelity_floor
        purities.append(pur)
        fidelities.append(fid)
    assert purities[0] < purities[1] < purities[2]
    assert fidelities[0] < fidelities[1] < fidelities[2]

    rng = np.random.default_rng(42)
    for _ in range(5):
        atom = rng.normal(size=2) + 1j * rng.normal(size=2)
        atom /= np.linalg.norm(atom)
        out, _ = _evolved_at_half_revival(25.0, 64, atom)
        assert purity(partial_trace(out, "atom")) >= 0.978
    assert time.perf_counter() - started < 300.0


@settings(max_examples=20, deadline=None)
@given(nbar=strategies.floats(10.0, 400.0))
def test_cat_fidelity_is_smooth_in_nbar(nbar):
    # the target's branch phases follow nbar continuously, so the fidelity at
    # the protocol time does not jump with the fractional part of nbar
    fidelities = []
    for step in (0.0, 0.25, 0.5, 0.75):
        dim = coherent_dim(math.sqrt(nbar + step))
        out, mu = _evolved_at_half_revival(nbar + step, dim, (1.0, 0.0))
        fidelities.append(_best_cat_fidelity(out, mu, dim))
    assert max(fidelities) - min(fidelities) < 0.01


def test_revival_peak_location():
    nbar, g, dim = 25.0, 1.0, 64
    t_revival = half_revival_time(nbar, g)
    state = product_state(
        coherent_state(-1j * math.sqrt(nbar), dim),
        basis_state(0, 1),
        (1.0, 0.0),
        "quasi",
    )
    times = np.linspace(0.5 * t_revival, 1.5 * t_revival, 601)
    dt = times[1] - times[0]
    current = evolve_exact_jc(state, times[0], g, 0.0)
    peak_t, peak_w = times[0], -1.0
    for t in times:
        tensor = current.tensor
        w = abs(
            float(
                np.sum(np.abs(tensor[:, :, 1]) ** 2)
                - np.sum(np.abs(tensor[:, :, 0]) ** 2)
            )
        )
        if w > peak_w:
            peak_w, peak_t = w, t
        current = evolve_exact_jc(current, dt, g, 0.0)
    assert abs(peak_t - t_revival) <= 0.05 * t_revival


def test_dispersive_protocol():
    g, mu = 1.0, 2.0
    dim = suggested_dim(mu) + 12
    amp = 1.0 / math.sqrt(2.0)
    state = product_state(
        coherent_state(mu, dim), basis_state(0, 2), (amp, amp), "quasi"
    )
    fidelities = {}
    for ratio in (50.0, 100.0):
        delta = ratio * g
        t_prime = math.pi * delta / (2.0 * g * g)
        ham = dense_hamiltonian(HamiltonianSpec.quasi_jc(g, delta), dim, 2)
        oracle = HermitianPropagator(ham).evolve(state, t_prime)
        effective = evolve_effective(state, t_prime, g, delta)
        fidelities[ratio] = abs(np.vdot(oracle.tensor, effective.tensor)) ** 2
        if ratio == 50.0:
            plus, minus = measure_atom(effective, "plusminus")
            assert abs(plus.probability - 0.5) <= 0.02
            assert abs(minus.probability - 0.5) <= 0.02
            overlap = abs(
                np.vdot(plus.post_state.tensor, minus.post_state.tensor)
            )
            branch_overlap = abs(coherent_overlap(1j * mu, -1j * mu))
            assert overlap <= branch_overlap + 1e-6
    assert fidelities[50.0] >= 0.99
    assert fidelities[100.0] > fidelities[50.0]


def test_elimination_residual_scaling():
    g, n_max = 1.0, 10
    residuals = {
        delta: adiabatic_residual(g, delta, n_max) for delta in (50.0, 100.0, 200.0)
    }
    assert residuals[50.0] / residuals[100.0] == pytest.approx(4.0, rel=0.25)
    assert residuals[100.0] / residuals[200.0] == pytest.approx(4.0, rel=0.25)
    ops_50 = elimination_operator_residuals(g, 50.0, n_max)
    ops_100 = elimination_operator_residuals(g, 100.0, n_max)
    # first-order transforms leave quadratic remainders; the inversion
    # transform is second order and its remainder shrinks cubically
    assert 3.0 <= ops_50["mode"] / ops_100["mode"] <= 5.0
    assert 3.0 <= ops_50["lowering"] / ops_100["lowering"] <= 5.0
    assert 6.0 <= ops_50["inversion"] / ops_100["inversion"] <= 10.0


def test_false_hamiltonian_comparison():
    from quasicat import ladder_matrix
    from quasicat.dynamics import SIGMA_Z

    g1, g2, d1, d2, dim = 1.0, 0.8, 40.0, 55.0, 8
    h_false = dense_hamiltonian(HamiltonianSpec.effective_false(g1, g2, d1, d2), dim, dim)
    h_correct = dense_hamiltonian(
        HamiltonianSpec.effective_correct(g1, g2, d1, d2), dim, dim
    )
    a = ladder_matrix(dim)
    hop = np.kron(np.kron(a.conj().T, a), np.eye(2))
    sz = np.kron(np.eye(dim * dim), SIGMA_Z)
    up = np.kron(np.eye(dim * dim), SIGMA_PLUS @ SIGMA_PLUS.conj().T)
    cross = 0.5 * g1 * g2 * (1.0 / d1 + 1.0 / d2)
    shift = g1 * g1 / d1 + g2 * g2 / d2
    expected = cross * ((hop + hop.conj().T) @ sz) + shift * up
    assert np.abs((h_correct - h_false) - expected).max() < 1e-12

    # equal couplings: the cross term beam-splits the modes and the two
    # evolutions separate well below fidelity 0.99 by gt = 6
    g, delta, dim_e, gt = 1.0, 40.0, 20, 6.0
    state = product_state(
        coherent_state(1.2, dim_e), basis_state(0, dim_e), (1.0, 0.0), "quasi"
    )
    hf = dense_hamiltonian(HamiltonianSpec.effective_false(g, g, delta, delta), dim_e, dim_e)
    hc = dense_hamiltonian(
        HamiltonianSpec.effective_correct(g, g, delta, delta), dim_e, dim_e
    )
    diverged_f = HermitianPropagator(hf).evolve(state, gt)
    diverged_c = HermitianPropagator(hc).evolve(state, gt)
    assert abs(np.vdot(diverged_f.tensor, diverged_c.tensor)) ** 2 < 0.99

    # one dead coupling with the atom in the lower level: both forms act
    # identically on that sector
    hf0 = dense_hamiltonian(HamiltonianSpec.effective_false(g, 0.0, delta, delta), dim_e, dim_e)
    hc0 = dense_hamiltonian(
        HamiltonianSpec.effective_correct(g, 0.0, delta, delta), dim_e, dim_e
    )
    same_f = HermitianPropagator(hf0).evolve(state, gt)
    same_c = HermitianPropagator(hc0).evolve(state, gt)
    assert 1.0 - abs(np.vdot(same_f.tensor, same_c.tensor)) ** 2 < 1e-12

    # the eta rotation renders the correct form block-diagonal
    params = decouple_params(g1, g2, d1, d2)
    rot = rotation_params(math.cos(params.eta), math.sin(params.eta))
    r = np.kron(mode_rotation_unitary(rot, dim, dim), np.eye(2))
    h_diag = dense_hamiltonian(HamiltonianSpec.decoupled(g1, g2, d1, d2), dim, dim)
    shell = total_photon_shell_indices(dim)
    cols = np.concatenate([2 * shell, 2 * shell + 1])
    off = (r @ h_correct @ r.conj().T - h_diag)[:, cols]
    assert np.linalg.norm(off, 2) < 1e-9


def _summary_without_wall_clock(out_dir):
    with open(os.path.join(out_dir, "summary.json"), "rb") as handle:
        raw = handle.read()
    return b"\n".join(
        line for line in raw.splitlines() if b"wall_clock_s" not in line
    )


@pytest.mark.parametrize(
    "args",
    [
        ["validate", "--trials", "3", "--seed", "99"],
        ["zero-detuning", "--nbar", "4", "--t-steps", "8", "--seed", "7"],
        ["adiabatic-sweep", "--ratios", "25,50", "--seed", "5"],
    ],
)
def test_rerun_determinism(tmp_path, args):
    out = str(tmp_path / "run")
    full = args + ["--out", out]
    assert main(full) == 0
    first = _summary_without_wall_clock(out)
    with open(os.path.join(out, "timeseries.csv"), "rb") as handle:
        first_rows = handle.read()
    assert main(full) == 0
    assert _summary_without_wall_clock(out) == first
    with open(os.path.join(out, "timeseries.csv"), "rb") as handle:
        assert handle.read() == first_rows
    with open(os.path.join(out, "summary.json")) as handle:
        payload = json.load(handle)
    assert payload["seed"] == payload["config"]["seed"]
