"""Command-line front end: scenario orchestration and report emission.

Subcommands: validate, zero-detuning, large-detuning, adiabatic-sweep, qfunc.
Configuration comes from a flat key=value file (--config) overridden by CLI
flags; units follow the g = 1 convention unless explicit frequencies are
given, so times are in units of 1/g. Every scenario writes
<out>/timeseries.csv and <out>/summary.json; qfunc adds <out>/qgrid.csv.
Exit codes: 0 success, 2 config error, 3 numeric/validity error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import __version__
from .analysis import (
    DensityMatrix,
    PhaseSpaceGrid,
    atom_purity,
    atomic_inversion,
    husimi_q,
    mode_mean_photon,
    mode_overlaps,
)
from .dynamics import (
    HermitianPropagator,
    SystemState,
    _effective_propagate,
    _jc_propagate,
    build_hamiltonian,
    cat_target,
    adiabatic_residual,
    coupling_square,
    dispersive_norm,
    elimination_operator_residuals,
    evolve_effective,
    evolve_exact_jc,
    excitation_diagonal,
    excitation_sectors,
    half_revival_time,
    measure_atom,
    norm_deviation,
    product_state,
    protocol_time,
)
from .errors import (
    ConfigInvalid,
    DimTooSmall,
    NonFiniteInput,
    NormViolation,
    QuasicatError,
)
from .fock import LEAK_TOL, basis_state, coherent_dim, coherent_nbar, coherent_state
from .modes import (
    AmplitudePair,
    decouple_params,
    mode_rotation_unitary,
    quasi_phase_amplitudes,
    rotate_amplitudes,
    rotation_params,
    squeeze_composition,
    squeeze_identity_residual,
    total_photon_shell_indices,
)

SCHEMA_VERSION = 1

# validate passes when every check residual is below this
VALIDATE_TOL = 1e-6

INV_SQRT2 = 1.0 / math.sqrt(2.0)

# zero- and large-detuning propagate their time axis in chunks of this many
# (time, level) amplitude pairs, so memory stays bounded at any dim
CHUNK_PAIRS = 2048

COMMON_DEFAULTS = {
    "out": "quasicat-out",
    "seed": 12345,
    "dim": None,
}

SCENARIO_DEFAULTS = {
    "validate": {
        "trials": 3,
        "g1": 1.0,
        "g2": 0.7,
        "delta": 0.5,
        "t": 2.3,
        "dim": 12,
        "leak_tol": LEAK_TOL,
    },
    "zero-detuning": {
        "nbar": 25.0,
        "g1": 1.0,
        "g2": 1.0,
        "alpha_re": None,
        "alpha_im": None,
        "beta_re": None,
        "beta_im": None,
        "gamma_re": 1.0,
        "gamma_im": 0.0,
        "delta_amp_re": 0.0,
        "delta_amp_im": 0.0,
        "t_max": None,
        "t_steps": 240,
        "convention": 0,
        "leak_tol": LEAK_TOL,
    },
    "large-detuning": {
        "nbar": 4.0,
        "g": 1.0,
        "ratio": 50.0,
        "gamma_re": INV_SQRT2,
        "gamma_im": 0.0,
        "delta_amp_re": INV_SQRT2,
        "delta_amp_im": 0.0,
        "t_steps": 120,
        "basis": "plusminus",
        "leak_tol": LEAK_TOL,
    },
    "adiabatic-sweep": {
        "g": 1.0,
        "ratios": "20,40,80,160",
        "n_max": 10,
        "dim": 40,
    },
    "qfunc": {
        "nbar": 9.0,
        "mu_re": None,
        "mu_im": None,
        "convention": 1,
        "grid_points": 101,
        "leak_tol": LEAK_TOL,
    },
}

_INT_KEYS = {
    "seed",
    "dim",
    "t_steps",
    "n_max",
    "grid_points",
    "trials",
    "convention",
}
_STR_KEYS = {"out", "basis", "ratios"}

# (scenario, key) -> allowed values; checked after conversion, so a config
# file and a flag are held to the same choices
_CHOICES = {
    ("zero-detuning", "convention"): (-1, 0, 1),
    ("qfunc", "convention"): (-1, 1),
    ("large-detuning", "basis"): ("plusminus", "energy"),
}

# smallest allowed value of each integer key
_MINIMUMS = {
    "seed": 0,
    "trials": 1,
    "t_steps": 2,
    "grid_points": 2,
    "n_max": 0,
    "dim": 1,
}


@dataclass
class ScenarioConfig:
    """Fully resolved scenario parameters (defaults < file < flags)."""

    scenario: str
    values: dict

    def __getitem__(self, key):
        return self.values[key]


@dataclass
class RunReport:
    """A scenario's results; main adds the resolved config, seed and time."""

    scenario: str
    summary: dict
    timeseries_header: str
    timeseries_rows: np.ndarray  # 2-D, one column per header field
    qgrid: Optional[PhaseSpaceGrid] = None
    config: dict = field(default_factory=dict)
    seed: int = 0
    wall_clock_s: float = 0.0


def _convert(key: str, raw: str):
    if key in _STR_KEYS:
        return raw
    try:
        if key in _INT_KEYS:
            return int(raw)
        return float(raw)
    except ValueError as exc:
        raise ConfigInvalid(f"cannot parse {key}={raw!r}: {exc}") from None


def _check(scenario: str, values: dict):
    """Range checks on converted values; unset (None) keys are skipped."""
    for key, value in values.items():
        if value is None:
            continue
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigInvalid(f"{key} must be finite, got {value}")
        allowed = _CHOICES.get((scenario, key))
        if allowed is not None and value not in allowed:
            choices = ", ".join(str(a) for a in allowed)
            raise ConfigInvalid(f"{key} must be one of {choices}, got {value!r}")
        if key in _MINIMUMS and value < _MINIMUMS[key]:
            raise ConfigInvalid(f"{key} must be >= {_MINIMUMS[key]}, got {value}")
    if not values["out"]:
        raise ConfigInvalid("out must name a directory")
    if "leak_tol" in values and not 0.0 < values["leak_tol"] < 1.0:
        raise ConfigInvalid(f"leak_tol must lie in (0, 1), got {values['leak_tol']}")
    for key in ("g", "nbar"):
        if key in values and values[key] <= 0:
            raise ConfigInvalid(f"{key} must be positive, got {values[key]}")
    if "ratios" in values:
        _parse_ratios(values["ratios"])


def parse_config_file(path: str) -> dict:
    """Flat key=value lines; blank lines and # comments ignored."""
    if not os.path.exists(path):
        raise ConfigInvalid(f"config file not found: {path}")
    out = {}
    with open(path) as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigInvalid(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def resolve_config(scenario: str, namespace: argparse.Namespace) -> ScenarioConfig:
    """defaults < file < flags; file and flag values are raw strings that go
    through the same conversion and checks."""
    defaults = dict(COMMON_DEFAULTS)
    defaults.update(SCENARIO_DEFAULTS[scenario])
    values = dict(defaults)
    config_path = getattr(namespace, "config", None)
    if config_path:
        for key, raw in parse_config_file(config_path).items():
            if key not in defaults:
                raise ConfigInvalid(f"unknown config key {key!r} for {scenario}")
            values[key] = _convert(key, raw)
    for key in defaults:
        flag_value = getattr(namespace, key, None)
        if flag_value is not None:
            values[key] = _convert(key, flag_value)
    _check(scenario, values)
    return ScenarioConfig(scenario, values)


def _atom_amps(cfg) -> np.ndarray:
    atom = np.array(
        [
            cfg["gamma_re"] + 1j * cfg["gamma_im"],
            cfg["delta_amp_re"] + 1j * cfg["delta_amp_im"],
        ],
        dtype=np.complex128,
    )
    # hypot scales its arguments, so a huge amplitude fails the check below
    # without an overflow warning or an OverflowError
    keys = ("gamma_re", "gamma_im", "delta_amp_re", "delta_amp_im")
    if abs(math.hypot(*(cfg[key] for key in keys)) - 1.0) > 1e-8:
        raise NormViolation("|gamma|^2 + |delta_amp|^2 must be 1")
    return atom


def _time_chunks(times: np.ndarray, dim: int):
    """Consecutive slices of times, each of at most CHUNK_PAIRS // dim times."""
    step = max(1, CHUNK_PAIRS // dim)
    return [times[k : k + step] for k in range(0, times.size, step)]


def _sector_blocks(hamiltonian, sectors):
    """Dense block of each excitation sector from (rows, cols, values)
    triplets, duplicates summed, and the triplets whose ends lie in
    different sectors."""
    rows, cols, values = hamiltonian
    sector = np.empty(sum(idx.size for idx in sectors), dtype=np.intp)
    local = np.empty_like(sector)
    for k, idx in enumerate(sectors):
        sector[idx] = k
        local[idx] = np.arange(idx.size)
    row_sector = sector[rows]
    inside = row_sector == sector[cols]
    blocks = []
    for k, idx in enumerate(sectors):
        pick = inside & (row_sector == k)
        block = np.zeros((idx.size, idx.size), dtype=np.complex128)
        np.add.at(block, (local[rows[pick]], local[cols[pick]]), values[pick])
        blocks.append(block)
    return blocks, (rows[~inside], cols[~inside], values[~inside])


def run_validate(cfg: ScenarioConfig) -> RunReport:
    rng = np.random.default_rng(cfg["seed"])
    dim = cfg["dim"]
    checks = {}

    rot = rotation_params(cfg["g1"], cfg["g2"])
    # amplitude round trip and norm preservation
    worst_round = 0.0
    worst_norm = 0.0
    for _ in range(cfg["trials"]):
        pair = AmplitudePair(
            complex(rng.normal(), rng.normal()) * 0.5,
            complex(rng.normal(), rng.normal()) * 0.5,
        )
        quasi = rotate_amplitudes(rot, pair)
        back = rotate_amplitudes(rot, quasi)
        worst_round = max(
            worst_round,
            abs(back.first - pair.first) + abs(back.second - pair.second),
        )
        worst_norm = max(
            worst_norm,
            abs(
                abs(quasi.first) ** 2
                + abs(quasi.second) ** 2
                - abs(pair.first) ** 2
                - abs(pair.second) ** 2
            ),
        )
    checks["amplitude_round_trip"] = worst_round
    checks["amplitude_norm_preserved"] = worst_norm

    # operator realization against the amplitude map; radii bounded so the
    # truncation tail stays far below leak_tol at this dim
    rotation = mode_rotation_unitary(rot, dim, dim)
    worst_fid = 0.0
    for _ in range(cfg["trials"]):
        alpha = rng.uniform(0.2, 0.6) * np.exp(2j * np.pi * rng.uniform())
        beta = rng.uniform(0.2, 0.6) * np.exp(2j * np.pi * rng.uniform())
        quasi = rotate_amplitudes(rot, AmplitudePair(alpha, beta))
        prod = np.kron(
            coherent_state(alpha, dim, cfg["leak_tol"]).amps,
            coherent_state(beta, dim, cfg["leak_tol"]).amps,
        )
        target = np.kron(
            coherent_state(quasi.first, dim, cfg["leak_tol"]).amps,
            coherent_state(quasi.second, dim, cfg["leak_tol"]).amps,
        )
        worst_fid = max(worst_fid, 1.0 - abs(np.vdot(target, rotation @ prod)) ** 2)
    checks["rotation_operator_vs_amplitudes"] = worst_fid

    # the rotated coupling concentrates on quasi mode I; the rotation is only
    # exact on complete total-photon shells, so compare on trusted columns.
    # Both Hamiltonians and the rotation keep each excitation sector, so the
    # conjugation and the oracle act per sector, and a 2-norm over sectors is
    # the largest sector norm; excitation_commutator shows nothing is dropped.
    # The Hamiltonians come as coupling triplets, added straight into the
    # sector blocks: no (2 dim^2)^2 matrix is formed
    sectors = excitation_sectors(dim, dim)
    int_blocks, crossing = _sector_blocks(
        build_hamiltonian(cfg["g1"], cfg["g2"], cfg["delta"], dim), sectors
    )
    quasi_blocks, _ = _sector_blocks(
        build_hamiltonian(rot.g, 0.0, cfg["delta"], dim), sectors
    )
    shell = total_photon_shell_indices(dim)
    trusted = np.zeros(2 * dim * dim, dtype=bool)
    trusted[np.concatenate([2 * shell, 2 * shell + 1])] = True
    worst_diff = scale = 0.0
    propagators = []
    for idx, block, quasi_block in zip(sectors, int_blocks, quasi_blocks):
        # the sector block of kron(rotation, I_2): the two atom levels of a
        # sector sit on neighbouring total-photon shells, which R never mixes
        modes = idx // 2
        rotation_block = rotation[np.ix_(modes, modes)]
        conjugated = rotation_block @ block @ rotation_block.conj().T
        keep = trusted[idx]
        if keep.any():
            quasi_cols = quasi_block[:, keep]
            diff = np.linalg.norm(conjugated[:, keep] - quasi_cols, 2)
            worst_diff = max(worst_diff, diff)
            scale = max(scale, np.linalg.norm(quasi_cols, 2))
        propagators.append((idx, HermitianPropagator(block)))
    checks["quasi_jc_rotation"] = float(worst_diff / scale)

    # the excitation number is diagonal, so [H, N]_ij = H_ij (n_j - n_i), and
    # only entries across sectors survive; it is taken on their rows and columns
    number = excitation_diagonal(dim, dim)
    rows, cols, values = crossing
    live_rows, row_at = np.unique(rows, return_inverse=True)
    live_cols, col_at = np.unique(cols, return_inverse=True)
    commutator = np.zeros((live_rows.size, live_cols.size), dtype=np.complex128)
    np.add.at(commutator, (row_at, col_at), values)
    commutator *= number[live_cols][None, :] - number[live_rows][:, None]
    checks["excitation_commutator"] = (
        float(np.linalg.norm(commutator, 2)) if rows.size else 0.0
    )

    # random-state basis equivalence: oracle in the physical basis, one
    # eigendecomposition per excitation sector, versus rotate, analytic
    # blocks, rotate back
    cap = dim - 2
    worst_equiv = 0.0
    for _ in range(cfg["trials"]):
        tensor = rng.normal(size=(dim, dim, 2)) + 1j * rng.normal(size=(dim, dim, 2))
        n1 = np.arange(dim)[:, None, None]
        n2 = np.arange(dim)[None, :, None]
        tensor[(n1 + n2 > cap).repeat(2, axis=2)] = 0.0
        tensor /= np.linalg.norm(tensor)
        state = SystemState(tensor, "physical")
        flat = state.flat()
        direct_flat = np.empty_like(flat)
        for idx, propagator in propagators:
            direct_flat[idx] = propagator.evolve_flat(flat[idx], cfg["t"])
        direct = SystemState(direct_flat.reshape(state.dims), "physical")
        quasi_flat = rotation @ state.tensor.reshape(dim * dim, 2)
        quasi_state = SystemState(quasi_flat.reshape(dim, dim, 2), "quasi")
        evolved = evolve_exact_jc(quasi_state, cfg["t"], rot.g, cfg["delta"])
        back_flat = rotation.conj().T @ evolved.tensor.reshape(dim * dim, 2)
        back = back_flat.reshape(dim, dim, 2)
        worst_equiv = max(
            worst_equiv,
            1.0 - abs(np.vdot(direct.tensor, back)) ** 2,
        )
    checks["basis_equivalence_evolution"] = worst_equiv

    # squeeze composition scalars and the operator identity on a small space
    p, q = squeeze_composition(rot, 0.3 + 0.1j, 0.3 + 0.1j)
    checks["squeeze_equal_params"] = abs(p) + abs(q - (0.3 + 0.1j))
    checks["squeeze_operator_identity"] = squeeze_identity_residual(
        rotation_params(1.0, 1.0), 0.25, 0.25, dim=24, input_cap=6
    )

    # phasing quasi mode I splits into two branches of equal total energy
    seed_pair = AmplitudePair(0.5 + 0.1j, -0.3 + 0.2j)
    branch_up = quasi_phase_amplitudes(rot, 1j, seed_pair)
    branch_dn = quasi_phase_amplitudes(rot, -1j, seed_pair)
    checks["phase_branch_energy"] = abs(
        abs(branch_up.first) ** 2
        + abs(branch_up.second) ** 2
        - abs(branch_dn.first) ** 2
        - abs(branch_dn.second) ** 2
    )

    # decoupling eigenvalues against the quadratic-form matrix, relative to
    # the largest |eigenvalue|: decouple_params is accurate to relative
    # roundoff, and the shifts g^2/delta take any magnitude
    d1, d2 = cfg["delta"], 1.6 * cfg["delta"]
    params = decouple_params(cfg["g1"], cfg["g2"], d1, d2)
    cross = 0.5 * cfg["g1"] * cfg["g2"] * (1.0 / d1 + 1.0 / d2)
    form = np.array(
        [
            [cfg["g1"] ** 2 / d1, cross],
            [cross, cfg["g2"] ** 2 / d2],
        ]
    )
    eigs = np.linalg.eigvalsh(form)
    checks["decouple_eigenvalues"] = float(
        min(
            abs(params.lambda_mode - eigs[0]) + abs(params.zeta_mode - eigs[1]),
            abs(params.lambda_mode - eigs[1]) + abs(params.zeta_mode - eigs[0]),
        )
        / np.abs(eigs).max()
    )

    summary = {
        "checks": checks,
        "max_residual": max(checks.values()),
        "all_passed": all(value < VALIDATE_TOL for value in checks.values()),
        "dim": dim,
    }
    rows = np.column_stack((np.arange(len(checks)), list(checks.values())))
    return RunReport(
        "validate",
        summary,
        "check_index,residual",
        rows,
    )


def run_zero_detuning(cfg: ScenarioConfig) -> RunReport:
    rot = rotation_params(cfg["g1"], cfg["g2"])
    amplitude_keys = ("alpha_re", "alpha_im", "beta_re", "beta_im")
    if any(cfg[key] is not None for key in amplitude_keys):
        alpha = complex(cfg["alpha_re"] or 0.0, cfg["alpha_im"] or 0.0)
        beta = complex(cfg["beta_re"] or 0.0, cfg["beta_im"] or 0.0)
        quasi_pair = rotate_amplitudes(rot, AmplitudePair(alpha, beta))
        mu, nu = quasi_pair.first, quasi_pair.second
        nbar = coherent_nbar(mu)
    else:
        nbar = cfg["nbar"]
        mu = -1j * math.sqrt(nbar)
        nu = 0.0
        physical = rotate_amplitudes(rot, AmplitudePair(mu, nu, "quasi"))
        alpha, beta = physical.first, physical.second
    if nbar <= 0:
        raise ConfigInvalid("need a positive mean photon number")

    atom = _atom_amps(cfg)
    dim1 = cfg["dim"] or coherent_dim(mu, cfg["leak_tol"])
    # quasi mode II never couples: |nu> stays analytic, in a size-1 slot
    state = product_state(
        coherent_state(mu, dim1, cfg["leak_tol"]), basis_state(0, 1), atom, "quasi"
    )

    revival = half_revival_time(nbar, rot.g)
    t_star = protocol_time(nbar, rot.g)
    t_max = cfg["t_max"] if cfg["t_max"] is not None else revival
    times = np.linspace(0.0, t_max, cfg["t_steps"])

    conventions = (1, -1) if cfg["convention"] == 0 else (cfg["convention"],)
    cats = np.array(
        [cat_target(mu, conv, dim1, cfg["leak_tol"]).amps for conv in conventions]
    )

    # every time is propagated directly from t = 0; a norm off 1 is refused,
    # not renormalized, and the largest deviation is reported
    blocks = []
    worst_norm = 0.0
    for chunk in _time_chunks(times, dim1):
        stack = _jc_propagate(state.tensor, rot.g, 0.0, chunk)
        worst_norm = max(worst_norm, norm_deviation(stack))
        inversion, purity = atomic_inversion(stack), atom_purity(stack)
        fid = mode_overlaps(stack, cats).max(axis=-1)
        blocks.append(
            np.column_stack((chunk, inversion, purity, fid, mode_mean_photon(stack)))
        )

    star_state = evolve_exact_jc(state, t_star, rot.g, 0.0)
    fid_by_conv = dict(zip(conventions, mode_overlaps(star_state, cats).tolist()))
    best_conv = max(fid_by_conv, key=fid_by_conv.get)
    summary = {
        "nbar": nbar,
        "g_total": rot.g,
        "theta": rot.theta,
        "alpha": [alpha.real, alpha.imag],
        "beta": [beta.real, beta.imag],
        "mu": [complex(mu).real, complex(mu).imag],
        "nu": [complex(nu).real, complex(nu).imag],
        "dim1": dim1,
        "dim2": star_state.tensor.shape[1],
        "revival_time": revival,
        "protocol_time": t_star,
        "atomic_purity_at_protocol": atom_purity(star_state),
        "cat_fidelity_at_protocol": fid_by_conv[best_conv],
        "cat_convention_best": best_conv,
        "branch_overlap": math.exp(-2.0 * nbar),
        "norm_deviation_max": worst_norm,
    }
    return RunReport(
        "zero-detuning",
        summary,
        "t,atomic_inversion,atomic_purity,cat_fidelity,mean_photon_mode_i",
        np.concatenate(blocks),
    )


def _post_state_overlap(plus, minus) -> float:
    """|<plus|minus>| of the two post-measurement fields; 0 if either is None."""
    if plus.post_state is None or minus.post_state is None:
        return 0.0
    return float(abs(np.vdot(plus.post_state.tensor, minus.post_state.tensor)))


def run_large_detuning(cfg: ScenarioConfig) -> RunReport:
    g = cfg["g"]
    g_sq = coupling_square(g)
    delta = cfg["ratio"] * g
    t_prime = math.pi * delta / (2.0 * g_sq)
    if not math.isfinite(delta * t_prime):
        raise NonFiniteInput(
            f"phase argument delta*t' is not finite for ratio = {cfg['ratio']}"
        )
    nbar = cfg["nbar"]
    mu = math.sqrt(nbar)
    atom = _atom_amps(cfg)
    dim1 = cfg["dim"] or coherent_dim(mu, cfg["leak_tol"])

    init = product_state(
        coherent_state(mu, dim1, cfg["leak_tol"]), basis_state(0, 1), atom, "quasi"
    )

    # the states at t' are measured; evolve_effective also refuses (or warns
    # about) the ratio. The oracle is the exact block solution of the quasiJC
    # Hamiltonian; each track is propagated directly from t = 0
    effective_state = evolve_effective(init, t_prime, g, delta)
    oracle_state = evolve_exact_jc(init, t_prime, g, delta)
    times = np.linspace(0.0, t_prime, cfg["t_steps"])
    blocks = []
    worst_norm = 0.0
    for chunk in _time_chunks(times, dim1):
        oracle = _jc_propagate(init.tensor, g, delta, chunk)
        effective = _effective_propagate(init.tensor, g, delta, chunk)
        worst_norm = max(worst_norm, norm_deviation(oracle), norm_deviation(effective))
        overlap = np.sum(np.conj(oracle) * effective, axis=(-3, -2, -1))
        blocks.append(
            np.column_stack((chunk, np.abs(overlap) ** 2, atomic_inversion(oracle)))
        )
    rows = np.concatenate(blocks)

    # branch analysis on the dispersive prediction: the protocol's two
    # entangled-coherent outputs live there; the oracle enters through the
    # fidelity track and the diagnostic overlap below
    plus, minus = measure_atom(effective_state, cfg["basis"])
    oracle_plus, oracle_minus = measure_atom(oracle_state, cfg["basis"])
    summary = {
        "ratio": cfg["ratio"],
        "delta": delta,
        "nbar": nbar,
        "mu": mu,
        "dim1": dim1,
        "t_prime": t_prime,
        "prob_plus": plus.probability,
        "prob_minus": minus.probability,
        "prob_sum": plus.probability + minus.probability,
        "post_state_overlap": _post_state_overlap(plus, minus),
        "oracle_post_state_overlap": _post_state_overlap(oracle_plus, oracle_minus),
        "oracle_prob_plus": oracle_plus.probability,
        "oracle_prob_minus": oracle_minus.probability,
        "branch_overlap": math.exp(-2.0 * nbar),
        "effective_fidelity_at_t_prime": rows[-1, 1],
        "measurement_basis": cfg["basis"],
        "norm_deviation_max": worst_norm,
    }
    return RunReport(
        "large-detuning",
        summary,
        "t,effective_vs_oracle_fidelity,atomic_inversion",
        rows,
    )


def _parse_ratios(raw: str):
    try:
        ratios = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigInvalid(f"bad ratios list {raw!r}: {exc}") from None
    if not ratios:
        raise ConfigInvalid("ratios list is empty")
    if not all(math.isfinite(ratio) for ratio in ratios):
        raise ConfigInvalid(f"ratios must be finite, got {raw!r}")
    return ratios


def run_adiabatic_sweep(cfg: ScenarioConfig) -> RunReport:
    g = cfg["g"]
    ratios = _parse_ratios(cfg["ratios"])
    n_max = cfg["n_max"]
    dim = cfg["dim"]
    # the sector residuals never read dim; the key only guards
    if n_max + 8 > dim:
        raise DimTooSmall("need dim >= n_max + 8 so the projector stays interior")
    rows = []
    residuals = []
    for ratio in ratios:
        delta = ratio * g
        residual = adiabatic_residual(g, delta, n_max)
        ops = elimination_operator_residuals(g, delta, n_max)
        residuals.append(residual)
        rows.append(
            (
                ratio,
                residual,
                residual / dispersive_norm(g, delta, n_max),
                ops["mode"],
                ops["lowering"],
                ops["inversion"],
            )
        )
    factors = [
        residuals[i] / residuals[i + 1] if residuals[i + 1] > 0 else float("inf")
        for i in range(len(residuals) - 1)
    ]
    summary = {
        "g": g,
        "ratios": ratios,
        "n_max": n_max,
        "dim": dim,
        "residuals": residuals,
        "shrink_factors": factors,
    }
    return RunReport(
        "adiabatic-sweep",
        summary,
        "delta_over_g,residual,residual_relative,"
        "mode_residual,lowering_residual,inversion_residual",
        np.array(rows),
    )


def _grid_peaks(grid: PhaseSpaceGrid, top: int = 2, min_separation: float = 0.5):
    """The top interior local maxima of Q (each at least its four neighbours
    and 1e-4), at least min_separation apart, largest first."""
    values = grid.values
    inner = values[1:-1, 1:-1]
    peak = (
        (inner >= 1e-4)
        & (inner >= values[:-2, 1:-1])
        & (inner >= values[2:, 1:-1])
        & (inner >= values[1:-1, :-2])
        & (inner >= values[1:-1, 2:])
    )
    i, j = np.nonzero(peak)
    at_re, at_im = grid.re_axis[j + 1].tolist(), grid.im_axis[i + 1].tolist()
    found = sorted(zip(inner[i, j].tolist(), at_re, at_im), reverse=True)
    picked = []
    for v, re, im in found:
        if all(
            math.hypot(re - p["re"], im - p["im"]) > min_separation for p in picked
        ):
            picked.append({"q": v, "re": re, "im": im})
        if len(picked) == top:
            break
    return picked


def run_qfunc(cfg: ScenarioConfig) -> RunReport:
    if cfg["mu_re"] is not None or cfg["mu_im"] is not None:
        mu = complex(cfg["mu_re"] or 0.0, cfg["mu_im"] or 0.0)
        nbar = coherent_nbar(mu)
    else:
        nbar = cfg["nbar"]
        mu = math.sqrt(nbar)
    dim = cfg["dim"] or coherent_dim(mu, cfg["leak_tol"])
    cat = cat_target(mu, cfg["convention"], dim, cfg["leak_tol"])
    rho = DensityMatrix.from_ket(cat.amps, "mode1")
    grid = husimi_q(rho, count=cfg["grid_points"])
    peaks = _grid_peaks(grid)
    # the centre column for an odd grid; on an even one the first column
    # right of the axis, fixed by the count rather than by roundoff
    mid = grid.re_axis.size // 2
    rows = np.column_stack((grid.im_axis, grid.values[:, mid]))
    summary = {
        "mu": [complex(mu).real, complex(mu).imag],
        "nbar": nbar,
        "dim": dim,
        "convention": cfg["convention"],
        "q_max": float(grid.values.max()),
        "grid_integral": grid.integral(),
        "peaks": peaks,
        "expected_lobes": [
            [(1j * mu).real, (1j * mu).imag],
            [(-1j * mu).real, (-1j * mu).imag],
        ],
    }
    return RunReport(
        "qfunc",
        summary,
        "im,q_along_imag_axis",
        rows,
        qgrid=grid,
    )


SCENARIOS = {
    "validate": run_validate,
    "zero-detuning": run_zero_detuning,
    "large-detuning": run_large_detuning,
    "adiabatic-sweep": run_adiabatic_sweep,
    "qfunc": run_qfunc,
}


def _plain(obj):
    """JSON form of the numpy scalars and arrays json does not know."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


@functools.cache
def _csv_tables():
    """Byte tables, built and read as bytes (so endian-neutral): as uint32
    words, the digits of 0000..9999 and the head '-d.d' of 00..99, then of
    their negatives (sign byte 0 when positive); as uint64, 'e+dd' or
    'e+ddd' zero-padded to eight bytes, for exponents -324..324. And 5^k
    for k in [-292, 342] as rows hi, hi's upper 26 bits, the rest of hi,
    and lo, with hi + lo = 5^k to about 2^-106: Python's int / int rounds
    correctly."""
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48
    head = b"".join(
        b"%c%d.%d" % (s, q // 10, q % 10) for s in b"\0-" for q in range(100)
    )
    exponent = b"".join((b"e%+03d" % e).ljust(8, b"\0") for e in range(-324, 325))
    pow5 = []
    for k in range(-292, 343):
        num, den = (5**k, 1) if k >= 0 else (1, 5**-k)
        hi = num / den
        p, q = hi.as_integer_ratio()
        pow5.append((hi, (num * q - p * den) / (den * q)))
    hi, lo = np.array(pow5).T
    split = hi * 134217729.0  # 2^27 + 1: Dekker's split
    upper = split - (split - hi)
    return (
        digits.astype(np.uint8).view(np.uint32).ravel(),
        np.frombuffer(head, np.uint32),
        np.frombuffer(exponent, np.uint64),
        np.array([hi, upper, hi - upper, lo]),
    )


def _scaled(a, e, pow5):
    """The floor of a * 10^(17 - e) as an int64, and its fractional part:
    ldexp(a, k) is exact, and its product with 5^k is a double-double
    (Dekker) within about 1e-11 of the true value."""
    k = 17 - e
    hi, upper, lower, lo = np.take(pow5, k + 292, axis=1)
    s = np.ldexp(a, k)
    split = s * 134217729.0
    s_upper = split - (split - s)
    s_lower = s - s_upper
    p = s * hi
    t = ((s_upper * upper - p) + s_upper * lower + s_lower * upper) + s_lower * lower
    t += s * lo
    whole = np.floor(t)
    # a p past 4e18 only marks the cell out of range, without a cast overflow
    return np.minimum(p, 4e18).astype(np.int64) + whole.astype(np.int64), t - whole


def _csv_bytes(table) -> bytes:
    """CSV lines of a 2-D table, each cell the bytes of format(v, ".17e")
    (C's %.17e) of its float64 value, cells joined by ',' and rows ended by
    '\\n'.

    Fixed-precision Ryu printf (Adams, OOPSLA 2019) with a double-double in
    place of 128-bit integers: the 18 significant digits of |v| are
    D = round(|v| * 10^(17 - E)) with E = floor(log10 |v|). A cell whose D
    is not settled in [10^17, 10^18) (log10 on the wrong side of a power of
    ten, a round up to the next decade, or a fraction near .5, which
    includes exact ties) or that is not finite is formatted by Python. Each
    cell fills a 28-byte slot of seven words, '-d.d' + 16 digits + 'e+ddd' +
    separator, whose unused bytes are 0 and dropped."""
    digits, head, exponent, pow5 = _csv_tables()
    table = np.asarray(table, dtype=np.float64)
    rows, cols = table.shape
    flat = table.ravel()
    zero = flat == 0.0
    live = np.isfinite(flat) & ~zero
    a = np.where(live, np.abs(flat), 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    whole, frac = _scaled(a, e, pow5)
    d = whole + (frac > 0.5)
    shown = live & (whole >= 10**17) & (d < 10**18) & (np.abs(frac - 0.5) >= 1e-6)
    escape = ~(shown | zero)
    # zeros (and the escaped cells, overwritten below) read 0.0e+00
    d *= shown
    e *= shown
    upper = d // 10**8
    lower = d - upper * 10**8
    lead = upper // 10**8
    middle = upper - lead * 10**8
    slot = np.empty((rows, cols, 7), dtype=np.uint32)
    words = slot.reshape(-1, 7)
    words[:, 0] = head[lead + 100 * np.signbit(flat)]
    for column, eight in ((1, middle), (3, lower)):
        four = eight // 10**4
        words[:, column] = digits[four]
        words[:, column + 1] = digits[eight - four * 10**4]
    text = slot.view(np.uint8)
    text[:, :, 20:].view(np.uint64)[..., 0] = exponent[e + 324].reshape(rows, cols)
    text[:, :, 25] = np.frombuffer(b"," * (cols - 1) + b"\n", np.uint8)
    cells = text.reshape(-1, 28)
    for i in np.flatnonzero(escape):
        cells[i, :25] = np.frombuffer((b"%.17e" % flat[i]).ljust(25, b"\0"), np.uint8)
    return text.tobytes().translate(None, b"\0")


def write_timeseries(path: str, header: str, rows):
    """header is the CSV header row; rows is a 2-D table, one column per
    header field."""
    with open(path, "wb") as handle:
        handle.write(header.encode() + b"\n")
        handle.write(_csv_bytes(rows))


def write_summary(path: str, report: RunReport):
    payload = {
        "scenario": report.scenario,
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "seed": report.seed,
        "config": report.config,
        "summary": report.summary,
        "wall_clock_s": report.wall_clock_s,
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2, default=_plain)
        handle.write("\n")


def write_qgrid(path: str, grid: PhaseSpaceGrid):
    """Re axis as the header row, im axis as the leading column."""
    with open(path, "wb") as handle:
        handle.write(b"im/re," + _csv_bytes(grid.re_axis[None, :]))
        handle.write(_csv_bytes(np.column_stack((grid.im_axis, grid.values))))


def emit(report: RunReport, out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    write_timeseries(
        os.path.join(out_dir, "timeseries.csv"),
        report.timeseries_header,
        report.timeseries_rows,
    )
    write_summary(os.path.join(out_dir, "summary.json"), report)
    if report.qgrid is not None:
        write_qgrid(os.path.join(out_dir, "qgrid.csv"), report.qgrid)


SCENARIO_HELP = {
    "validate": "transformation identity checks",
    "zero-detuning": "resonant cat preparation",
    "large-detuning": "dispersive preparation + measurement",
    "adiabatic-sweep": "elimination residual scaling",
    "qfunc": "Husimi-Q grid of the cat target",
}


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per scenario and one flag per config key: key foo_bar
    is --foo-bar. Flags take raw strings; resolve_config converts and checks
    them exactly like config-file values."""
    parser = argparse.ArgumentParser(
        prog="quasicat",
        description="Two-mode cavity simulator: quasi-mode reduction and "
        "entangled coherent state preparation.",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    for scenario, help_text in SCENARIO_HELP.items():
        p = sub.add_parser(scenario, help=help_text)
        defaults = {"config": None, **COMMON_DEFAULTS, **SCENARIO_DEFAULTS[scenario]}
        for key, default in defaults.items():
            p.add_argument(
                "--" + key.replace("_", "-"),
                dest=key,
                help="key=value file" if key == "config" else f"default: {default}",
            )
    return parser


# built on the first main call and kept: parsing never changes the parser
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    namespace = _parser().parse_args(argv)
    try:
        cfg = resolve_config(namespace.scenario, namespace)
        started = time.perf_counter()
        report = SCENARIOS[cfg.scenario](cfg)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QuasicatError as exc:
        print(f"run error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3
    report.wall_clock_s = time.perf_counter() - started
    report.config, report.seed = dict(cfg.values), cfg["seed"]
    emit(report, cfg["out"])
    summary_path = os.path.join(cfg["out"], "summary.json")
    if report.summary.get("all_passed") is False:
        failed = [
            name
            for name, value in report.summary["checks"].items()
            if not value < VALIDATE_TOL
        ]
        print(
            f"run error: checks at or above {VALIDATE_TOL:g}: {', '.join(failed)};"
            f" see {summary_path}",
            file=sys.stderr,
        )
        return 3
    print(f"{cfg.scenario}: wrote {summary_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
