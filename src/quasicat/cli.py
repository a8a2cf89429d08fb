"""Command-line front end: scenario orchestration and report emission.

Subcommands: validate, zero-detuning, large-detuning, adiabatic-sweep, qfunc.
Configuration comes from a flat key=value file (--config) overridden by CLI
flags. Each key is one row of COMMON_KEYS or SCENARIO_KEYS: its default and
the rule that turns a raw file or flag string into a checked value. The
parser's flags and resolve_config both read these rows. Units follow the
g = 1 convention unless explicit frequencies are given, so times are in
units of 1/g. Every scenario writes <out>/timeseries.csv and
<out>/summary.json, which is strict JSON; qfunc adds <out>/qgrid.csv.
Exit codes: 0 success, 2 config error, 3 numeric/validity error (a
non-finite summary field included).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from .analysis import (
    DensityMatrix,
    PhaseSpaceGrid,
    atom_inversion_purity,
    atom_purity,
    atomic_inversion,
    husimi_q,
    mode_mean_photon,
    mode_overlaps,
)
from .dynamics import (
    HermitianPropagator,
    SystemState,
    NORM_TOL,
    _effective_model,
    _jc_model,
    _phase_factors,
    _propagate,
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
    NonFiniteOutput,
    NormViolation,
    ParameterOutOfRange,
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

# an adiabatic-sweep residual whose residual_relative lies below this is
# roundoff, and a shrink factor with such a residual on either side is null
ROUNDOFF_FLOOR = 1e3 * sys.float_info.epsilon


class Key(NamedTuple):
    """A config key: its default (None leaves it unset) and the rule that
    turns a raw file or flag string into a checked value."""

    default: object
    rule: Callable[[str, str], object]


def _rule(kind, test=None, need=""):
    """Rule: parse raw as kind (a float must also be finite), then require
    test(value); each failure raises ConfigInvalid naming the key."""

    def rule(key, raw):
        try:
            value = kind(raw)
        except ValueError as exc:
            raise ConfigInvalid(f"cannot parse {key}={raw!r}: {exc}") from None
        if kind is float and not math.isfinite(value):
            raise ConfigInvalid(f"{key} must be finite, got {value}")
        if test is not None and not test(value):
            raise ConfigInvalid(f"{key} must {need}, got {value!r}")
        return value

    return rule


# cached, so one bound is one rule object that tables and tests can compare
@functools.cache
def at_least(minimum: int):
    return _rule(int, lambda value: value >= minimum, f"be >= {minimum}")


@functools.cache
def one_of(*allowed):
    choices = ", ".join(str(a) for a in allowed)
    return _rule(type(allowed[0]), allowed.__contains__, f"be one of {choices}")


finite = _rule(float)
positive = _rule(float, lambda value: value > 0, "be positive")
unit_interval = _rule(float, lambda value: 0.0 < value < 1.0, "lie in (0, 1)")
directory = _rule(str, bool, "name a directory")


def _floats(raw: str) -> list:
    return [float(tok) for tok in raw.split(",") if tok.strip()]


def float_list(key, raw):
    """Rule: comma-separated finite floats, at least one; the value stays
    the text."""
    try:
        values = _floats(raw)
    except ValueError as exc:
        raise ConfigInvalid(f"bad {key} list {raw!r}: {exc}") from None
    if not values or not all(map(math.isfinite, values)):
        raise ConfigInvalid(f"{key} must list finite numbers, got {raw!r}")
    return raw


# the keys every scenario takes; a scenario row of the same key replaces its row
COMMON_KEYS = {
    "out": Key("quasicat-out", directory),
    "seed": Key(12345, at_least(0)),
    "dim": Key(None, at_least(1)),
}

SCENARIO_KEYS = {
    "validate": {
        "trials": Key(3, at_least(1)),
        "g1": Key(1.0, finite),
        "g2": Key(0.7, finite),
        "delta": Key(0.5, finite),
        "t": Key(2.3, finite),
        "dim": Key(12, at_least(1)),
        "leak_tol": Key(LEAK_TOL, unit_interval),
    },
    "zero-detuning": {
        "nbar": Key(25.0, positive),
        "g1": Key(1.0, finite),
        "g2": Key(1.0, finite),
        "alpha_re": Key(None, finite),
        "alpha_im": Key(None, finite),
        "beta_re": Key(None, finite),
        "beta_im": Key(None, finite),
        "gamma_re": Key(1.0, finite),
        "gamma_im": Key(0.0, finite),
        "delta_amp_re": Key(0.0, finite),
        "delta_amp_im": Key(0.0, finite),
        "t_max": Key(None, finite),
        "t_steps": Key(240, at_least(2)),
        "convention": Key(0, one_of(-1, 0, 1)),
        "leak_tol": Key(LEAK_TOL, unit_interval),
    },
    "large-detuning": {
        "nbar": Key(4.0, positive),
        "g": Key(1.0, positive),
        "ratio": Key(50.0, finite),
        "gamma_re": Key(INV_SQRT2, finite),
        "gamma_im": Key(0.0, finite),
        "delta_amp_re": Key(INV_SQRT2, finite),
        "delta_amp_im": Key(0.0, finite),
        "t_steps": Key(120, at_least(2)),
        "basis": Key("plusminus", one_of("plusminus", "energy")),
        "leak_tol": Key(LEAK_TOL, unit_interval),
    },
    "adiabatic-sweep": {
        "g": Key(1.0, positive),
        "ratios": Key("20,40,80,160", float_list),
        "n_max": Key(10, at_least(0)),
        "dim": Key(40, at_least(1)),
    },
    "qfunc": {
        "nbar": Key(9.0, positive),
        "mu_re": Key(None, finite),
        "mu_im": Key(None, finite),
        "convention": Key(1, one_of(-1, 1)),
        "grid_points": Key(101, at_least(2)),
        "leak_tol": Key(LEAK_TOL, unit_interval),
    },
}


def config_keys(scenario: str) -> dict:
    """Every key of scenario, name -> Key, common keys first."""
    return {**COMMON_KEYS, **SCENARIO_KEYS[scenario]}


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


def resolve_config(scenario: str, namespace: argparse.Namespace) -> dict:
    """defaults < file < flags. Each file value, then each flag value, goes
    through its key's rule as it is read, so a bad file value is refused
    even where a flag overrides it."""
    keys = config_keys(scenario)
    values = {key: row.default for key, row in keys.items()}
    config_path = getattr(namespace, "config", None)
    raw_file = parse_config_file(config_path) if config_path else {}
    for key, raw in raw_file.items():
        if key not in keys:
            raise ConfigInvalid(f"unknown config key {key!r} for {scenario}")
        values[key] = keys[key].rule(key, raw)
    for key, row in keys.items():
        raw = getattr(namespace, key, None)
        if raw is not None:
            values[key] = row.rule(key, raw)
    return values


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


def _axis_blocks(steps: int, dim: int):
    """(chunk, span) for a time axis of `steps` times at truncation dim:
    chunks of at most CHUNK_PAIRS // dim times bound the memory; blocks of
    `span` times, the fewest whole chunks that hold ceil(sqrt(steps))
    times, share one anchor row of phase factors."""
    chunk = max(1, CHUNK_PAIRS // dim)
    return chunk, chunk * -(-(math.isqrt(steps - 1) + 1) // chunk)


def _time_chunks(times: np.ndarray, dim: int, *rate_sets):
    """Consecutive chunks of a uniform time axis times[k] = k h, as
    np.linspace(0, T, steps) gives, with the factors e^{i rate t} of each
    rate set at the chunk's times (see _axis_blocks for the sizes).

    The first row of each block is the anchor e^{i rate times[start]},
    evaluated directly. Every other row is the anchor times a row of the
    offset table e^{i rate k h}, k < span, built once. So an axis takes
    span + ceil(steps / span) rows of exponentials, about 2 sqrt(steps)
    where a chunk is shorter than sqrt(steps), in place of steps rows.
    """
    step, span = _axis_blocks(times.size, dim)
    offsets = [_phase_factors(rates, times[:span]) for rates in rate_sets]
    for start in range(0, times.size, step):
        lag = start % span
        if lag == 0:
            anchors = [_phase_factors(rates, times[start]) for rates in rate_sets]
        chunk = times[start : start + step]
        rows = slice(lag, lag + chunk.size)
        yield chunk, *(a * table[rows] for a, table in zip(anchors, offsets))


def _check_resolved(key: str, t_max: float, *rate_sets):
    """Refuse a time axis up to t_max whose largest phase |rate t| doubles
    resolve no better than NORM_TOL: there one ulp of the key moves the
    state by more than a norm check allows."""
    phase = t_max * max(float(np.abs(rates).max()) for rates in rate_sets)
    if not sys.float_info.epsilon * phase <= NORM_TOL:
        raise ParameterOutOfRange(
            f"{key}: phase arguments |rate t| up to {phase:.3g} are not"
            f" resolved to {NORM_TOL:g} in double precision"
        )


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


def run_validate(cfg: dict) -> RunReport:
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
        rotation_params(1.0, 1.0), 0.25, 0.25, dim=24
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


def run_zero_detuning(cfg: dict) -> RunReport:
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
    rates, field = _jc_model(state.tensor, rot.g, 0.0)
    _check_resolved("t_max", t_max, rates)
    for chunk, factors in _time_chunks(times, dim1, rates):
        stack = _propagate(state.tensor, field, factors)
        worst_norm = max(worst_norm, norm_deviation(stack))
        inversion, purity = atom_inversion_purity(stack)
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


def _post_state_overlap(plus, minus) -> Optional[float]:
    """|<plus|minus>| of the two post-measurement fields; None (JSON null)
    if either outcome has no post state, as the overlap is then undefined."""
    if plus.post_state is None or minus.post_state is None:
        return None
    return float(abs(np.vdot(plus.post_state.tensor, minus.post_state.tensor)))


def run_large_detuning(cfg: dict) -> RunReport:
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
    jc_rates, jc_field = _jc_model(init.tensor, g, delta)
    effective_rates, effective_field = _effective_model(init.tensor, g, delta)
    _check_resolved("ratio", t_prime, jc_rates, effective_rates)
    for chunk, jc_factors, effective_factors in _time_chunks(
        times, dim1, jc_rates, effective_rates
    ):
        oracle = _propagate(init.tensor, jc_field, jc_factors)
        effective = _propagate(init.tensor, effective_field, effective_factors)
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


def run_adiabatic_sweep(cfg: dict) -> RunReport:
    g = cfg["g"]
    ratios = _floats(cfg["ratios"])
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
    # rows hold (ratio, residual, residual_relative, ...)
    factors = [
        here[1] / there[1] if min(here[2], there[2]) >= ROUNDOFF_FLOOR else None
        for here, there in zip(rows, rows[1:])
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


def run_qfunc(cfg: dict) -> RunReport:
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


def _nonfinite_fields(obj, path=""):
    """(path, value) of each NaN or infinite float in a JSON payload."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _nonfinite_fields(value, f"{path}.{key}" if path else key)
    elif isinstance(obj, (list, tuple, np.ndarray)):
        for i, value in enumerate(obj):
            yield from _nonfinite_fields(value, f"{path}[{i}]")
    elif isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
        yield path, obj


def summary_text(report: RunReport) -> str:
    """summary.json's text, strict JSON: a NaN or infinite field raises
    NonFiniteOutput naming it."""
    payload = {
        "scenario": report.scenario,
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "seed": report.seed,
        "config": report.config,
        "summary": report.summary,
        "wall_clock_s": report.wall_clock_s,
    }
    try:
        text = json.dumps(
            payload, sort_keys=True, indent=2, default=_plain, allow_nan=False
        )
    except ValueError:
        for name, value in _nonfinite_fields(payload):
            raise NonFiniteOutput(f"{name} = {value} is not finite") from None
        raise
    return text + "\n"


def write_qgrid(path: str, grid: PhaseSpaceGrid):
    """Re axis as the header row, im axis as the leading column."""
    with open(path, "wb") as handle:
        handle.write(b"im/re," + _csv_bytes(grid.re_axis[None, :]))
        handle.write(_csv_bytes(np.column_stack((grid.im_axis, grid.values))))


def emit(report: RunReport, out_dir: str):
    # the summary is checked before any file is written
    summary = summary_text(report)
    os.makedirs(out_dir, exist_ok=True)
    write_timeseries(
        os.path.join(out_dir, "timeseries.csv"),
        report.timeseries_header,
        report.timeseries_rows,
    )
    with open(os.path.join(out_dir, "summary.json"), "w") as handle:
        handle.write(summary)
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
    # argparse's own pattern reads -12 and -1.5 as negative numbers but takes
    # -4e-05 or -inf for an option; every flag here takes a value, so a
    # token in float syntax after one is its value
    number = re.compile(r"-((\d+\.?\d*|\.\d+)(e[+-]?\d+)?|inf|infinity|nan)$", re.I)
    parser = argparse.ArgumentParser(
        prog="quasicat",
        description="Two-mode cavity simulator: quasi-mode reduction and "
        "entangled coherent state preparation.",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    for scenario, help_text in SCENARIO_HELP.items():
        p = sub.add_parser(scenario, help=help_text)
        p._negative_number_matcher = number
        p.add_argument("--config", help="key=value file")
        for key, row in config_keys(scenario).items():
            flag = "--" + key.replace("_", "-")
            p.add_argument(flag, dest=key, help=f"default: {row.default}")
    return parser


# built on the first main call and kept: parsing never changes the parser
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    namespace = _parser().parse_args(argv)
    scenario = namespace.scenario
    try:
        cfg = resolve_config(scenario, namespace)
        started = time.perf_counter()
        report = SCENARIOS[scenario](cfg)
        report.wall_clock_s = time.perf_counter() - started
        report.config, report.seed = cfg, cfg["seed"]
        emit(report, cfg["out"])
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QuasicatError as exc:
        print(f"run error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3
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
    print(f"{scenario}: wrote {summary_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
