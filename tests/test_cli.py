import dataclasses
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quasicat.cli as cli
from quasicat import (
    build_hamiltonian,
    ladder_matrix,
    mode_rotation_unitary,
    rotate_amplitudes,
    rotation_params,
)
from quasicat.cli import (
    SCENARIO_KEYS,
    VALIDATE_TOL,
    build_parser,
    main,
    resolve_config,
    run_validate,
)
from quasicat.dynamics import excitation_diagonal
from quasicat.fock import LEAK_TOL, coherent_dim
from quasicat.modes import AmplitudePair, total_photon_shell_indices

import oracles
from oracles import HamiltonianSpec, dense_hamiltonian, grid_peaks_loop


def _read_summary(out_dir):
    with open(os.path.join(out_dir, "summary.json")) as handle:
        return json.load(handle)


def _read_rows(out_dir, name="timeseries.csv"):
    with open(os.path.join(out_dir, name)) as handle:
        return handle.read().splitlines()


def _strip_wall_clock(path):
    with open(path, "rb") as handle:
        raw = handle.read()
    return b"\n".join(
        line for line in raw.splitlines() if b"wall_clock_s" not in line
    )


def test_validate_scenario_passes(tmp_path):
    out = str(tmp_path / "v")
    assert main(["validate", "--out", out, "--trials", "2"]) == 0
    payload = _read_summary(out)
    assert payload["scenario"] == "validate"
    assert payload["summary"]["all_passed"] is True
    assert payload["summary"]["max_residual"] < 1e-6
    checks = payload["summary"]["checks"]
    assert set(checks) >= {
        "amplitude_round_trip",
        "rotation_operator_vs_amplitudes",
        "quasi_jc_rotation",
        "basis_equivalence_evolution",
        "squeeze_operator_identity",
        "decouple_eigenvalues",
    }
    rows = _read_rows(out)
    assert rows[0] == "check_index,residual"
    assert len(rows) == 1 + len(checks)


def test_failed_validate_exits_3_after_summary(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(
        "quasicat.cli.squeeze_identity_residual", lambda *args, **kwargs: 1.0
    )
    out = str(tmp_path / "v")
    assert main(["validate", "--out", out, "--trials", "1"]) == 3
    summary = _read_summary(out)["summary"]
    assert summary["all_passed"] is False
    assert summary["checks"]["squeeze_operator_identity"] == 1.0
    assert "squeeze_operator_identity" in capsys.readouterr().err


def _validate_report(dim, *flags):
    # below dim 12 the coherent probes of rotation_operator_vs_amplitudes can
    # exceed the default leak_tol; they play no part in the Hamiltonian checks
    argv = ["validate", "--dim", str(dim), "--trials", "1", "--leak-tol", "1e-2"]
    argv += flags
    return run_validate(resolve_config("validate", build_parser().parse_args(argv)))


def _dense_hamiltonian_checks(ham_int, g1, g2, delta, dim):
    """quasi_jc_rotation and excitation_commutator on the full (2 dim^2)^2
    matrices: dense conjugation and SVD 2-norms."""
    rot = rotation_params(g1, g2)
    ham_quasi = dense_hamiltonian(HamiltonianSpec.quasi_jc(rot.g, delta), dim, dim)
    rotation_full = np.kron(mode_rotation_unitary(rot, dim, dim), np.eye(2))
    shell = total_photon_shell_indices(dim)
    cols = np.concatenate([2 * shell, 2 * shell + 1])
    conjugated = rotation_full @ ham_int @ rotation_full.conj().T
    rotation_residual = np.linalg.norm(
        conjugated[:, cols] - ham_quasi[:, cols], 2
    ) / np.linalg.norm(ham_quasi[:, cols], 2)
    number = excitation_diagonal(dim, dim)
    commutator = np.linalg.norm(ham_int * (number[None, :] - number[:, None]), 2)
    return rotation_residual, commutator


@pytest.mark.parametrize("dim", [8, 9, 10, 11, 12])
@pytest.mark.parametrize(
    "g1, g2, delta", [(1.0, 0.7, 0.5), (0.3, 1.9, -2.5), (1.2, 0.0, 3.0)]
)
def test_validate_sector_checks_match_dense_reference(dim, g1, g2, delta):
    flags = ["--g1", repr(g1), "--g2", repr(g2), f"--delta={delta!r}"]
    checks = _validate_report(dim, *flags).summary["checks"]
    ham_int = dense_hamiltonian(HamiltonianSpec.interaction(g1, g2, delta), dim, dim)
    rotation_residual, commutator = _dense_hamiltonian_checks(
        ham_int, g1, g2, delta, dim
    )
    assert abs(checks["quasi_jc_rotation"] - rotation_residual) <= 1e-13
    assert abs(checks["excitation_commutator"] - commutator) <= 1e-13
    assert checks["basis_equivalence_evolution"] < VALIDATE_TOL


# every check at the commit before validate ran its sectors as one real
# stack; they are roundoff, and the stack moves each by far less than 1e-12
PINNED_CHECKS = {
    ("validate",): {
        "amplitude_round_trip": 1.7963785889362148e-16,
        "amplitude_norm_preserved": 6.661338147750939e-16,
        "rotation_operator_vs_amplitudes": 1.2878587085651816e-14,
        "quasi_jc_rotation": 3.629990011781464e-15,
        "excitation_commutator": 0.0,
        "basis_equivalence_evolution": 0.0,
        "squeeze_equal_params": 5.551115123125783e-17,
        "squeeze_operator_identity": 6.024976157005156e-12,
        "phase_branch_energy": 2.7755575615628914e-17,
        "decouple_eigenvalues": 0.0,
    },
    ("validate", "--dim", "16", "--trials", "4", "--seed", "3"): {
        "amplitude_round_trip": 1.1102230246251565e-16,
        "amplitude_norm_preserved": 7.494005416219807e-16,
        "rotation_operator_vs_amplitudes": 4.440892098500626e-16,
        "quasi_jc_rotation": 8.279882474668436e-15,
        "excitation_commutator": 0.0,
        "basis_equivalence_evolution": 0.0,
        "squeeze_equal_params": 5.551115123125783e-17,
        "squeeze_operator_identity": 6.024976157005156e-12,
        "phase_branch_energy": 2.7755575615628914e-17,
        "decouple_eigenvalues": 0.0,
    },
}


@pytest.mark.parametrize("argv", sorted(PINNED_CHECKS))
def test_validate_checks_stay_pinned(argv, monkeypatch):
    # the basis-equivalence trials are drawn as the per-trial loop drew them:
    # after the amplitude and operator trials, each trial's real parts and
    # then its imaginary parts, capped at n1 + n2 <= dim - 2 and normalized
    cfg = resolve_config("validate", build_parser().parse_args(list(argv)))
    seen = []
    evolve = cli.evolve_exact_jc

    def recording(state, *args):
        seen.append(state)
        return evolve(state, *args)

    monkeypatch.setattr(cli, "evolve_exact_jc", recording)
    summary = run_validate(cfg).summary
    assert summary["all_passed"] is True
    expected = PINNED_CHECKS[argv]
    assert list(summary["checks"]) == list(expected)
    for name, value in expected.items():
        assert abs(summary["checks"][name] - value) <= 1e-12, name

    dim, trials = cfg["dim"], cfg["trials"]
    rng = np.random.default_rng(cfg["seed"])
    rng.normal(size=4 * trials)
    rng.uniform(size=4 * trials)
    n = np.arange(dim)
    rotation = mode_rotation_unitary(rotation_params(cfg["g1"], cfg["g2"]), dim, dim)
    assert len(seen) == trials
    for state in seen:
        tensor = rng.normal(size=(dim, dim, 2)) + 1j * rng.normal(size=(dim, dim, 2))
        tensor[n[:, None] + n[None, :] > dim - 2] = 0.0
        tensor /= np.linalg.norm(tensor)
        quasi = rotation @ tensor.reshape(dim * dim, 2)
        assert np.abs(state.tensor.reshape(dim * dim, 2) - quasi).max() <= 1e-12


def test_validate_commutator_catches_broken_conservation(monkeypatch):
    # a mode-1 drive a + a+ changes the excitation number, so the sector
    # blocks would drop it; excitation_commutator must see it in full
    dim, g1, g2, delta = 10, 1.0, 0.7, 0.5
    a = ladder_matrix(dim)
    drive = 1e-3 * np.kron(np.kron(a + a.conj().T, np.eye(dim)), np.eye(2))
    drive_rows, drive_cols = np.nonzero(drive)

    def broken(g1_, g2_, delta_, dim_):
        rows, cols, values = build_hamiltonian(g1_, g2_, delta_, dim_)
        if g2_ == 0.0:  # the quasi-mode JC model stays intact
            return rows, cols, values
        return (
            np.concatenate([rows, drive_rows]),
            np.concatenate([cols, drive_cols]),
            np.concatenate([values, drive[drive_rows, drive_cols].real]),
        )

    monkeypatch.setattr(cli, "build_hamiltonian", broken)
    report = _validate_report(dim)
    checks = report.summary["checks"]
    ham_int = dense_hamiltonian(HamiltonianSpec.interaction(g1, g2, delta), dim, dim)
    _, commutator = _dense_hamiltonian_checks(ham_int + drive, g1, g2, delta, dim)
    assert commutator > VALIDATE_TOL
    assert abs(checks["excitation_commutator"] - commutator) <= 1e-13
    assert report.summary["all_passed"] is False


def test_zero_detuning_outputs(tmp_path):
    out = str(tmp_path / "z")
    code = main(
        ["zero-detuning", "--out", out, "--nbar", "4", "--t-steps", "6"]
    )
    assert code == 0
    rows = _read_rows(out)
    assert rows[0] == "t,atomic_inversion,atomic_purity,cat_fidelity,mean_photon_mode_i"
    assert len(rows) == 1 + 6
    payload = _read_summary(out)
    s = payload["summary"]
    # default couplings g1 = g2 = 1 add in quadrature
    assert s["g_total"] == pytest.approx(math.sqrt(2.0))
    assert s["revival_time"] == pytest.approx(2 * math.pi * 2.0 / s["g_total"])
    assert s["protocol_time"] == pytest.approx(s["revival_time"] / 2.0)
    assert 0.0 <= s["cat_fidelity_at_protocol"] <= 1.0
    assert 0.5 <= s["atomic_purity_at_protocol"] <= 1.0
    assert s["cat_convention_best"] in (-1, 1)
    assert 0.0 <= s["norm_deviation_max"] < 1e-12


def test_large_detuning_outputs(tmp_path):
    out = str(tmp_path / "l")
    code = main(
        [
            "large-detuning",
            "--out",
            out,
            "--nbar",
            "1",
            "--ratio",
            "20",
            "--t-steps",
            "4",
        ]
    )
    assert code == 0
    rows = _read_rows(out)
    assert rows[0] == "t,effective_vs_oracle_fidelity,atomic_inversion"
    assert len(rows) == 1 + 4
    s = _read_summary(out)["summary"]
    assert s["prob_sum"] == pytest.approx(1.0, abs=1e-9)
    assert s["t_prime"] == pytest.approx(math.pi * 10.0)
    assert 0.0 <= s["effective_fidelity_at_t_prime"] <= 1.0
    assert 0.0 <= s["norm_deviation_max"] < 1e-12


def test_adiabatic_sweep_outputs(tmp_path):
    out = str(tmp_path / "a")
    assert main(["adiabatic-sweep", "--out", out, "--ratios", "25,50"]) == 0
    rows = _read_rows(out)
    assert rows[0] == (
        "delta_over_g,residual,residual_relative,"
        "mode_residual,lowering_residual,inversion_residual"
    )
    assert len(rows) == 3
    s = _read_summary(out)["summary"]
    assert len(s["residuals"]) == 2
    assert s["shrink_factors"][0] == pytest.approx(4.0, rel=0.25)


def test_adiabatic_sweep_dim_guard(tmp_path, capsys):
    # the sector residuals never read dim; the sweep still refuses a dim
    # without room above n_max
    out = str(tmp_path / "a")
    assert main(["adiabatic-sweep", "--out", out, "--dim", "15", "--n-max", "10"]) == 3
    err = capsys.readouterr().err
    assert "DimTooSmall" in err and "dim >= n_max + 8" in err
    assert not os.path.exists(os.path.join(out, "summary.json"))
    assert main(["adiabatic-sweep", "--out", out, "--dim", "18", "--n-max", "10"]) == 0


def test_qfunc_outputs(tmp_path):
    out = str(tmp_path / "q")
    assert main(["qfunc", "--out", out, "--nbar", "4", "--grid-points", "41"]) == 0
    grid_rows = _read_rows(out, "qgrid.csv")
    assert grid_rows[0].startswith("im/re,")
    assert len(grid_rows[0].split(",")) == 1 + 41
    assert len(grid_rows) == 1 + 41
    s = _read_summary(out)["summary"]
    assert s["q_max"] <= 1.0 / math.pi + 1e-12
    assert s["grid_integral"] == pytest.approx(1.0, rel=0.02)
    lobes = sorted(p["im"] for p in s["peaks"])
    assert lobes[0] == pytest.approx(-2.0, abs=0.2)
    assert lobes[-1] == pytest.approx(2.0, abs=0.2)


def test_qfunc_past_vacuum_underflow_matches_closed_form(tmp_path):
    # at nbar 1400 e^{-|beta|^2/2} underflows over most of the grid, which a
    # dense coherent matrix turns into errors of about 3e-3 in Q
    out = str(tmp_path / "q")
    assert main(["qfunc", "--out", out, "--nbar", "1400", "--grid-points", "61"]) == 0
    rows = [line.split(",") for line in _read_rows(out, "qgrid.csv")]
    re_axis = np.array(rows[0][1:], dtype=float)
    im_axis = np.array([row[0] for row in rows[1:]], dtype=float)
    values = np.array([row[1:] for row in rows[1:]], dtype=float)
    alphas = re_axis[None, :] + 1j * im_axis[:, None]
    exact = oracles.cat_husimi(math.sqrt(1400.0), 1400.0, 1, alphas)
    assert values.max() > 0.1
    bound = oracles.cat_husimi_bound(1400.0, 1, LEAK_TOL)
    assert np.abs(values - exact).max() <= bound


@pytest.mark.parametrize("points", [40, 41])
def test_qfunc_cut_is_the_middle_column(tmp_path, points):
    # off the real axis Q is not symmetric in re, so the two columns beside
    # the imaginary axis of an even grid differ; the cut is column
    # points // 2 whatever the last bit of the axes, so a 1-ulp change of
    # mu_re (which moved it from column 19 to 20 at 40 points) moves it by
    # roundoff only
    cuts = []
    for mu_re in (2.0, math.nextafter(2.0, math.inf)):
        out = str(tmp_path / repr(mu_re))
        argv = ["--mu-re", repr(mu_re), "--mu-im", "-1.5", "--grid-points", str(points)]
        assert main(["qfunc", "--out", out, *argv]) == 0
        rows = [line.split(",") for line in _read_rows(out, "qgrid.csv")[1:]]
        column = np.array([row[1 + points // 2] for row in rows], dtype=float)
        cut = np.array([row.split(",")[1] for row in _read_rows(out)[1:]], dtype=float)
        np.testing.assert_array_equal(cut, column)
        cuts.append(cut)
    assert np.abs(cuts[0] - cuts[1]).max() <= 1e-13


def test_missing_config_file_is_config_error(tmp_path, capsys):
    code = main(
        ["validate", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]
    )
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_config_key_is_config_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_malformed_config_line_is_config_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just a line without equals\n")
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_negative_nbar_is_config_error(tmp_path):
    out = str(tmp_path / "n")
    assert main(["zero-detuning", "--out", out, "--nbar", "-3"]) == 2


def test_negative_values_in_exponent_form_are_values(tmp_path, capsys):
    # argparse alone reads "-4e-05" as an option and ends in "expected one
    # argument"; repr gives that form for small floats
    out = str(tmp_path / "e")
    argv = ["zero-detuning", "--alpha-re", "3", "--beta-re", "-4e-05", "--t-steps", "5"]
    assert main([*argv, "--out", out]) == 0
    with open(os.path.join(out, "summary.json")) as handle:
        assert json.load(handle)["config"]["beta_re"] == -4e-05
    assert main(["zero-detuning", "--nbar", "-1E+3", "--out", out]) == 2
    assert main(["zero-detuning", "--nbar", "-inf", "--out", out]) == 2
    assert "must be finite" in capsys.readouterr().err


def test_small_ratio_is_numeric_error(tmp_path, capsys):
    out = str(tmp_path / "r")
    code = main(["large-detuning", "--out", out, "--nbar", "1", "--ratio", "2"])
    assert code == 3
    assert "run error" in capsys.readouterr().err


def test_unnormalized_atom_is_numeric_error(tmp_path):
    out = str(tmp_path / "u")
    code = main(
        [
            "zero-detuning",
            "--out",
            out,
            "--nbar",
            "4",
            "--gamma-re",
            "1",
            "--delta-amp-re",
            "1",
        ]
    )
    assert code == 3


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nnbar = 4\nt_steps = 5\n")
    out = str(tmp_path / "o")
    code = main(
        [
            "zero-detuning",
            "--config",
            str(cfg),
            "--out",
            out,
            "--t-steps",
            "7",
        ]
    )
    assert code == 0
    assert len(_read_rows(out)) == 1 + 7
    payload = _read_summary(out)
    assert payload["config"]["nbar"] == 4.0
    assert payload["config"]["t_steps"] == 7


def test_reruns_are_bit_identical(tmp_path):
    out = str(tmp_path / "d")
    args = ["validate", "--out", out, "--trials", "2", "--seed", "777"]
    assert main(args) == 0
    first_summary = _strip_wall_clock(os.path.join(out, "summary.json"))
    with open(os.path.join(out, "timeseries.csv"), "rb") as handle:
        first_rows = handle.read()
    assert main(args) == 0
    second_summary = _strip_wall_clock(os.path.join(out, "summary.json"))
    with open(os.path.join(out, "timeseries.csv"), "rb") as handle:
        second_rows = handle.read()
    assert first_summary == second_summary
    assert first_rows == second_rows


def test_different_seed_changes_random_checks(tmp_path):
    out_a = str(tmp_path / "s1")
    out_b = str(tmp_path / "s2")
    assert main(["validate", "--out", out_a, "--trials", "2", "--seed", "1"]) == 0
    assert main(["validate", "--out", out_b, "--trials", "2", "--seed", "2"]) == 0
    a = _read_summary(out_a)["summary"]["checks"]
    b = _read_summary(out_b)["summary"]["checks"]
    assert a["amplitude_round_trip"] != b["amplitude_round_trip"]


def test_timeseries_values_are_finite(tmp_path):
    out = str(tmp_path / "f")
    assert main(["zero-detuning", "--out", out, "--nbar", "4", "--t-steps", "5"]) == 0
    body = np.loadtxt(
        os.path.join(out, "timeseries.csv"), delimiter=",", skiprows=1
    )
    assert np.isfinite(body).all()


def _keys(scenario):
    return {key: row.default for key, row in cli.config_keys(scenario).items()}


def _flag(key):
    return "--" + key.replace("_", "-")


@pytest.mark.parametrize("scenario", sorted(SCENARIO_KEYS))
def test_parser_flags_come_from_key_table(scenario):
    parser = build_parser()
    dests = set(vars(parser.parse_args([scenario]))) - {"scenario"}
    assert dests == {"config"} | set(_keys(scenario))
    for key in _keys(scenario):
        # flags hand the raw string on; resolve_config converts it
        assert getattr(parser.parse_args([scenario, _flag(key), "7"]), key) == "7"


@pytest.mark.parametrize(
    "scenario, key, value",
    [("large-detuning", "basis", "foo"), ("qfunc", "convention", "0")],
)
def test_file_and_flag_share_choices(tmp_path, capsys, scenario, key, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    out = str(tmp_path / "o")
    assert main([scenario, "--config", str(cfg), "--out", out]) == 2
    file_err = capsys.readouterr().err
    assert main([scenario, _flag(key), value, "--out", out]) == 2
    assert capsys.readouterr().err == file_err
    assert key in file_err
    assert not os.path.exists(out)


def test_zero_detuning_accepts_convention_zero(tmp_path):
    out = str(tmp_path / "z")
    argv = ["zero-detuning", "--out", out, "--nbar", "4", "--t-steps", "3"]
    assert main(argv + ["--convention", "0"]) == 0


@pytest.mark.parametrize(
    "scenario, key, value",
    [
        ("zero-detuning", "nbar", "nan"),
        ("zero-detuning", "nbar", "inf"),
        ("zero-detuning", "leak_tol", "nan"),
        ("zero-detuning", "leak_tol", "0"),
        ("zero-detuning", "leak_tol", "1"),
        ("zero-detuning", "t_steps", "1"),
        ("qfunc", "mu_re", "nan"),
        ("qfunc", "grid_points", "1"),
        ("qfunc", "grid_points", "0"),
        ("adiabatic-sweep", "n_max", "-1"),
        ("adiabatic-sweep", "g", "nan"),
        ("adiabatic-sweep", "g", "0"),
        ("adiabatic-sweep", "ratios", "20,nan"),
        ("validate", "seed", "-1"),
        ("validate", "trials", "0"),
        ("validate", "trials", "-2"),
        ("validate", "dim", "0"),
        ("large-detuning", "t_steps", "0"),
        ("large-detuning", "g", "nan"),
        ("large-detuning", "out", ""),
    ],
)
def test_bad_value_is_config_error_naming_key(tmp_path, capsys, scenario, key, value):
    out = str(tmp_path / "o")
    assert main([scenario, "--out", out, f"{_flag(key)}={value}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert key in err
    assert not os.path.exists(out)


# a raw value just inside and one just outside what each rule accepts; a
# rule missing here fails test_every_key_has_a_rule_with_edges
RULE_EDGES = {
    cli.at_least(0): ("0", "-1"),
    cli.at_least(1): ("1", "0"),
    cli.at_least(2): ("2", "1"),
    cli.finite: ("-1.7976931348623157e308", "-inf"),
    cli.positive: ("5e-324", "0"),
    cli.unit_interval: ("0.9999999999999999", "1"),
    cli.one_of(-1, 0, 1): ("1", "2"),
    cli.one_of(-1, 1): ("-1", "0"),
    cli.one_of("plusminus", "energy"): ("energy", "Energy"),
    cli.directory: ("o", ""),
    cli.float_list: ("1.7976931348623157e308", "1.8e308"),
}

KEY_ROWS = [
    (scenario, key, row)
    for scenario in sorted(SCENARIO_KEYS)
    for key, row in cli.config_keys(scenario).items()
]


@pytest.mark.parametrize("scenario, key, row", KEY_ROWS)
def test_every_key_has_a_rule_with_edges(scenario, key, row):
    assert row.rule in RULE_EDGES
    inside, _ = RULE_EDGES[row.rule]
    row.rule(key, inside)
    if row.default is not None:
        # the default passes its own rule and comes back as itself
        assert row.rule(key, str(row.default)) == row.default


@pytest.mark.parametrize("scenario, key, row", KEY_ROWS)
def test_value_just_outside_its_rule_exits_2_naming_key(
    tmp_path, capsys, scenario, key, row
):
    out = tmp_path / "o"
    _, outside = RULE_EDGES[row.rule]
    assert main([scenario, "--out", str(out), f"{_flag(key)}={outside}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} must ")
    assert not out.exists()


def test_readme_has_one_row_per_key():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as handle:
        rows = [line.split("|")[1].strip() for line in handle if line.startswith("| `--")]
    keys = {key for scenario in SCENARIO_KEYS for key in cli.config_keys(scenario)}
    assert sorted(rows) == sorted(f"`{_flag(key)}`" for key in keys)


@pytest.mark.parametrize("file_value", ["1", "abc"])
def test_bad_file_value_is_refused_under_a_flag(tmp_path, capsys, file_value):
    # each file value goes through its rule as it is read, so a flag that
    # overrides it does not hide it
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"t_steps = {file_value}\n")
    out = tmp_path / "o"
    argv = ["zero-detuning", "--config", str(cfg), "--t-steps", "5", "--out", str(out)]
    assert main(argv) == 2
    assert "t_steps" in capsys.readouterr().err
    assert not out.exists()


def test_off_axis_zero_detuning_matches_on_axis(tmp_path):
    # g1 = g2 puts the rotation at 45 degrees, so these (alpha, beta) rotate to
    # mu = -2i on quasi mode I, the --nbar 4 state, and nu = 1.5 on mode II;
    # one --dim for both runs, since suggested_dim may round a rounded |mu| up
    mu, nu = -2j, 1.5
    alpha = (mu - nu) / math.sqrt(2.0)
    beta = (mu + nu) / math.sqrt(2.0)
    argv = ["zero-detuning", "--g1", "1", "--g2", "1", "--dim", "36", "--t-steps", "80"]
    on, off = str(tmp_path / "on"), str(tmp_path / "off")
    assert main(argv + ["--out", on, "--nbar", "4"]) == 0
    amps = {"alpha": alpha, "beta": beta}
    for name, amp in amps.items():
        argv += [f"--{name}-re", repr(amp.real), f"--{name}-im", repr(amp.imag)]
    assert main(argv + ["--out", off]) == 0
    summary = _read_summary(off)["summary"]
    assert summary["mu"] == pytest.approx([0.0, -2.0], abs=1e-12)
    assert summary["nu"] == pytest.approx([1.5, 0.0], abs=1e-12)
    assert summary["dim2"] == 1
    rows = [
        np.loadtxt(os.path.join(out, "timeseries.csv"), delimiter=",", skiprows=1)
        for out in (on, off)
    ]
    assert rows[0].shape == (80, 5)
    assert np.abs(rows[1] - rows[0]).max() <= 1e-12


FUZZ_VALUES = ("nan", "inf", "-inf", "-1", "0", "1", "abc", "", "1e300", "-1e300")

# cheap settings so an example takes milliseconds; the fuzzed flag comes last
# and overrides any of them
FUZZ_BASE = {
    "validate": ["--trials", "1"],
    "zero-detuning": ["--nbar", "4", "--t-steps", "4"],
    "large-detuning": ["--nbar", "1", "--t-steps", "4"],
    "adiabatic-sweep": ["--ratios", "20,40", "--dim", "20", "--n-max", "4"],
    "qfunc": ["--nbar", "4", "--grid-points", "21"],
}


@st.composite
def _fuzz_case(draw):
    scenario = draw(st.sampled_from(sorted(SCENARIO_KEYS)))
    key = draw(st.sampled_from(sorted(_keys(scenario))))
    return scenario, key, draw(st.sampled_from(FUZZ_VALUES))


@settings(max_examples=60, deadline=None)
@given(case=_fuzz_case())
def test_any_single_bad_value_exits_cleanly(case):
    scenario, key, value = case
    argv = [scenario, "--out", "o", *FUZZ_BASE[scenario], f"{_flag(key)}={value}"]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        # a fuzzed --out is a relative path; keep it inside the temporary dir
        os.chdir(scratch)
        try:
            assert main(argv) in (0, 2, 3)
        finally:
            os.chdir(cwd)


def test_zero_detuning_has_no_dim2_key(tmp_path, capsys):
    # quasi mode II is carried analytically, so nothing sizes it
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dim2 = 3\n")
    assert main(["zero-detuning", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "unknown config key 'dim2'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["zero-detuning", "--dim2", "3", "--out", str(tmp_path)])
    assert exc.value.code == 2


# huge or vanishing finite values: (scenario, key, value, what the message
# must name)
HUGE_CASES = [
    *[
        (scenario, "nbar", value, "alpha")
        for scenario in ("zero-detuning", "large-detuning", "qfunc")
        for value in ("1e300", "1500")
    ],
    *[
        (scenario, key, value, "alpha")
        for scenario, key in (
            ("zero-detuning", "alpha_re"),
            ("zero-detuning", "alpha_im"),
            ("qfunc", "mu_re"),
            ("qfunc", "mu_im"),
        )
        for value in ("1e300", "-1e300")
    ],
    *[
        ("validate", key, value, "g1^2 + g2^2")
        for key in ("g1", "g2")
        for value in ("1e300", "-1e300")
    ],
    ("adiabatic-sweep", "g", "1e300", "g^2"),
    ("adiabatic-sweep", "g", "1e-200", "g = 1e-200"),
    ("large-detuning", "ratio", "1e300", "ratio = 1e+300"),
    ("large-detuning", "g", "1e300", "g = 1e+300"),
    ("large-detuning", "g", "1e-200", "g = 1e-200"),
]


@pytest.mark.parametrize("scenario, key, value, named", HUGE_CASES)
def test_huge_finite_value_is_numeric_error_naming_it(
    tmp_path, capsys, scenario, key, value, named
):
    out = str(tmp_path / "o")
    argv = [scenario, "--out", out, *FUZZ_BASE[scenario], f"{_flag(key)}={value}"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("run error (")
    assert named in err
    assert "non-finite amplitude" not in err


HUGE_ATOM_FLAGS = [
    *[
        f"{_flag(key)}={value}"
        for key in ("gamma_re", "gamma_im", "delta_amp_re", "delta_amp_im")
        for value in ("1e300", "-1e300")
    ],
    # |gamma| itself is past the largest float
    "--gamma-re=1.7e308 --gamma-im=1.7e308",
]


@pytest.mark.parametrize("flags", HUGE_ATOM_FLAGS)
@pytest.mark.parametrize("scenario", ["zero-detuning", "large-detuning"])
def test_huge_atom_amplitude_is_numeric_error_without_warning(tmp_path, scenario, flags):
    out = str(tmp_path / "o")
    argv = [scenario, "--out", out, *FUZZ_BASE[scenario], *flags.split()]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 3


def test_beta_alone_takes_the_off_axis_path(tmp_path):
    out = str(tmp_path / "z")
    argv = ["zero-detuning", "--out", out, "--t-steps", "4", "--g1", "1", "--g2", "0.5"]
    assert main(argv + ["--beta-re", "1.5", "--beta-im", "-0.5"]) == 0
    summary = _read_summary(out)["summary"]
    assert summary["alpha"] == [0.0, 0.0]
    assert summary["beta"] == [1.5, -0.5]
    mu, nu = (complex(*summary[key]) for key in ("mu", "nu"))
    assert abs(nu) > 0.1
    assert summary["nbar"] == pytest.approx(abs(mu) ** 2, rel=1e-12)
    back = rotate_amplitudes(rotation_params(1.0, 0.5), AmplitudePair(mu, nu, "quasi"))
    assert abs(back.first) <= 1e-12
    assert abs(back.second - (1.5 - 0.5j)) <= 1e-12


def test_overflowing_detuning_names_the_failed_check(tmp_path, capsys):
    # the Rabi frequency stays finite, the oracle overflows, and validate
    # names the check that failed
    argv = ["validate", "--trials", "1", "--delta", "1e300"]
    assert main([*argv, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "basis_equivalence_evolution" in err
    assert "non-finite amplitude" not in err


@pytest.mark.parametrize("delta", ["1e-300", "-1e-300"])
def test_vanishing_detuning_names_the_failed_check(tmp_path, delta):
    # 2 d1 d2 underflows here, so the decoupling cross term is formed from
    # 1/d1 + 1/d2; the shifts g^2/delta near 1e300 are exact to relative
    # roundoff, and the residual is taken relative to the largest eigenvalue
    out = str(tmp_path / "o")
    argv = ["validate", "--trials", "1", f"--delta={delta}"]
    assert main([*argv, "--out", out]) == 0
    assert _read_summary(out)["summary"]["checks"]["decouple_eigenvalues"] < VALIDATE_TOL


def test_decouple_eigenvalues_catches_relative_error(tmp_path, capsys, monkeypatch):
    # lambda_mode is the largest eigenvalue at the defaults, so its relative
    # error is the residual. An error of exactly 1e-6 reads 1e-6 less
    # roundoff and sits on the pass/fail edge, so take one 1% above it.
    error = 1.01e-6
    real = cli.decouple_params

    def off(*args):
        params = real(*args)
        return dataclasses.replace(params, lambda_mode=params.lambda_mode * (1 + error))

    monkeypatch.setattr(cli, "decouple_params", off)
    out = str(tmp_path / "o")
    assert main(["validate", "--trials", "1", "--out", out]) == 3
    assert "decouple_eigenvalues" in capsys.readouterr().err
    residual = _read_summary(out)["summary"]["checks"]["decouple_eigenvalues"]
    assert residual == pytest.approx(error, rel=1e-8)


def test_validate_reads_leak_tol(tmp_path, capsys):
    # the coherent probes at dim 8 leave a tail near 1e-10
    argv = ["validate", "--dim", "8", "--out", str(tmp_path / "o")]
    assert main([*argv, "--leak-tol", "1e-6"]) == 0
    assert main([*argv, "--leak-tol", "1e-12"]) == 3
    assert "leak_tol 1.0e-12" in capsys.readouterr().err


def test_adiabatic_sweep_has_no_leak_tol_key(tmp_path, capsys):
    # the sweep builds no coherent state, so nothing reads a leak_tol
    cfg = tmp_path / "run.cfg"
    cfg.write_text("leak_tol = 0.5\n")
    assert main(["adiabatic-sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "unknown config key 'leak_tol'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["adiabatic-sweep", "--leak-tol", "0.5", "--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("nbar, dim", [(200, 307), (1000, 1229), (1400, 1670)])
@pytest.mark.parametrize("scenario", ["zero-detuning", "large-detuning"])
def test_large_nbar_runs_with_automatic_dim(tmp_path, scenario, nbar, dim):
    out = str(tmp_path / "o")
    assert main([scenario, "--out", out, "--nbar", str(nbar), "--t-steps", "8"]) == 0
    summary = _read_summary(out)["summary"]
    assert summary["dim1"] == dim == coherent_dim(math.sqrt(nbar))


def test_qfunc_at_nbar_200_with_automatic_dim(tmp_path):
    out = str(tmp_path / "q")
    assert main(["qfunc", "--out", out, "--nbar", "200", "--grid-points", "21"]) == 0
    summary = _read_summary(out)["summary"]
    assert summary["dim"] == 307
    assert summary["q_max"] <= 1.0 / math.pi + 1e-12


@pytest.mark.parametrize(
    "scenario, model",
    [
        ("zero-detuning", "_jc_model"),
        ("large-detuning", "_jc_model"),
        ("large-detuning", "_effective_model"),
    ],
)
@pytest.mark.parametrize(
    "fault, cause",
    [
        ("nan", "NonFiniteInput): non-finite amplitude"),
        ("norm", "NormViolation): SystemState norm"),
    ],
)
def test_broken_time_axis_is_numeric_error(
    tmp_path, capsys, monkeypatch, scenario, model, fault, cause
):
    # the time axis is checked, not renormalized: a NaN or a norm off by 1e-5
    # on any one time of one track ends the run with exit 3 and names the
    # cause; only the axis calls with the given model's field are broken
    fields = []
    build, propagate = getattr(cli, model), cli._propagate

    def recorded(*args):
        rates, field = build(*args)
        fields.append(field)
        return rates, field

    def broken(psi, field, factors):
        out = propagate(psi, field, factors)
        if any(field is f for f in fields):
            if fault == "nan":
                out[-1, 0, 0, 0] = np.nan
            else:
                out[-1] *= 1.0 + 1e-5
        return out

    monkeypatch.setattr(cli, model, recorded)
    monkeypatch.setattr(cli, "_propagate", broken)
    out = tmp_path / "o"
    assert main([scenario, "--out", str(out), "--t-steps", "7"]) == 3
    assert cause in capsys.readouterr().err
    assert not out.exists()
    assert len(fields) == 1


@pytest.mark.parametrize(
    "argv, named",
    [
        # prob_plus read 0.744, 0.655 and 0.355 at this ratio and its next
        # two ulps, and the final inversion -0.305 and +0.163 one ulp apart
        # at this t_max: noise, with exit 0
        (["large-detuning", "--nbar", "0.5", "--ratio", "1e8"], "ratio"),
        (["zero-detuning", "--nbar", "9", "--t-max", "1e17"], "t_max"),
        # the check reads |t|: a negative ratio gives t' < 0, and prob_plus
        # read 0.744 at -1e8, and 0.655 and 0.228 one ulp to either side
        (["large-detuning", "--nbar", "0.5", "--ratio=-1e8"], "ratio"),
        (["zero-detuning", "--t-max", "1e12"], "t_max"),
        (["zero-detuning", "--t-max=-1e12"], "t_max"),
        # |rate t| reaches 7.9e9, where prob_plus moved 6e-7 per ulp
        (["large-detuning", "--ratio", "1e5"], "ratio"),
    ],
)
def test_phases_doubles_cannot_resolve_are_refused(tmp_path, capsys, argv, named):
    out = tmp_path / "o"
    assert main([*argv, "--t-steps", "3", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"run error (ParameterOutOfRange): {named}: phase")
    assert not out.exists()


def test_underflowing_coupling_sum_is_numeric_error(tmp_path, capsys):
    # g1^2 is subnormal here, so g_total and revival_time came out 0.6% off
    out = tmp_path / "o"
    argv = ["zero-detuning", "--g1", "1e-161", "--g2", "0", "--t-steps", "3"]
    assert main([*argv, "--out", str(out)]) == 3
    assert "underflows" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        # the long axes of the CI smoke step reach |rate t| of about 7.9e5
        ["large-detuning", "--nbar", "36", "--ratio", "1000"],
        ["zero-detuning", "--nbar", "25", "--t-max", "2000"],
        # eps |rate t| = 4.4e-7 at t', under the 1e-6 bound
        ["large-detuning", "--ratio", "5e4"],
    ],
)
def test_phases_doubles_resolve_pass(tmp_path, argv):
    assert main([*argv, "--t-steps", "3", "--out", str(tmp_path / "o")]) == 0


def test_main_parses_with_one_parser_and_no_shared_state(tmp_path):
    # the parser is built once, on the first main call; each call still
    # starts from the defaults of its own scenario
    cli._parser.cache_clear()
    first, second, third = (str(tmp_path / name) for name in "abc")
    assert main(["zero-detuning", "--nbar", "9", "--t-steps", "3", "--out", first]) == 0
    assert main(["large-detuning", "--t-steps", "4", "--out", second]) == 0
    assert main(["zero-detuning", "--t-steps", "2", "--out", third]) == 0
    assert cli._parser.cache_info().misses == 1
    configs = [_read_summary(out)["config"] for out in (first, second, third)]
    for config, scenario, flags in zip(
        configs,
        ("zero-detuning", "large-detuning", "zero-detuning"),
        ({"nbar": 9.0, "t_steps": 3}, {"t_steps": 4}, {"t_steps": 2}),
    ):
        expected = {**_keys(scenario), **flags}
        assert config == {**expected, "out": config["out"]}


@settings(max_examples=100, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    levels=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_grid_peaks_match_the_point_loop(shape, levels, seed):
    # few distinct values make plateaus and ties between candidate peaks
    rng = np.random.default_rng(seed)
    values = rng.integers(0, levels, size=shape) / levels * 0.3
    grid = cli.PhaseSpaceGrid(
        np.linspace(-2.0, 2.0, shape[1]), np.linspace(-1.5, 1.5, shape[0]), values
    )
    for top in (1, 2, 5):
        assert cli._grid_peaks(grid, top) == grid_peaks_loop(grid, top)


def test_qfunc_lists_a_cats_lobes_in_a_fixed_order(tmp_path):
    # the two lobes of a cat agree in Q to roundoff; as a tie they go by
    # grid position (im, then re), so every rerun lists them alike, and so
    # does the grid with its values moved by roundoff
    lobes = []
    for run in range(3):
        out = str(tmp_path / str(run))
        assert main(["qfunc", "--out", out, "--nbar", "9", "--grid-points", "41"]) == 0
        peaks = _read_summary(out)["summary"]["peaks"]
        lobes.append([(p["re"], p["im"]) for p in peaks])
    assert lobes[0][0][1] < 0.0 < lobes[0][1][1]
    assert lobes[1] == lobes[0] and lobes[2] == lobes[0]
    rho = cli.DensityMatrix.from_ket(cli.cat_target(3.0, 1, 40).amps, "mode1")
    grid = cli.husimi_q(rho, count=41)
    expected = [(p["re"], p["im"]) for p in cli._grid_peaks(grid)]
    assert expected[0][1] < 0.0 < expected[1][1]
    rng = np.random.default_rng(11)
    for _ in range(20):
        noise = 1.0 + 1e-14 * rng.normal(size=grid.values.shape)
        noisy = cli.PhaseSpaceGrid(grid.re_axis, grid.im_axis, grid.values * noise)
        assert [(p["re"], p["im"]) for p in cli._grid_peaks(noisy)] == expected


def test_writers_match_per_value_format(tmp_path):
    # the CSV kernel writes the bytes format(v, ".17e") writes per value
    rng = np.random.default_rng(3)
    values = rng.normal(size=(5, 7)) * 10.0 ** rng.integers(-300, 300, size=(5, 7))
    values[0, :3] = [0.0, -0.0, 1.0 / 3.0]
    grid = cli.PhaseSpaceGrid(np.linspace(-1, 1, 7), np.linspace(-2, 2, 5), values)
    cli.write_qgrid(str(tmp_path / "q.csv"), grid)
    header = "a,b,c,d,e,f,g"
    cli.write_timeseries(str(tmp_path / "t.csv"), header, [tuple(r) for r in values])

    def line(cells):
        return ",".join(format(float(v), ".17e") for v in cells) + "\n"

    expected_q = "im/re," + line(grid.re_axis)
    expected_q += "".join(line([im, *row]) for im, row in zip(grid.im_axis, values))
    assert (tmp_path / "q.csv").read_text() == expected_q
    expected_t = header + "\n" + "".join(line(row) for row in values)
    assert (tmp_path / "t.csv").read_text() == expected_t
