"""summary.json fields against closed forms and independent oracles, and
the strict JSON that carries them."""

import cmath
import json
import math
import os

import numpy as np
import pytest

import quasicat.cli as cli
from quasicat import coherent_state, rotation_params
from quasicat.cli import ROUNDOFF_FLOOR, main

from oracles import HamiltonianSpec, dense_hamiltonian


def _strict_load(path):
    """json.load that refuses NaN and Infinity, as strict parsers do."""

    def refuse(token):
        raise ValueError(f"non-standard JSON number {token}")

    with open(path) as handle:
        return json.load(handle, parse_constant=refuse)


def _run(tmp_path, name, *argv):
    out = str(tmp_path / name)
    assert main([*argv, "--out", out]) == 0
    rows = np.loadtxt(os.path.join(out, "timeseries.csv"), delimiter=",", skiprows=1)
    return _strict_load(os.path.join(out, "summary.json"))["summary"], rows


# nbar 3, ratio 40, g 0.8 and the atom 0.6 |lower> + 0.8i |upper>
NBAR, RATIO, G = 3.0, 40.0, 0.8
GAMMA, DELTA_AMP = 0.6, 0.8j
LARGE_DETUNING = [
    "large-detuning", "--nbar", "3", "--ratio", "40", "--g", "0.8",
    "--gamma-re", "0.6", "--gamma-im", "0", "--delta-amp-re", "0",
    "--delta-amp-im", "0.8", "--t-steps", "7",
]  # fmt: skip


def _large_detuning(tmp_path, basis):
    return _run(tmp_path, basis, *LARGE_DETUNING, "--basis", basis)


def _dense_outcomes(summary, basis):
    """(prob_plus, prob_minus, post-state overlap) of the exact quasi-mode JC
    evolution to t', from one dense eigendecomposition; mode II is a
    spectator held in vacuum."""
    dim = summary["dim1"]
    ham = dense_hamiltonian(HamiltonianSpec.quasi_jc(G, summary["delta"]), dim, 2)
    energies, vectors = np.linalg.eigh(ham)
    field = np.kron(coherent_state(math.sqrt(NBAR), dim).amps, [1.0, 0.0])
    psi = np.kron(field, [GAMMA, DELTA_AMP])
    psi = vectors @ (np.exp(-1j * energies * summary["t_prime"]) * (vectors.conj().T @ psi))
    lower, upper = psi.reshape(dim, 2, 2)[:, 0, :].T
    if basis == "energy":
        plus, minus = upper, lower
    else:
        plus, minus = (lower + upper) / math.sqrt(2.0), (lower - upper) / math.sqrt(2.0)
    p_plus, p_minus = np.vdot(plus, plus).real, np.vdot(minus, minus).real
    return p_plus, p_minus, abs(np.vdot(plus, minus)) / math.sqrt(p_plus * p_minus)


def test_large_detuning_energy_basis_outcomes(tmp_path):
    # the dispersive model only phases each level, so the level populations
    # stay |gamma|^2 and |delta|^2; both post states are the coherent field
    # with phases (-1)^n apart, whose overlap is sum_n p_n (-1)^n = e^{-2 nbar}
    s, _ = _large_detuning(tmp_path, "energy")
    assert s["measurement_basis"] == "energy"
    ulp = math.ulp(1.0)
    assert s["prob_plus"] == pytest.approx(abs(DELTA_AMP) ** 2, abs=ulp)
    assert s["prob_minus"] == pytest.approx(abs(GAMMA) ** 2, abs=ulp)
    assert s["branch_overlap"] == math.exp(-2.0 * NBAR)
    assert s["post_state_overlap"] == pytest.approx(s["branch_overlap"], abs=ulp)


def test_large_detuning_plusminus_outcomes(tmp_path):
    # at t' = pi delta / (2 g^2) the level phases differ by
    # (delta + g^2/delta) t' + pi n, and sum_n p_n (-1)^n = e^{-2 nbar}
    s, _ = _large_detuning(tmp_path, "plusminus")
    assert s["measurement_basis"] == "plusminus"
    delta = s["delta"]
    assert delta == RATIO * G
    phase = cmath.exp(-1j * (delta + G * G / delta) * s["t_prime"])
    mix = GAMMA.conjugate() * DELTA_AMP * phase * math.exp(-2.0 * NBAR)
    prob_plus = 0.5 + mix.real
    assert s["prob_plus"] == pytest.approx(prob_plus, abs=1e-15)
    assert s["prob_minus"] == pytest.approx(1.0 - prob_plus, abs=1e-15)
    # <plus|minus> = (|gamma|^2 - |delta|^2)/2 - i Im(mix), per sqrt(p+ p-)
    inner = complex((abs(GAMMA) ** 2 - abs(DELTA_AMP) ** 2) / 2.0, -mix.imag)
    overlap = abs(inner) / math.sqrt(prob_plus * (1.0 - prob_plus))
    assert s["post_state_overlap"] == pytest.approx(overlap, abs=1e-15)


def test_missing_post_state_overlap_is_null(tmp_path):
    # the dispersive model keeps an atom that starts upper in the upper level,
    # so the energy basis leaves no minus post state and no overlap to report;
    # the exact evolution leaks a little into the lower level and keeps one
    s, _ = _run(
        tmp_path, "upper", "large-detuning", "--gamma-re", "0",
        "--delta-amp-re", "1", "--basis", "energy",
    )  # fmt: skip
    assert s["prob_minus"] == 0.0
    assert s["post_state_overlap"] is None
    assert s["oracle_prob_minus"] > 1e-3
    assert 0.0 < s["oracle_post_state_overlap"] < 1.0


@pytest.mark.parametrize("basis", ["energy", "plusminus"])
def test_large_detuning_oracle_outcomes_match_dense_evolution(tmp_path, basis):
    s, _ = _large_detuning(tmp_path, basis)
    prob_plus, prob_minus, overlap = _dense_outcomes(s, basis)
    assert s["oracle_prob_plus"] == pytest.approx(prob_plus, abs=1e-13)
    assert s["oracle_prob_minus"] == pytest.approx(prob_minus, abs=1e-13)
    assert s["oracle_post_state_overlap"] == pytest.approx(overlap, abs=1e-13)
    # at ratio 40 the exact and the dispersive outcomes differ well above
    # roundoff, so neither field can stand in for the other
    assert abs(s["oracle_prob_minus"] - s["prob_minus"]) > 1e-5


def test_effective_fidelity_at_t_prime_is_the_last_row(tmp_path):
    s, rows = _large_detuning(tmp_path, "plusminus")
    assert rows[-1, 0] == s["t_prime"]
    assert s["effective_fidelity_at_t_prime"] == rows[-1, 1]
    assert rows[-2, 1] != rows[-1, 1]


def test_zero_detuning_keeps_the_better_convention(tmp_path):
    # --convention 0 compares with both cats and keeps the larger fidelity,
    # at every time and at the protocol time
    base = ["zero-detuning", "--nbar", "4", "--t-steps", "9", "--g2", "0.5"]
    runs = {c: _run(tmp_path, str(c), *base, "--convention", str(c)) for c in (1, -1, 0)}
    both = np.column_stack([runs[c][1][:, 3] for c in (1, -1)])
    assert np.ptp(both, axis=1).max() > 0.1
    np.testing.assert_allclose(runs[0][1][:, 3], both.max(axis=1), rtol=0, atol=1e-15)
    at_protocol = {c: runs[c][0]["cat_fidelity_at_protocol"] for c in (1, -1)}
    best = max(at_protocol, key=at_protocol.get)
    s = runs[0][0]
    assert s["cat_convention_best"] == best
    assert s["cat_fidelity_at_protocol"] == pytest.approx(at_protocol[best], abs=1e-15)
    assert s["cat_fidelity_at_protocol"] > min(at_protocol.values()) + 0.1


def test_zero_detuning_rotation_and_branch_overlap(tmp_path):
    # tan(theta) = g2/g1, and the cat branches |i mu> and |-i mu> overlap
    # by e^{-|2 mu|^2 / 2} = e^{-2 nbar}
    s, _ = _run(tmp_path, "z", "zero-detuning", "--nbar", "4", "--t-steps", "3",
                "--g1", "1", "--g2", "0.5")  # fmt: skip
    assert s["theta"] == pytest.approx(math.atan(0.5), abs=1e-16)
    assert s["theta"] == rotation_params(1.0, 0.5).theta
    mu = complex(*s["mu"])
    branches = [coherent_state(sign * 1j * mu, s["dim1"]).amps for sign in (1, -1)]
    assert s["branch_overlap"] == pytest.approx(
        abs(np.vdot(*branches)), rel=1e-12
    )
    assert s["branch_overlap"] == math.exp(-2.0 * s["nbar"])


def test_qfunc_expected_lobes_are_the_cat_branches(tmp_path):
    # the cat of mu has its branches at +-i mu; the two grid peaks lie
    # within a grid step of them
    s, _ = _run(tmp_path, "q", "qfunc", "--mu-re", "1.5", "--mu-im", "-0.5",
                "--grid-points", "41")  # fmt: skip
    assert s["expected_lobes"] == [[0.5, 1.5], [-0.5, -1.5]]
    with open(tmp_path / "q" / "qgrid.csv") as handle:
        re_axis = np.array(handle.readline().split(",")[1:], dtype=float)
    step = re_axis[1] - re_axis[0]
    for lobe in s["expected_lobes"]:
        nearest = min(math.hypot(p["re"] - lobe[0], p["im"] - lobe[1]) for p in s["peaks"])
        assert nearest <= step


def test_sweep_shrink_factor_at_roundoff_is_null(tmp_path):
    # at n_max 0 and ratios this large both residuals sit within 1e3 eps of
    # the projected norm: their quotient (inf, or 9.06 at 3000,6000) is noise
    for ratios in ("10000,20000", "3000,6000"):
        s, rows = _run(tmp_path, ratios, "adiabatic-sweep", "--n-max", "0",
                       "--ratios", ratios)  # fmt: skip
        assert s["shrink_factors"] == [None]
        assert rows[:, 2].max() < ROUNDOFF_FLOOR


def test_sweep_nulls_only_the_pairs_at_roundoff(tmp_path):
    # residual_relative falls 16-fold per doubling at n_max 0 and crosses
    # the floor between ratios 1600 and 3200
    s, rows = _run(tmp_path, "s", "adiabatic-sweep", "--n-max", "0",
                   "--ratios", "100,200,400,800,1600,3200")  # fmt: skip
    assert rows[-2, 2] >= ROUNDOFF_FLOOR > rows[-1, 2]
    assert s["shrink_factors"][-1] is None
    assert s["shrink_factors"][:-1] == pytest.approx([8.0] * 4, rel=1e-3)


def test_non_finite_summary_field_is_numeric_error_naming_it(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(cli, "adiabatic_residual", lambda *args: math.nan)
    out = tmp_path / "o"
    assert main(["adiabatic-sweep", "--ratios", "20,40", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("run error (NonFiniteOutput): summary.residuals[0] = nan")
    assert not out.exists()


def test_summary_text_names_a_nested_non_finite_field():
    report = cli.RunReport("qfunc", {"peaks": [{"q": 0.1}, {"q": -math.inf}]}, "", None)
    with pytest.raises(cli.NonFiniteOutput, match=r"summary\.peaks\[1\]\.q = -inf"):
        cli.summary_text(report)
