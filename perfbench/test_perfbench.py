"""Tests of the benchmark itself: output checks, streams, spans, metric names.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import quasicat.cli as cli  # noqa: E402
import quasicat.dynamics as dynamics  # noqa: E402
import run  # noqa: E402
from checks import CheckFailed, check_outputs  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Invocation, stream  # noqa: E402

SMALL = {
    "validate": Invocation("validate", ("validate", "--dim", "12", "--trials", "2"), None),
    "zero-detuning": Invocation(
        "zero-detuning", ("zero-detuning", "--nbar", "16.0", "--t-steps", "240"), 240
    ),
    "large-detuning": Invocation(
        "large-detuning",
        ("large-detuning", "--nbar", "4.0", "--ratio", "30.0", "--t-steps", "150"),
        150,
    ),
    "adiabatic-sweep": Invocation("adiabatic-sweep", ("adiabatic-sweep", "--dim", "40"), 4),
    "qfunc": Invocation("qfunc", ("qfunc", "--nbar", "16.0", "--grid-points", "101"), 101),
}


def _rewrite_summary(out_dir, edit):
    path = os.path.join(out_dir, "summary.json")
    with open(path) as handle:
        payload = json.load(handle)
    edit(payload["summary"])
    with open(path, "w") as handle:
        json.dump(payload, handle)


def _rewrite_lines(out_dir, name, edit):
    path = os.path.join(out_dir, name)
    with open(path) as handle:
        lines = handle.read().splitlines()
    with open(path, "w") as handle:
        handle.write("\n".join(edit(lines)) + "\n")


def _nan_last_cell(lines):
    cells = lines[-1].split(",")
    return lines[:-1] + [",".join(cells[:-1] + ["nan"])]


def _set(key, value):
    return lambda summary: summary.__setitem__(key, value)


CORRUPTIONS = {
    "validate": lambda d: _rewrite_summary(d, _set("all_passed", False)),
    "zero-detuning": lambda d: _rewrite_summary(d, _set("atomic_purity_at_protocol", 0.5)),
    "large-detuning": lambda d: _rewrite_summary(d, _set("prob_sum", 1.0 + 1e-6)),
    "adiabatic-sweep": lambda d: _rewrite_summary(d, _set("shrink_factors", [4.0, 2.0, 4.0])),
    "qfunc": lambda d: _rewrite_summary(d, _set("grid_integral", 0.99)),
}

ANY_SCENARIO = {
    "nan in timeseries": lambda d: _rewrite_lines(d, "timeseries.csv", _nan_last_cell),
    "missing row": lambda d: _rewrite_lines(d, "timeseries.csv", lambda lines: lines[:-1]),
    "text cell": lambda d: _rewrite_lines(
        d, "timeseries.csv", lambda lines: lines[:-1] + [lines[-1].replace("e", "x", 1)]
    ),
    "infinite summary value": lambda d: _rewrite_summary(d, _set("extra", float("inf"))),
    "missing summary": lambda d: os.remove(os.path.join(d, "summary.json")),
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Each small invocation run once; returns scenario -> output directory."""
    dirs = {}
    for scenario, inv in SMALL.items():
        out = str(tmp_path_factory.mktemp(scenario))
        assert cli.main(list(inv.argv) + ["--out", out]) == 0
        dirs[scenario] = out
    return dirs


def _copy(src, tmp_path):
    return shutil.copytree(src, tmp_path / "copy")


@pytest.mark.parametrize("scenario", sorted(SMALL))
def test_clean_outputs_pass(outputs, scenario):
    check_outputs(scenario, SMALL[scenario].rows, outputs[scenario])


@pytest.mark.parametrize("scenario", sorted(SMALL))
def test_scenario_invariant_breach_fails(outputs, scenario, tmp_path):
    out = _copy(outputs[scenario], tmp_path)
    CORRUPTIONS[scenario](out)
    with pytest.raises(CheckFailed):
        check_outputs(scenario, SMALL[scenario].rows, out)


@pytest.mark.parametrize("corruption", sorted(ANY_SCENARIO))
@pytest.mark.parametrize("scenario", ["zero-detuning", "qfunc"])
def test_corrupted_file_fails(outputs, scenario, corruption, tmp_path):
    out = _copy(outputs[scenario], tmp_path)
    ANY_SCENARIO[corruption](out)
    with pytest.raises(CheckFailed):
        check_outputs(scenario, SMALL[scenario].rows, out)


def test_corrupted_qgrid_fails(outputs, tmp_path):
    out = _copy(outputs["qfunc"], tmp_path)
    _rewrite_lines(out, "qgrid.csv", _nan_last_cell)
    with pytest.raises(CheckFailed):
        check_outputs("qfunc", 101, out)


def _corrupting(corrupt):
    def call(argv):
        rc = cli.main(argv)
        corrupt(argv[argv.index("--out") + 1])
        return rc

    return call


def test_loop_counts_failures(tmp_path):
    loop = run.Loop(cli.main, str(tmp_path))
    inv = SMALL["large-detuning"]
    assert loop.invoke(inv)[1]
    assert not loop.invoke(inv, _corrupting(CORRUPTIONS["large-detuning"]))[1]
    assert not loop.invoke(inv, lambda argv: 3)[1]
    assert not loop.invoke(inv, lambda argv: 1 / 0)[1]
    bad_flag = Invocation("large-detuning", ("large-detuning", "--no-such-flag"), 150)
    assert not loop.invoke(bad_flag)[1]
    # the last call wrote nothing: stale files from earlier calls must not pass
    assert not loop.invoke(inv, lambda argv: 0)[1]
    assert len(loop.failures) == 5


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_streams_follow_the_seed(workload):
    def take(seed, n=40):
        it = stream(workload, seed)
        return [next(it) for _ in range(n)]

    assert take(7) == take(7)
    assert take(7) != take(8)
    assert take(7)[0].scenario == take(8)[0].scenario


def test_spans_nest_and_patches_restore(tmp_path):
    originals = (cli.mode_rotation_unitary, dynamics.HermitianPropagator.__init__,
                 dict(cli.SCENARIOS))
    tracer = Tracer()
    loop = run.Loop(cli.main, str(tmp_path))
    with tracer.installed({"quasicat.cli": cli, "quasicat.dynamics": dynamics}):
        assert loop.invoke(SMALL["validate"], tracer.wrap("cli.main", cli.main))[1]
    assert originals == (cli.mode_rotation_unitary, dynamics.HermitianPropagator.__init__,
                         dict(cli.SCENARIOS))
    names = [span[0] for span in tracer.spans]
    assert names[0] == "cli.main" and tracer.spans[0][1] is None
    scenario = names.index("cli.run.validate")
    rotation = names.index("modes.mode_rotation_unitary")
    assert tracer.spans[rotation][1] == scenario
    metrics = layer_metrics(tracer.spans)
    assert metrics["modes.mode_rotation_unitary.calls"] == 1
    assert metrics["modes.mode_rotation_unitary.dense_bytes_computed"] == 16 * 144**2
    assert metrics["dynamics.HermitianPropagator.init.dim_max"] == 2 * 144
    total = sum(metrics[f"{name}.s"] for name in set(names))
    root = tracer.spans[0]
    assert total == pytest.approx(root[4] - root[3], rel=1e-9)


def test_self_time_excludes_children():
    spans = [
        ["cli.main", None, 0, 0.0, 10.0, None],
        ["cli.run.qfunc", 0, 0, 1.0, 9.0, None],
        ["analysis.husimi_q", 1, 0, 2.0, 5.0, {"points": 4, "computed_ops": 36}],
        ["dynamics.cat_target", 1, 0, 5.0, 6.0, None],
    ]
    metrics = layer_metrics(spans)
    assert metrics["cli.main.s"] == pytest.approx(2.0)
    assert metrics["cli.run.qfunc.s"] == pytest.approx(4.0)
    assert metrics["cli.self.s"] == pytest.approx(4.0)
    assert metrics["cli.run.coverage"] == pytest.approx(0.5)
    assert metrics["analysis.husimi_q.share"] == pytest.approx(0.3)
    assert metrics["analysis.husimi_q.computed_ops"] == 36


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == run.END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted = set(layer_metrics([])) | set(run.TRACED_EXTRAS)
    assert set(per_layer) == emitted
    assert all(per_layer[name] == run.unit_of(name) for name in per_layer)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
