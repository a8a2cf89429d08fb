"""The benchmark's traced runs wrap quasicat names from outside (see
perfbench/spans.py). A rename in the package breaks that install with an
AttributeError, so the names it looks up are checked here as well, and one
small traced run of each scenario checks that the span counters can still
read what they expect from the calls they wrap."""

import importlib
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")
sys.path.insert(0, os.path.abspath(PERFBENCH))

from spans import (  # noqa: E402
    FUNCTION_SPANS,
    METHOD_SPANS,
    SCENARIO_NAMES,
    Tracer,
    layer_metrics,
)

import quasicat.cli as cli  # noqa: E402
import quasicat.dynamics as dynamics  # noqa: E402
from quasicat.dynamics import HermitianPropagator  # noqa: E402

SMALL_RUNS = {
    "validate": ["--trials", "1"],
    "zero-detuning": ["--nbar", "4", "--t-steps", "4"],
    "large-detuning": ["--nbar", "4", "--t-steps", "4"],
    "adiabatic-sweep": ["--ratios", "20,40", "--n-max", "2", "--dim", "10"],
    "qfunc": ["--nbar", "4", "--grid-points", "11"],
}


@pytest.mark.parametrize(
    "module, attr", sorted({(module, attr) for module, attr, _, _ in FUNCTION_SPANS})
)
def test_function_span_target_is_bound(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize("method", [method for method, _, _ in METHOD_SPANS])
def test_method_span_target_is_defined(method):
    assert method in HermitianPropagator.__dict__


def test_traced_run_of_every_scenario(tmp_path):
    modules = {"quasicat.cli": cli, "quasicat.dynamics": dynamics}

    def bound():
        names = [getattr(modules[m], attr) for m, attr, _, _ in FUNCTION_SPANS]
        methods = [HermitianPropagator.__dict__[attr] for attr, _, _ in METHOD_SPANS]
        return names, methods, dict(cli.SCENARIOS)

    originals = bound()
    tracer = Tracer()
    root = tracer.wrap("cli.main", cli.main)
    with tracer.installed(modules):
        for scenario, argv in SMALL_RUNS.items():
            assert root([scenario, *argv, "--out", str(tmp_path / scenario)]) == 0
    assert bound() == originals
    # the counters run inside the wrappers, so a field they read that has
    # gone would already have raised above
    metrics = layer_metrics(tracer.spans)
    assert sorted(SMALL_RUNS) == sorted(SCENARIO_NAMES)
    for scenario in SCENARIO_NAMES:
        assert metrics[f"cli.run.{scenario}.calls"] == 1
    assert metrics["cli.main.calls"] == len(SMALL_RUNS)
