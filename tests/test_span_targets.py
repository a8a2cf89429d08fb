"""The benchmark's traced runs wrap quasicat names from outside (see
perfbench/spans.py). A rename in the package breaks that install with an
AttributeError, so the names it looks up are checked here as well."""

import importlib
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")
sys.path.insert(0, os.path.abspath(PERFBENCH))

from spans import FUNCTION_SPANS, METHOD_SPANS  # noqa: E402

from quasicat.dynamics import HermitianPropagator  # noqa: E402


@pytest.mark.parametrize(
    "module, attr", sorted({(module, attr) for module, attr, _, _ in FUNCTION_SPANS})
)
def test_function_span_target_is_bound(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize("method", [method for method, _, _ in METHOD_SPANS])
def test_method_span_target_is_defined(method):
    assert method in HermitianPropagator.__dict__
