"""Spans around calls into quasicat's public functions, recorded from outside.

The package binds names across modules with ``from .x import y``, so a
wrapper has to replace each name where the caller looks it up: the names
``quasicat.cli`` imported, the two names ``quasicat.dynamics`` calls from
``quasicat.fock``, the methods of ``HermitianPropagator`` and the entries of
``quasicat.cli.SCENARIOS``. Spans stay in memory until the run ends.

A span's self time is its duration minus the time of its child spans.
``cli.self`` is the self time of the scenario spans (``cli.run.<scenario>``):
work done inline in ``quasicat/cli.py`` rather than in a traced function.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import defaultdict

SCENARIO_NAMES = (
    "validate",
    "zero-detuning",
    "large-detuning",
    "adiabatic-sweep",
    "qfunc",
)


def _rotation_dims(args, kwargs, result):
    return {"dims": (int(args[1]), int(args[2]))}


def _amp_updates(args, kwargs, result):
    return {"amp_updates": int(result.tensor.size)}


def _propagator_dim(args, kwargs, result):
    return {"dim": int(args[0].dim)}


def _husimi_work(args, kwargs, result):
    d = int(args[0].matrix.shape[0])
    points = int(result.values.size)
    return {"points": points, "computed_ops": points * d * d}


def _emit_bytes(args, kwargs, result):
    out_dir = args[1]
    return {
        "bytes": sum(
            os.path.getsize(os.path.join(out_dir, name)) for name in os.listdir(out_dir)
        )
    }


def _zero_detuning_dim2(args, kwargs, result):
    return {"dim2": int(result.summary["dim2"])}


# (module, attribute the caller looks up, span name, counter)
FUNCTION_SPANS = (
    ("quasicat.cli", "resolve_config", "cli.resolve_config", None),
    ("quasicat.cli", "emit", "cli.emit", _emit_bytes),
    ("quasicat.cli", "coherent_state", "fock.coherent_state", None),
    ("quasicat.dynamics", "coherent_state", "fock.coherent_state", None),
    ("quasicat.dynamics", "expm_antihermitian", "fock.expm_antihermitian", None),
    ("quasicat.cli", "mode_rotation_unitary", "modes.mode_rotation_unitary", _rotation_dims),
    ("quasicat.cli", "squeeze_identity_residual", "modes.squeeze_identity_residual", None),
    ("quasicat.cli", "build_hamiltonian", "dynamics.build_hamiltonian", None),
    ("quasicat.cli", "evolve_exact_jc", "dynamics.evolve_exact_jc", _amp_updates),
    ("quasicat.cli", "evolve_effective", "dynamics.evolve_effective", None),
    ("quasicat.cli", "measure_atom", "dynamics.measure_atom", None),
    ("quasicat.cli", "adiabatic_residual", "dynamics.adiabatic_residual", None),
    (
        "quasicat.cli",
        "elimination_operator_residuals",
        "dynamics.elimination_operator_residuals",
        None,
    ),
    ("quasicat.cli", "cat_target", "dynamics.cat_target", None),
    ("quasicat.cli", "husimi_q", "analysis.husimi_q", _husimi_work),
)

METHOD_SPANS = (
    ("__init__", "dynamics.HermitianPropagator.init", _propagator_dim),
    ("evolve", "dynamics.HermitianPropagator.evolve", None),
)

ROOT = "cli.main"

SPAN_NAMES = tuple(
    dict.fromkeys(
        [ROOT]
        + [name for _, _, name, _ in FUNCTION_SPANS]
        + [name for _, name, _ in METHOD_SPANS]
        + [f"cli.run.{s}" for s in SCENARIO_NAMES]
    )
)

# extra per-layer counters: name -> unit
COUNTERS = {
    "cli.self.s": "s",
    "cli.self.share": "ratio",
    "cli.run.coverage": "ratio",
    "cli.emit.bytes": "bytes",
    "modes.mode_rotation_unitary.repeat_dims_share": "ratio",
    "modes.mode_rotation_unitary.dense_bytes_computed": "bytes",
    "dynamics.evolve_exact_jc.amp_updates": "count",
    "dynamics.HermitianPropagator.init.dim_max": "count",
    "analysis.husimi_q.points": "count",
    "analysis.husimi_q.computed_ops": "ops",
    "cli.run.zero-detuning.dim2_gt1_share": "ratio",
}


class Tracer:
    """Records spans as [name, parent index, invocation id, start, end,
    counters] in the order they start. Single-threaded by design: the
    benchmark loop makes one call at a time."""

    def __init__(self):
        self.spans = []
        self._invocations = 0
        self._stack = []

    def wrap(self, name, fn, count=None):
        """fn recording a span per call; a call with no open span starts a
        new invocation. The counter runs after the span closes, so its small
        cost lands in the parent's self time."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._stack:
                parent = tracer._stack[-1]
                invocation = tracer.spans[parent][2]
            else:
                parent = None
                invocation = tracer._invocations
                tracer._invocations += 1
            record = [name, parent, invocation, 0.0, 0.0, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                tracer._stack.pop()
            if count is not None:
                record[5] = count(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, package_modules):
        """Patch the call sites in ``package_modules`` (name -> module) for
        the duration of the block, then restore every original."""
        cli = package_modules["quasicat.cli"]
        propagator = package_modules["quasicat.dynamics"].HermitianPropagator
        scenarios = dict(cli.SCENARIOS)
        undo = []
        try:
            for module_name, attr, span, count in FUNCTION_SPANS:
                module = package_modules[module_name]
                undo.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.wrap(span, getattr(module, attr), count))
            for attr, span, count in METHOD_SPANS:
                undo.append((propagator, attr, propagator.__dict__[attr]))
                setattr(propagator, attr, self.wrap(span, propagator.__dict__[attr], count))
            for scenario, fn in scenarios.items():
                count = _zero_detuning_dim2 if scenario == "zero-detuning" else None
                cli.SCENARIOS[scenario] = self.wrap(f"cli.run.{scenario}", fn, count)
            yield self
        finally:
            for target, attr, original in reversed(undo):
                setattr(target, attr, original)
            cli.SCENARIOS.update(scenarios)

    def dump(self):
        """Spans as plain dicts, for the result file."""
        return [
            {"name": n, "parent": p, "invocation": inv, "start": s, "end": e,
             "counters": c}
            for n, p, inv, s, e, c in self.spans
        ]


def layer_metrics(spans) -> dict:
    """Per-layer figures from recorded spans: for every name in SPAN_NAMES
    its summed self time (.s), call count (.calls) and share of the summed
    root-span time (.share), plus the COUNTERS."""
    child_time = defaultdict(float)
    for name, parent, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    self_s = defaultdict(float)
    calls = defaultdict(int)
    total = 0.0
    scenario_total = 0.0
    for k, (name, parent, _, start, end, _) in enumerate(spans):
        self_s[name] += (end - start) - child_time[k]
        calls[name] += 1
        if parent is None:
            total += end - start
        if name.startswith("cli.run."):
            scenario_total += end - start
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.s"] = self_s[name]
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.share"] = self_s[name] / total if total else 0.0

    cli_self = sum(self_s[f"cli.run.{s}"] for s in SCENARIO_NAMES)
    metrics["cli.self.s"] = cli_self
    metrics["cli.self.share"] = cli_self / total if total else 0.0
    metrics["cli.run.coverage"] = 1.0 - cli_self / scenario_total if scenario_total else 0.0

    counters = defaultdict(list)
    for name, _, _, _, _, c in spans:
        if c:
            counters[name].append(c)
    metrics["cli.emit.bytes"] = sum(c["bytes"] for c in counters["cli.emit"])
    seen = set()
    repeats = 0
    rotations = counters["modes.mode_rotation_unitary"]
    for c in rotations:
        repeats += c["dims"] in seen
        seen.add(c["dims"])
    metrics["modes.mode_rotation_unitary.repeat_dims_share"] = (
        repeats / len(rotations) if rotations else 0.0
    )
    # computed from the dims, not measured: one dense (d1 d2)^2 complex matrix
    metrics["modes.mode_rotation_unitary.dense_bytes_computed"] = max(
        (16 * (c["dims"][0] * c["dims"][1]) ** 2 for c in rotations), default=0
    )
    metrics["dynamics.evolve_exact_jc.amp_updates"] = sum(
        c["amp_updates"] for c in counters["dynamics.evolve_exact_jc"]
    )
    metrics["dynamics.HermitianPropagator.init.dim_max"] = max(
        (c["dim"] for c in counters["dynamics.HermitianPropagator.init"]), default=0
    )
    husimi = counters["analysis.husimi_q"]
    metrics["analysis.husimi_q.points"] = sum(c["points"] for c in husimi)
    metrics["analysis.husimi_q.computed_ops"] = sum(c["computed_ops"] for c in husimi)
    zero = counters["cli.run.zero-detuning"]
    metrics["cli.run.zero-detuning.dim2_gt1_share"] = (
        sum(c["dim2"] > 1 for c in zero) / len(zero) if zero else 0.0
    )
    return metrics


def metric_unit(name: str) -> str:
    if name in COUNTERS:
        return COUNTERS[name]
    suffix = name.rsplit(".", 1)[1]
    return {"s": "s", "calls": "count", "share": "ratio"}[suffix]
