"""Output checks that feed the benchmark's failure count.

An invocation fails when the CLI returns a nonzero code or raises, or when
its files break an invariant that holds in every regime the workloads
cover. validate is judged by its summary's all_passed flag, not by its exit
code, because it exits 0 even when a check fails.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

PURITY_MIN = 0.9  # atomic purity at the protocol time, zero-detuning
PROB_SUM_TOL = 1e-9  # |prob_plus + prob_minus - 1|, large-detuning
GRID_INTEGRAL_TOL = 1e-3  # |integral of Q - 1|, qfunc
SHRINK_RANGE = (3.0, 5.0)  # residual ratio per doubling of delta, adiabatic-sweep

OUTPUT_FILES = ("timeseries.csv", "summary.json", "qgrid.csv")


class CheckFailed(Exception):
    """An output broke one of the invariants above."""


def _table(lines, skip_first_cell: bool) -> np.ndarray:
    """Parse CSV body lines into a finite 2-D array."""
    cells = [line.split(",") for line in lines]
    width = len(cells[0]) if cells else 0
    if not cells or any(len(row) != width for row in cells):
        raise CheckFailed("ragged or empty table")
    if skip_first_cell:
        cells[0][0] = "0"
    try:
        values = np.array(cells, dtype=np.float64)
    except ValueError as exc:
        raise CheckFailed(f"non-numeric cell: {exc}") from None
    if not np.all(np.isfinite(values)):
        raise CheckFailed("non-finite value in table")
    return values


def _read_lines(path):
    try:
        with open(path) as handle:
            return handle.read().splitlines()
    except OSError as exc:
        raise CheckFailed(f"missing output {os.path.basename(path)}: {exc}") from None


def _finite_json(obj, where="summary"):
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return
    if isinstance(obj, (int, float)):
        if not math.isfinite(obj):
            raise CheckFailed(f"non-finite value at {where}")
        return
    if isinstance(obj, dict):
        for key, value in obj.items():
            _finite_json(value, f"{where}.{key}")
        return
    if isinstance(obj, list):
        for k, value in enumerate(obj):
            _finite_json(value, f"{where}[{k}]")
        return
    raise CheckFailed(f"unexpected JSON value at {where}")


def check_outputs(scenario: str, rows, out_dir: str):
    """Check one invocation's files.

    rows is the number of timeseries rows the invocation must write, or
    None where the scenario decides it (validate: one row per check).
    Raises CheckFailed on the first broken invariant.
    """
    try:
        _check(scenario, rows, out_dir)
    except (KeyError, TypeError) as exc:
        raise CheckFailed(f"malformed summary: {type(exc).__name__}: {exc}") from None


def _check(scenario, rows, out_dir):
    try:
        with open(os.path.join(out_dir, "summary.json")) as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"unreadable summary.json: {exc}") from None
    _finite_json(payload)
    summary = payload.get("summary")
    if not isinstance(summary, dict) or payload.get("scenario") != scenario:
        raise CheckFailed("summary.json does not describe this scenario")

    lines = _read_lines(os.path.join(out_dir, "timeseries.csv"))
    series = _table(lines[1:], skip_first_cell=False)
    if scenario == "validate":
        rows = len(summary["checks"])
    if series.shape[0] != rows or series.shape[1] != len(lines[0].split(",")):
        raise CheckFailed(f"timeseries has {series.shape[0]} rows, expected {rows}")

    if scenario == "validate":
        if summary["all_passed"] is not True:
            raise CheckFailed(f"validate failed: max residual {summary['max_residual']}")
    elif scenario == "zero-detuning":
        if not summary["atomic_purity_at_protocol"] >= PURITY_MIN:
            raise CheckFailed(
                f"atomic purity {summary['atomic_purity_at_protocol']} < {PURITY_MIN}"
            )
    elif scenario == "large-detuning":
        if not abs(summary["prob_sum"] - 1.0) <= PROB_SUM_TOL:
            raise CheckFailed(f"outcome probabilities sum to {summary['prob_sum']}")
    elif scenario == "qfunc":
        if not abs(summary["grid_integral"] - 1.0) <= GRID_INTEGRAL_TOL:
            raise CheckFailed(f"Q integrates to {summary['grid_integral']}")
        grid = _table(_read_lines(os.path.join(out_dir, "qgrid.csv")), True)
        if grid.shape != (rows + 1, rows + 1):
            raise CheckFailed(f"qgrid shape {grid.shape}, expected {rows}+1 square")
    elif scenario == "adiabatic-sweep":
        factors = summary["shrink_factors"]
        lo, hi = SHRINK_RANGE
        if len(factors) != rows - 1 or not all(lo <= f <= hi for f in factors):
            raise CheckFailed(f"shrink factors {factors} outside [{lo}, {hi}]")
    else:
        raise CheckFailed(f"unknown scenario {scenario!r}")


def clear_outputs(out_dir: str):
    """Remove the previous invocation's files, so a run that writes nothing
    cannot pass on stale outputs."""
    for name in OUTPUT_FILES:
        try:
            os.remove(os.path.join(out_dir, name))
        except FileNotFoundError:
            pass
