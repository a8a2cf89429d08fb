"""The CSV kernel against the per-row writer it replaced, byte for byte, and
the files the scenarios emit through it."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from quasicat.cli import _csv_bytes, main

from oracles import csv_rows

# a cast or ufunc warning inside the kernel (say, an int64 cast of a value
# out of range) fails the test
pytestmark = pytest.mark.filterwarnings("error")

HARD_CASES = [
    0.0,
    5e-324,
    2.2250738585072014e-308,
    1.7976931348623157e308,
    *(10.0**k for k in range(24)),
    2.0**-26,  # the exact tie 1.490116119384765625e-08
    math.nextafter(1e17, 0.0),
    1e17,
    math.nextafter(1e17, math.inf),
    math.nextafter(1e18, 0.0),
    # the double below 10^153, which rounds up to the next decade
    1e153,
    math.nextafter(1.0, 0.0),
    1e100,
    1e-100,
    math.nan,
    math.inf,
]


def _check(table):
    assert _csv_bytes(table) == csv_rows(table)


@settings(max_examples=300, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(0, 12), st.integers(1, 8)),
        elements=st.floats(allow_subnormal=True),
    )
)
def test_kernel_matches_row_writer_on_any_floats(table):
    _check(table)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_kernel_matches_row_writer_on_random_bit_patterns(seed):
    bits = np.random.default_rng(seed).integers(0, 2**64, size=(64, 7), dtype=np.uint64)
    _check(bits.view(np.float64))


@pytest.mark.parametrize("width", [1, 3])
def test_kernel_matches_row_writer_on_hard_cases(width):
    values = np.array(HARD_CASES + [-v for v in HARD_CASES])
    values = np.resize(values, (math.ceil(values.size / width), width))
    _check(values)
    for value in values.ravel():
        _check(np.array([[value]]))


@pytest.mark.parametrize("toward", [-math.inf, math.inf])
def test_kernel_stays_exact_when_log10_is_one_ulp_off(toward, monkeypatch):
    # a log10 one ulp off puts cells near a power of ten in the wrong decade,
    # or lets them round up to the next one; each must go to Python instead
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), toward))
    values = np.array(HARD_CASES + [-v for v in HARD_CASES])
    _check(values[:, None])
    _check(np.random.default_rng(3).lognormal(0.0, 30.0, size=(200, 5)))


def test_kernel_formats_float32_tables_by_their_float64_values():
    table = np.array([[0.1, 1e-30], [3.4e38, -2.5]], dtype=np.float32)
    assert _csv_bytes(table) == csv_rows(table.astype(np.float64))


def test_kernel_on_empty_and_single_cell_tables():
    assert _csv_bytes(np.empty((0, 3))) == b""
    assert _csv_bytes(np.array([[1.5]])) == b"1.50000000000000000e+00\n"
    assert _csv_bytes(np.array([[-0.0]])) == b"-0.00000000000000000e+00\n"


def _parsed(lines):
    """The cells of CSV lines, each checked to be its own %.17e, and their
    values as a 2-D table."""
    cells = [line.split(",") for line in lines]
    assert all(cell == format(float(cell), ".17e") for row in cells for cell in row)
    return np.array(cells, dtype=np.float64).reshape(len(cells), -1)


@pytest.mark.parametrize(
    "argv",
    [
        ["validate"],
        ["zero-detuning", "--nbar", "4", "--t-steps", "30"],
        ["large-detuning", "--t-steps", "30"],
        ["adiabatic-sweep", "--ratios", "20,1e200"],
        ["qfunc", "--nbar", "4", "--grid-points", "21"],
    ],
    ids=lambda argv: argv[0],
)
def test_emitted_csv_cells_are_per_value_format(argv, tmp_path):
    assert main([*argv, "--out", str(tmp_path)]) == 0
    written = (tmp_path / "timeseries.csv").read_bytes()
    header, *lines = written.decode().splitlines()
    assert written == header.encode() + b"\n" + csv_rows(_parsed(lines))
    if argv[0] == "qfunc":
        written = (tmp_path / "qgrid.csv").read_bytes()
        first, *lines = written.decode().splitlines()
        label, _, re_axis = first.partition(",")
        assert label == "im/re"
        expected = b"im/re," + csv_rows(_parsed([re_axis])) + csv_rows(_parsed(lines))
        assert written == expected
