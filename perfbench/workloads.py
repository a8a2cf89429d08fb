"""Seeded invocation streams for the benchmark workloads.

Each workload is an endless stream of CLI invocations built from one seed;
the program only ever sees the generated arguments. The stream repeats one
block, the workload's mix: a fixed Latin-hypercube design that pairs one
stratum of each cost-setting size per invocation. Each block visits the
mix in a new seeded order, draws every size uniformly inside its stratum,
and draws fresh values for everything that does not set the cost
(couplings, times, phases, the CLI's own seed). A run therefore does the
same mix of work under every seed, and the costs fill their range without
gaps, so the run's percentiles do not sit on a jump between two sizes.

The first invocation of every stream sits at mid-range sizes. It is the one
the cold-process measurement runs, so its cost must not depend on the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np


@dataclass(frozen=True)
class Invocation:
    """One CLI call: scenario name, argv without --out, and the number of
    timeseries rows the call must write (None where the scenario decides)."""

    scenario: str
    argv: tuple
    rows: Optional[int]


def _num(x) -> str:
    return repr(float(x))


def _in_stratum(rng, lo, hi, k, n):
    """A uniform draw from the k-th of n equal strata of [lo, hi]."""
    return lo + (hi - lo) * (k + rng.random()) / n


def _cli_seed(rng) -> str:
    return str(int(rng.integers(2**31)))


# identity-checks ----------------------------------------------------------

# validate costs 0.21 / 0.27 / 0.34 s at dims 12 / 13 / 14 on one BLAS thread.
# Below 12 its own coherent-state probes exceed the truncation tolerance;
# at 16 one call takes 0.65 s, which would leave too few invocations in a
# run to read a 90th percentile with ten samples beyond it.
VALIDATE_DIMS = (12, 13, 14)


def _validate(rng, dim: int, trials: int) -> Invocation:
    argv = (
        "validate",
        "--dim", str(dim),
        "--trials", str(trials),
        "--g1", _num(rng.uniform(0.5, 1.5)),
        "--g2", _num(rng.uniform(0.2, 1.5)),
        "--delta", _num(rng.uniform(0.2, 1.5)),
        "--t", _num(rng.uniform(0.5, 4.0)),
        "--seed", _cli_seed(rng),
    )
    return Invocation("validate", argv, None)


def identity_checks(rng) -> Iterator[Invocation]:
    yield _validate(rng, VALIDATE_DIMS[1], 3)
    mix = [(dim, trials) for dim in VALIDATE_DIMS for trials in (2, 3, 4)]
    while True:
        for k in rng.permutation(len(mix)):
            yield _validate(rng, *mix[k])


# resonant-cat -------------------------------------------------------------


def _cat_pair(rng, nbar: float, t_steps: int, grid: int, off_axis: bool):
    """zero-detuning followed by qfunc of the same mean photon number.

    On-axis runs put the whole amplitude on quasi mode I (nu = 0, dim2 = 1);
    off-axis runs give explicit alpha, beta with a spectator amplitude
    |nu| in [1, 2], so quasi mode II carries dim2 > 1.
    """
    g = rng.uniform(0.5, 2.0)
    argv = [
        "zero-detuning",
        "--g1", _num(g),
        "--g2", _num(g),
        "--t-steps", str(t_steps),
        "--seed", _cli_seed(rng),
    ]
    if off_axis:
        # g1 = g2 puts the rotation at 45 degrees; rotate (mu, nu) back
        mu = math.sqrt(nbar) * complex(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
        nu = rng.uniform(1.0, 2.0) * complex(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
        alpha = (mu - nu) / math.sqrt(2.0)
        beta = (mu + nu) / math.sqrt(2.0)
        argv += [
            "--alpha-re", _num(alpha.real),
            "--alpha-im", _num(alpha.imag),
            "--beta-re", _num(beta.real),
            "--beta-im", _num(beta.imag),
        ]
    else:
        argv += ["--nbar", _num(nbar)]
    yield Invocation("zero-detuning", tuple(argv), t_steps)
    qfunc = (
        "qfunc",
        "--nbar", _num(nbar),
        "--grid-points", str(grid),
        "--convention", str(int(rng.choice([-1, 1]))),
        "--seed", _cli_seed(rng),
    )
    yield Invocation("qfunc", qfunc, grid)


# strata of (nbar 16-100, t_steps 240-1000, grid points 101-201) out of 8
# each, and whether the run is off axis
RESONANT_MIX = (
    (0, 3, 5, False),
    (1, 6, 2, True),
    (2, 1, 7, True),
    (3, 4, 0, False),
    (4, 7, 3, False),
    (5, 0, 6, True),
    (6, 5, 1, True),
    (7, 2, 4, False),
)


def resonant_cat(rng) -> Iterator[Invocation]:
    yield from _cat_pair(rng, 58.0, 620, 151, False)
    n = len(RESONANT_MIX)
    while True:
        for k in rng.permutation(n):
            nbar, t_steps, grid, off_axis = RESONANT_MIX[k]
            yield from _cat_pair(
                rng,
                _in_stratum(rng, 16.0, 100.0, nbar, n),
                int(_in_stratum(rng, 240, 1001, t_steps, n)),
                int(_in_stratum(rng, 101, 202, grid, n)),
                off_axis,
            )


# dispersive-cat -----------------------------------------------------------


def _large_detuning(rng, nbar: float, t_steps: int) -> Invocation:
    # delta >= 10 g sqrt(nbar + 1) keeps the dispersive model well inside
    # its validity range for every photon number that matters
    ratio = rng.uniform(10.0, 20.0) * math.sqrt(nbar + 1.0)
    argv = (
        "large-detuning",
        "--nbar", _num(nbar),
        "--ratio", _num(ratio),
        "--g", _num(rng.uniform(0.5, 2.0)),
        "--t-steps", str(t_steps),
        "--basis", str(rng.choice(["plusminus", "energy"])),
        "--seed", _cli_seed(rng),
    )
    return Invocation("large-detuning", argv, t_steps)


def _adiabatic_sweep(rng, dim: int) -> Invocation:
    r0 = rng.uniform(20.0, 40.0)
    ratios = ",".join(_num(r0 * 2.0**k) for k in range(4))
    argv = (
        "adiabatic-sweep",
        "--dim", str(dim),
        "--n-max", str(int(rng.integers(6, 13))),
        "--g", _num(rng.uniform(0.5, 2.0)),
        "--ratios", ratios,
        "--seed", _cli_seed(rng),
    )
    return Invocation("adiabatic-sweep", argv, 4)


# strata of large-detuning (nbar 4-36, t_steps 150-400) and of
# adiabatic-sweep dims 40-80, out of 4 each
LARGE_DETUNING_MIX = ((0, 2), (1, 0), (2, 3), (3, 1))
SWEEP_MIX = (0, 1, 2, 3)


def dispersive_cat(rng) -> Iterator[Invocation]:
    yield _large_detuning(rng, 20.0, 275)
    n = len(SWEEP_MIX)
    mix = [("large-detuning", point) for point in LARGE_DETUNING_MIX]
    mix += [("adiabatic-sweep", point) for point in SWEEP_MIX]
    while True:
        for k in rng.permutation(len(mix)):
            scenario, point = mix[k]
            if scenario == "large-detuning":
                nbar, t_steps = point
                yield _large_detuning(
                    rng,
                    _in_stratum(rng, 4.0, 36.0, nbar, n),
                    int(_in_stratum(rng, 150, 401, t_steps, n)),
                )
            else:
                yield _adiabatic_sweep(rng, int(_in_stratum(rng, 40, 81, point, n)))


WORKLOADS = {
    "identity-checks": identity_checks,
    "resonant-cat": resonant_cat,
    "dispersive-cat": dispersive_cat,
}


def stream(workload: str, seed: int) -> Iterator[Invocation]:
    """The invocation stream of a workload; equal seeds give equal streams."""
    return WORKLOADS[workload](np.random.default_rng(seed))
