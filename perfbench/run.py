"""Scenario benchmark for quasicat: whole CLI invocations, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload identity-checks --seed 1 --seconds 30 --trace 0

A single-threaded closed loop drives ``quasicat.cli.main`` in-process: each
invocation starts after the previous one has returned and its outputs have
been checked. The workload seed generates every invocation's parameters
(see ``workloads.py``). ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` reports per-layer metrics from spans recorded around calls
into the package's public functions (see ``spans.py``), plus the two
fixed-size kernel cases, import costs and the Tier-1 suite's wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller result file
(environment, sample counts, per-invocation times, failures) goes to
``.perfbench_out/results/``; a traced run also writes its spans there.
"""

from __future__ import annotations

import os

# One BLAS thread: the loop is single-threaded, and a shared machine makes
# multi-threaded BLAS timings noisy. Must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from checks import CheckFailed, check_outputs, clear_outputs  # noqa: E402
from spans import Tracer, layer_metrics, metric_unit  # noqa: E402
from workloads import WORKLOADS, stream  # noqa: E402

SRC = os.path.abspath("src")
OUT_ROOT = os.path.abspath(".perfbench_out")
CHILD_TIMEOUT_S = 60
TIER1_TIMEOUT_S = 100
SLICES = 5
SETUP_PER_SLICE = 2
KERNEL_REPEATS = 3
IMPORT_REPEATS = 3

END_TO_END_UNITS = {
    "run_s_p50": "s",
    "run_s_p90": "s",
    "throughput_runs_per_s": "1/s",
    "cold_run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

# per-layer figures a traced run adds to the span metrics of spans.py
TRACED_EXTRAS = {
    "trace.traced_run_s_p50": "s",
    "trace.untraced_run_s_p50": "s",
    "trace.overhead_s": "s",
    "kernel.jc_dim256_batch64_steps200.s": "s",
    "kernel.husimi_grid161_d64.s": "s",
    "import.quasicat_cli.s": "s",
    "import.scipy_sparse.s": "s",
    "tier1.wall_s": "s",
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_child(argv, timeout=CHILD_TIMEOUT_S):
    """Run a fresh interpreter to completion; return (wall seconds, process)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable] + argv,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return time.perf_counter() - t0, proc


# -- environment -------------------------------------------------------------


def blas_threads():
    """(thread count, how it was read) for the OpenBLAS numpy loaded."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)()), symbol
    return int(os.environ["OPENBLAS_NUM_THREADS"]), "OPENBLAS_NUM_THREADS"


def git_sha():
    if not os.path.isdir(".git"):
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or None


def source_sha256():
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "quasicat", "*.py"))):
        with open(path, "rb") as handle:
            digest.update(os.path.basename(path).encode() + b"\0" + handle.read())
    return digest.hexdigest()


def environment(workload, seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, threads_from = blas_threads()
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "blas_threads_read_from": threads_from,
        "nproc": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "platform": platform.platform(),
    }


# -- invocations -------------------------------------------------------------


class Loop:
    """Closed loop over a workload's invocation stream, in this process."""

    def __init__(self, cli_main, out_dir):
        self.cli_main = cli_main
        self.out_dir = out_dir
        self.failures = []
        self.timeline = []
        self._sink = io.StringIO()

    def invoke(self, inv, call=None):
        """Run and check one invocation; return (seconds, passed)."""
        call = call or self.cli_main
        clear_outputs(self.out_dir)
        argv = list(inv.argv) + ["--out", self.out_dir]
        self._sink.seek(0)
        self._sink.truncate()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(self._sink), contextlib.redirect_stderr(
                self._sink
            ):
                rc = call(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed invocation, not a stop
            rc, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        self.timeline.append((inv.scenario, elapsed))
        if error is None and rc != 0:
            error = f"exit code {rc}: {self._sink.getvalue().strip()[-300:]}"
        if error is None:
            try:
                check_outputs(inv.scenario, inv.rows, self.out_dir)
            except CheckFailed as exc:
                error = f"check: {exc}"
        if error is not None:
            self.failures.append({"argv": list(inv.argv), "error": error})
        return elapsed, error is None

    def run_for(self, invocations, seconds, call=None):
        """Invoke until `seconds` have passed; return (times, passed, window)."""
        times = []
        passed = 0
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            elapsed, ok = self.invoke(next(invocations), call)
            times.append(elapsed)
            passed += ok
        return times, passed, time.perf_counter() - start


def percentiles(times):
    p50, p90 = np.percentile(np.asarray(times), [50, 90])
    return float(p50), float(p90)


def measure_setup():
    """Seconds to import quasicat.cli, timed inside a fresh interpreter."""
    code = (
        "import time; t0 = time.perf_counter(); import quasicat.cli; "
        "print(repr(time.perf_counter() - t0))"
    )
    _, proc = run_child(["-c", code])
    if proc.returncode != 0:
        raise RuntimeError(f"import quasicat.cli failed: {proc.stderr[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def measure_cold(inv, out_dir):
    """Wall time of a fresh `python -m quasicat.cli` process running one
    invocation, and its failure record (None when the outputs check out)."""
    clear_outputs(out_dir)
    wall, proc = run_child(["-m", "quasicat.cli"] + list(inv.argv) + ["--out", out_dir])
    try:
        if proc.returncode != 0:
            raise CheckFailed(f"exit code {proc.returncode}: {proc.stderr[-300:]}")
        check_outputs(inv.scenario, inv.rows, out_dir)
    except CheckFailed as exc:
        return wall, {"argv": list(inv.argv), "error": f"cold: {exc}"}
    return wall, None


def end_to_end(cli, workload, seed, seconds, out_dir):
    """The timed window is cut into SLICES; fresh-process measurements run
    between slices, outside the window, so that they sample the machine's
    state across the whole run rather than in one burst."""
    first = next(stream(workload, seed))
    invocations = stream(workload, seed)
    loop = Loop(cli.main, out_dir)
    setup_values, cold_values, cold_failures = [], [], []
    times, passed, window = [], 0, 0.0
    for _ in range(SLICES):
        setup_values += [measure_setup() for _ in range(SETUP_PER_SLICE)]
        wall, failure = measure_cold(first, out_dir)
        cold_values.append(wall)
        cold_failures += [failure] if failure else []
        slice_times, slice_passed, slice_window = loop.run_for(
            invocations, seconds / SLICES
        )
        times += slice_times
        passed += slice_passed
        window += slice_window

    p50, p90 = percentiles(times)
    attempted = len(times) + SLICES
    failed = len(loop.failures) + len(cold_failures)
    metrics = {
        "run_s_p50": p50,
        "run_s_p90": p90,
        "throughput_runs_per_s": passed / window,
        "cold_run_s": statistics.median(cold_values),
        "setup_s": statistics.median(setup_values),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": (attempted - failed) / attempted,
    }
    details = {
        "samples": len(times),
        "samples_beyond_p90": int(sum(t > p90 for t in times)),
        "window_s": window,
        "setup_s_values": setup_values,
        "cold_run_s_values": cold_values,
        "cold_invocation": list(first.argv),
        "error_rate": failed / attempted,
        "scenario_counts": scenario_counts(loop.timeline),
        "failures": cold_failures + loop.failures,
        "timeline": loop.timeline,
    }
    return metrics, attempted, failed, details


def scenario_counts(timeline):
    counts = {}
    for scenario, _ in timeline:
        counts[scenario] = counts.get(scenario, 0) + 1
    return counts


# -- traced run --------------------------------------------------------------


def kernel_entries():
    """The two fixed-size kernel cases, through the public functions:
    JC propagation (dim 256, batch 64, 200 steps) and a Husimi grid
    (161 x 161 points, d = 64). Median seconds of KERNEL_REPEATS each."""
    from quasicat.analysis import DensityMatrix, husimi_q
    from quasicat.dynamics import SystemState, evolve_exact_jc

    rng = np.random.default_rng(0)
    psi = rng.normal(size=(256, 64, 2)) + 1j * rng.normal(size=(256, 64, 2))
    state = SystemState(psi / np.linalg.norm(psi), "quasi")

    def jc():
        cur = state
        for _ in range(200):
            cur = evolve_exact_jc(cur, 0.01, 1.0, 0.7)

    rng = np.random.default_rng(1)
    vec = rng.normal(size=64) + 1j * rng.normal(size=64)
    vec /= np.linalg.norm(vec)
    rho = DensityMatrix(np.outer(vec, vec.conj()), (64,), "mode1")

    def husimi():
        husimi_q(rho, count=161)

    out = {}
    for name, fn in (
        ("kernel.jc_dim256_batch64_steps200.s", jc),
        ("kernel.husimi_grid161_d64.s", husimi),
    ):
        samples = []
        for _ in range(KERNEL_REPEATS):
            t0 = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t0)
        out[name] = statistics.median(samples)
    return out


def import_costs():
    """Fresh-interpreter import of quasicat.cli, and of the scipy.sparse
    modules that squeeze_identity_residual imports on first use."""
    code = (
        "import time; t0 = time.perf_counter(); import quasicat.cli; "
        "t1 = time.perf_counter(); import scipy.sparse, scipy.sparse.linalg; "
        "print(repr(t1 - t0), repr(time.perf_counter() - t1))"
    )
    pairs = []
    for _ in range(IMPORT_REPEATS):
        _, proc = run_child(["-c", code])
        if proc.returncode != 0:
            raise RuntimeError(f"import failed: {proc.stderr[-500:]}")
        pairs.append([float(x) for x in proc.stdout.split()])
    return {
        "import.quasicat_cli.s": statistics.median(p[0] for p in pairs),
        "import.scipy_sparse.s": statistics.median(p[1] for p in pairs),
    }


def tier1_suite():
    """Wall time of the repository's Tier-1 tests; informational only."""
    wall, proc = run_child(
        [
            "-m", "pytest", "-q", "--continue-on-collection-errors",
            "-p", "no:cacheprovider",
            "--basetemp", os.path.join(OUT_ROOT, "pytest-tmp"),
            "tests",
        ],
        timeout=TIER1_TIMEOUT_S,
    )
    tail = proc.stdout.strip().splitlines()
    return wall, tail[-1] if tail else f"exit code {proc.returncode}"


def per_layer(cli, workload, seed, seconds, out_dir):
    import quasicat.dynamics

    tracer = Tracer()
    loop = Loop(cli.main, out_dir)
    modules = {"quasicat.cli": cli, "quasicat.dynamics": quasicat.dynamics}
    root = tracer.wrap("cli.main", cli.main)
    # each invocation runs twice, traced and untraced, in alternating order,
    # so the overhead is a paired difference that machine drift cancels from
    traced_times, plain_times, differences = [], [], []
    invocations = stream(workload, seed)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        inv = next(invocations)
        for traced in (True, False) if len(differences) % 2 == 0 else (False, True):
            if traced:
                with tracer.installed(modules):
                    traced_times.append(loop.invoke(inv, root)[0])
            else:
                plain_times.append(loop.invoke(inv)[0])
        differences.append(traced_times[-1] - plain_times[-1])

    metrics = layer_metrics(tracer.spans)
    metrics["trace.traced_run_s_p50"] = percentiles(traced_times)[0]
    metrics["trace.untraced_run_s_p50"] = percentiles(plain_times)[0]
    metrics["trace.overhead_s"] = statistics.median(differences)
    metrics.update(kernel_entries())
    metrics.update(import_costs())
    metrics["tier1.wall_s"], tier1_tail = tier1_suite()

    attempted = len(traced_times) + len(plain_times)
    failed = len(loop.failures)
    details = {
        "traced_samples": len(traced_times),
        "untraced_samples": len(plain_times),
        "tier1_result": tier1_tail,
        "scenario_counts": scenario_counts(loop.timeline),
        "top_layers": top_layers(metrics),
        "failures": loop.failures,
    }
    return metrics, attempted, failed, details, tracer


def top_layers(metrics, count=5):
    shares = {
        name[: -len(".share")]: value
        for name, value in metrics.items()
        if name.endswith(".share") and not name.startswith("cli.run.")
    }
    return sorted(shares.items(), key=lambda item: -item[1])[:count]


def unit_of(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name in TRACED_EXTRAS:
        return TRACED_EXTRAS[name]
    return metric_unit(name)


# -- main --------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "quasicat", "cli.py")):
        print("perfbench: run from the repository root (no src/quasicat here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import quasicat.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported quasicat from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    env = environment(args.workload, args.seed)
    if env["blas_threads"] > env["nproc"]:
        print(f"perfbench: {env['blas_threads']} BLAS threads > nproc {env['nproc']}",
              file=sys.stderr)
        return 2

    out_dir = os.path.join(OUT_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        if args.trace:
            metrics, attempted, failed, details, tracer = per_layer(
                cli, args.workload, args.seed, args.seconds, out_dir
            )
        else:
            metrics, attempted, failed, details = end_to_end(
                cli, args.workload, args.seed, args.seconds, out_dir
            )
            tracer = None
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    tagged = {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": tagged,
    }
    results_dir = os.path.join(OUT_ROOT, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as handle:
        json.dump(dict(result, environment=env, details=details), handle, indent=1)
    if tracer is not None:
        with open(stem + "-spans.json", "w") as handle:
            json.dump(tracer.dump(), handle)

    report(args, result, details)
    print(json.dumps(result))
    return 0


def report(args, result, details):
    """Human-readable table ahead of the JSON line."""
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {result['attempted']}  failed {result['failed']}")
    if not args.trace:
        print(f"  {'error_rate':<52}{details['error_rate']:>14.6g} ratio")
        print(f"  samples {details['samples']}, {details['samples_beyond_p90']} beyond p90")
    for name, metric in result["metrics"].items():
        print(f"  {name:<52}{metric['value']:>14.6g} {metric['unit']}")
    if args.trace:
        print("  largest self-time shares: " + ", ".join(
            f"{name} {share:.1%}" for name, share in details["top_layers"]))
        print(f"  tier-1: {details['tier1_result']}")
    for failure in details["failures"][:5]:
        print(f"  FAILED {' '.join(failure['argv'])}: {failure['error']}")


if __name__ == "__main__":
    sys.exit(main())
