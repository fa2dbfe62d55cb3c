"""xpgraphs benchmark: four seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload spectrum-scan --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload in turn

Each workload runs in fresh worker processes (``worker.py``), one at a time,
with BLAS pinned to one thread.  ``--trace 0`` measures the end-to-end
metrics with tracing off: FULL_PROCESSES full processes, each timing its
first pass and then steady passes for its share of ``--seconds``, and
SETUP_PROBES processes that only set up.  Times are medians scaled to the
nominal host speed measured by ``worker.speed_kernel``.  ``--trace 1`` runs
one untraced and one traced process and reports the per-layer metrics plus
the tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The package is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".bench_out"

#: the workloads of workloads.BUILDERS, in run order
WORKLOADS = ("spectrum-scan", "trace-kdep", "trace-orbits", "cli-jobs")

#: (name, unit) of the end-to-end metrics, reported with --trace 0
END_TO_END = (
    ("pass_s", "s"),
    ("first_pass_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of the per-layer metrics, reported with --trace 1
PER_LAYER = (
    ("spectra.find_spectrum_calls", "count"),
    ("spectra.find_spectrum_s", "s"),
    ("spectra.find_spectrum_self_s", "s"),
    ("spectra.u_matrix_calls", "count"),
    ("spectra.u_matrix_s", "s"),
    ("spectra.eigvals_calls", "count"),
    ("spectra.det_calls", "count"),
    ("spectra.linalg_s", "s"),
    ("spectra.bytes_computed", "B"),
    ("spectra.matrix_evals", "count"),
    ("spectra.roots", "count"),
    ("spectra.evals_per_root", "ratio"),
    ("spectra.find_negative_eigenvalues_calls", "count"),
    ("spectra.find_negative_eigenvalues_s", "s"),
    ("spectra.secular_calls", "count"),
    ("spectra.zero_mode_test_calls", "count"),
    ("spectra.zero_mode_test_s", "s"),
    ("extensions.s_matrix_bk2_calls", "count"),
    ("extensions.s_matrix_bk2_s", "s"),
    ("extensions.s_matrix_bk2_derivative_calls", "count"),
    ("extensions.s_matrix_bk2_derivative_s", "s"),
    ("extensions.decompose_calls", "count"),
    ("extensions.decompose_s", "s"),
    ("extensions.validate_extension_calls", "count"),
    ("extensions.validate_extension_s", "s"),
    ("graph.enumerate_orbits_calls", "count"),
    ("graph.enumerate_orbits_s", "s"),
    ("graph.orbits_enumerated", "count"),
    ("graph.orbit_amplitude_calls", "count"),
    ("graph.orbit_amplitude_s", "s"),
    ("graph.orbit_useful_ratio", "ratio"),
    ("traces.trace_rhs_calls", "count"),
    ("traces.trace_rhs_s", "s"),
    ("traces.trace_rhs_self_s", "s"),
    ("traces.trace_lhs_s", "s"),
    ("traces.quad_calls", "count"),
    ("traces.quad_s", "s"),
    ("traces.n_orbits", "count"),
    ("traces.scipy_import_s", "s"),
    ("halfline.fermi_amplitude_closed_calls", "count"),
    ("halfline.fermi_amplitude_closed_s", "s"),
    ("halfline.zeta_critical_calls", "count"),
    ("halfline.zeta_critical_s", "s"),
    ("cli.main_calls", "count"),
    ("cli.main_s", "s"),
    ("cli.main_self_s", "s"),
    ("cli.parse_s", "s"),
    ("cli.artifact_bytes", "B"),
    ("bench.untraced_pass_s", "s"),
    ("bench.traced_pass_s", "s"),
    ("bench.trace_overhead_s", "s"),
)

#: full processes per untraced run, and set-up-only processes beside them
FULL_PROCESSES = 5
SETUP_PROBES = 3
#: every worker of one workload ends within this many seconds, or is stopped
RUN_DEADLINE_S = 170

#: duration of worker.speed_kernel on the nominal machine; times are reported
#: at this speed
KERNEL_NOMINAL_S = 0.1

#: BLAS pinned to one thread in every worker
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """A worker could not produce a result."""


def _worker(workload: str, seed: int, size: str, out: Path, deadline: float,
            budget: float = 0.0, trace: int = 0, setup_only: bool = False) -> dict:
    """Run one worker process to completion and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{workload} ran past its {RUN_DEADLINE_S} s deadline")
    env = dict(os.environ, **PINNED_ENV)
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--size", size, "--out", str(out), "--budget", repr(budget),
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.time())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} ran past its {RUN_DEADLINE_S} s deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _speed(workers) -> tuple[float, list]:
    """Nominal over median speed-kernel time, across every worker of a run."""
    kernel = [t for w in workers for t in w["kernel_s"]]
    return KERNEL_NOMINAL_S / statistics.median(kernel), kernel


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_untraced(workload: str, seed: int, seconds: float, size: str, out: Path,
                 deadline: float) -> dict:
    """End-to-end metrics from FULL_PROCESSES full runs and SETUP_PROBES probes."""
    args = (workload, seed, size, out, deadline)
    _worker(*args, setup_only=True)  # warms caches, not counted
    fulls = [_worker(*args, budget=seconds / FULL_PROCESSES) for _ in range(FULL_PROCESSES)]
    probes = [_worker(*args, setup_only=True) for _ in range(SETUP_PROBES)]
    setups = [p["setup_s"] for p in fulls + probes]

    steady = [t for f in fulls for t in f["pass_s"]]
    attempted = sum(f["attempted"] for f in fulls)
    failed = sum(f["failed"] for f in fulls)
    counts = [f["counts"] for f in fulls]
    same_counts = all(c == counts[0] for c in counts) and all(f["counts_repeat"] for f in fulls)
    speed, kernel = _speed(fulls + probes)
    wall = {
        "pass_s": statistics.median(steady),
        "first_pass_s": statistics.median(f["first_pass_s"] for f in fulls),
        "setup_s": statistics.median(setups),
    }
    metrics = {name: value * speed for name, value in wall.items()}
    metrics["peak_rss_mb"] = statistics.median(f["peak_rss_mb"] for f in fulls)
    messages = sorted({m for f in fulls for m in f["messages"]})
    if not same_counts:
        messages.append("deterministic counts differ between processes")
    print(f"== {workload} (seed {seed}, size {size}, tracing off)")
    print(f"machine: {json.dumps(fulls[0]['machine'], sort_keys=True)}")
    for name, unit in END_TO_END:
        print(f"  {name:<16} {_fmt(metrics[name]):>12} {unit}")
    print(f"  {'failed_ops_frac':<16} {_fmt(failed / attempted):>12} ratio "
          f"({failed} failed / {attempted} attempted)")
    print(f"  wall clock before scaling: pass {wall['pass_s']:.4f} s, first pass "
          f"{wall['first_pass_s']:.4f} s, set-up {wall['setup_s']:.4f} s; speed kernel "
          f"median {KERNEL_NOMINAL_S / speed:.4f} s of {len(kernel)} samples "
          f"(range {min(kernel):.4f}-{max(kernel):.4f}, nominal {KERNEL_NOMINAL_S} s)")
    print(f"  wall pass times: {len(steady)} steady samples from {len(fulls)} processes: "
          + " ".join(f"{t:.4f}" for t in steady))
    print("  wall first passes: " + " ".join(f"{f['first_pass_s']:.4f}" for f in fulls)
          + f"; set-ups ({len(setups)}): " + " ".join(f"{t:.4f}" for t in setups))
    print(f"  deterministic counts (identical in every pass and process: {same_counts}): "
          f"{json.dumps(counts[0], sort_keys=True)}")
    for msg in messages:
        print(f"  failure: {msg}")
    correct = same_counts and all(f["unexpected_failures"] == 0 for f in fulls)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in END_TO_END}}


def run_traced(workload: str, seed: int, seconds: float, size: str, out: Path,
               deadline: float) -> dict:
    """Per-layer metrics from one traced process, overhead against an untraced one."""
    args = (workload, seed, size, out, deadline)
    _worker(*args, setup_only=True)  # warms caches, not counted
    plain = _worker(*args, budget=seconds / 2)
    traced = _worker(*args, budget=seconds / 2, trace=1)
    speed, _ = _speed([plain, traced])
    layers = dict(traced["layers"])
    layers["bench.untraced_pass_s"] = statistics.median(plain["pass_s"]) * speed
    layers["bench.traced_pass_s"] = statistics.median(traced["pass_s"]) * speed
    layers["bench.trace_overhead_s"] = layers["bench.traced_pass_s"] \
        - layers["bench.untraced_pass_s"]
    print(f"== {workload} (seed {seed}, size {size}, traced; values are one steady "
          f"pass plus set-up)")
    print(f"machine: {json.dumps(traced['machine'], sort_keys=True)}")
    for name, unit in PER_LAYER:
        print(f"  {name:<42} {_fmt(layers[name]):>14} {unit}")
    messages = sorted(set(plain["messages"]) | set(traced["messages"]))
    for msg in messages:
        print(f"  failure: {msg}")
    same_counts = plain["counts"] == traced["counts"] and plain["counts_repeat"] \
        and traced["counts_repeat"]
    correct = same_counts and plain["unexpected_failures"] == 0 \
        and traced["unexpected_failures"] == 0
    return {"correct": correct,
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "metrics": {name: {"value": layers[name], "unit": unit}
                        for name, unit in PER_LAYER}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="xpgraphs benchmark")
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="seconds of passes measured per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every workload, for the smoke test")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "xpgraphs" / "__init__.py").is_file():
        print(f"no xpgraphs package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    run = run_traced if args.trace else run_untraced
    results = {}
    for name in names:
        out = OUT / f"{name}-seed{args.seed}-{os.getpid()}"
        try:
            results[name] = run(name, args.seed, args.seconds, args.size, out,
                                time.monotonic() + RUN_DEADLINE_S)
        except BenchError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(out, ignore_errors=True)

    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
