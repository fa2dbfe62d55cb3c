"""One measured process of a workload: set up, time passes, then check outputs.

``run.py`` starts this file in a fresh interpreter for every sample it needs:

    python worker.py --workload NAME --seed N --size full|tiny --out DIR
                     --spawned-at EPOCH_S --budget S --trace 0|1 [--setup-only]

``setup_s`` runs from ``--spawned-at`` (the parent's clock just before it
started this process) until the workload's inputs are built.  The first pass
is timed alone; steady passes follow while the next one is expected to end
within half a pass of ``--budget`` seconds, with at least ``MIN_STEADY`` of
them.  ``speed_kernel`` runs after set-up and after every pass; run.py
scales the times by those kernel timings.  Correctness checks, reference
computations and span aggregation run after the timed region.  The last line
of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MIN_STEADY = 1
MAX_STEADY = 40
#: distinct failure messages kept in the result
MAX_MESSAGES = 20


def _blas_record(np) -> dict:
    """BLAS vendor, version and thread count of the numpy in use."""
    record = {"vendor": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["vendor"], record["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError, AttributeError):
        pass
    maps = Path("/proc/self/maps")
    libs = set()
    if maps.exists():
        for line in maps.read_text().splitlines():
            path = line.split()[-1]
            if "openblas" in path.lower() and ".so" in path:
                libs.add(path)
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                getter = getattr(handle, fn)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                record["threads"] = int(getter())
                return record
    return record


def machine_record(np) -> dict:
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": _blas_record(np),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def speed_kernel(np, eigvals) -> float:
    """Seconds taken by a fixed mix of small LAPACK calls and interpreted Python.

    On a shared host the speed of the same work swings by up to 2x within a
    minute.  Sampled between the passes of a run, this kernel measures the
    host's speed during the run.  ``eigvals`` is numpy's own function, never
    a tracing wrapper.
    """
    a = np.arange(64.0).reshape(8, 8) % 7.0 + 1j * (np.arange(64.0).reshape(8, 8) % 5.0)
    phase = np.exp(1j * np.linspace(0.0, 1.0, 8))
    t0 = time.perf_counter()
    total = 0.0
    for i in range(1200):
        total += float(np.abs(eigvals(a * phase ** i)).sum())
    total += sum(i * i for i in range(90000))
    return time.perf_counter() - t0


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", default="full")
    p.add_argument("--out", required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--budget", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import xpgraphs
    package = (ROOT / "src" / "xpgraphs").resolve()
    if Path(xpgraphs.__file__).resolve().parent != package:
        print(f"xpgraphs imported from {xpgraphs.__file__}, not {package}", file=sys.stderr)
        return 2
    import numpy as np

    import tracing
    import workloads

    out = Path(args.out)
    shutil.rmtree(out, ignore_errors=True)
    eigvals = np.linalg.eigvals
    inst = tracing.Instrument(spans=bool(args.trace))
    inst.install()
    workload = workloads.build(args.workload, args.seed, args.size, out)
    setup_s = time.time() - args.spawned_at
    kernel = [speed_kernel(np, eigvals)]  # after set-up, then after every pass
    if args.setup_only:
        inst.uninstall()
        shutil.rmtree(out, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s, "kernel_s": kernel}))
        return 0

    setup_spans = inst.n_spans()
    setup_counts = inst.take_counts()

    def on_job(index):
        inst.job = index

    passes = []  # (seconds, results, counts, (first span, end span))
    started = time.perf_counter()
    while True:
        lo = inst.n_spans()
        t0 = time.perf_counter()
        results = workload.run_pass(out / f"pass{len(passes)}", on_job)
        seconds = time.perf_counter() - t0
        inst.job = -1
        passes.append((seconds, results, inst.take_counts(), (lo, inst.n_spans())))
        kernel.append(speed_kernel(np, eigvals))
        steady = len(passes) - 1
        spent = time.perf_counter() - started
        if steady >= MAX_STEADY or (steady >= MIN_STEADY and spent + seconds / 2 > args.budget):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    inst.uninstall()

    # --- untimed: correctness gate -------------------------------------------
    messages: list[str] = []
    failed = unexpected = 0
    verdict = {}
    for r in passes[0][1]:
        if r.error is not None:
            verdict[r.name] = [f"{r.name}: raised {r.error}"]
        else:
            try:
                verdict[r.name] = workload.check_job(r.name, r.value)
            except Exception as exc:  # a check that cannot run fails the job
                verdict[r.name] = [f"{r.name}: check raised {type(exc).__name__}: {exc}"]
    reference = {r.name: workloads.fingerprint(r) for r in passes[0][1]}
    for index, (_, results, _, _) in enumerate(passes):
        for r in results:
            problems = list(verdict[r.name])
            if index and workloads.fingerprint(r) != reference[r.name]:
                problems.append(f"{r.name}: pass {index} output differs from pass 0")
            if problems:
                failed += 1
                known = r.name in workload.known_breaks
                unexpected += not known
                for msg in problems:
                    tagged = f"{msg} [known: {workload.known_breaks[r.name]}]" if known else msg
                    if tagged not in messages and len(messages) < MAX_MESSAGES:
                        messages.append(tagged)

    def deterministic(counts):
        return {k: counts.get(k, 0) for k in tracing.DETERMINISTIC}

    counts = deterministic(passes[0][2])
    counts["cli.artifact_bytes"] = sum(
        len(b) for r in passes[0][1] for b in workloads.artifacts_of(r).values())
    counts_repeat = all(deterministic(c) == deterministic(passes[0][2])
                        for _, _, c, _ in passes)
    if not counts_repeat:
        messages.append("deterministic counts differ between passes")

    result = {
        "setup_s": setup_s,
        "first_pass_s": passes[0][0],
        "pass_s": [p[0] for p in passes[1:]],
        "kernel_s": kernel,
        "peak_rss_mb": peak_rss_mb,
        "attempted": sum(len(p[1]) for p in passes),
        "failed": failed,
        "unexpected_failures": unexpected,
        "messages": messages,
        "counts": counts,
        "counts_repeat": counts_repeat,
        "machine": machine_record(np),
    }
    if args.trace:
        result["layers"] = _layers(tracing, inst, setup_spans, setup_counts, passes, counts)
        spans_dir = ROOT / ".bench_out" / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        inst.write(spans_dir / f"{args.workload}-seed{args.seed}-{os.getpid()}.npz")
    shutil.rmtree(out, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _layers(tracing, inst, setup_spans, setup_counts, passes, counts) -> dict:
    """Per-layer values: the set-up plus the median steady pass.

    The lazy scipy import happens in the first pass only, so its time is
    taken from there.
    """
    setup = tracing.span_metrics(inst, 0, setup_spans)
    steady = [tracing.span_metrics(inst, *p[3]) for p in passes[1:]]
    layers = {k: setup[k] + statistics.median_low(m[k] for m in steady) for k in setup}
    first = tracing.span_metrics(inst, *passes[0][3])
    layers["traces.scipy_import_s"] = first["traces.scipy_import_s"]
    tally = dict(passes[1][2])
    for key, value in setup_counts.items():
        if key != "traces.orbits_per_report":
            tally[key] = tally.get(key, 0) + value
    roots = tally.get("spectra.roots", 0)
    enumerated = tally.get("graph.orbits_enumerated", 0)
    layers.update({
        "spectra.matrix_evals": tally.get("spectra.matrix_evals", 0),
        "spectra.roots": roots,
        "spectra.evals_per_root": tally.get("spectra.matrix_evals", 0) / roots if roots else 0.0,
        "spectra.bytes_computed": tally.get("spectra.bytes_computed", 0),
        "graph.orbits_enumerated": enumerated,
        "traces.n_orbits": tally.get("traces.n_orbits", 0),
        "graph.orbit_useful_ratio":
            tally.get("traces.n_orbits", 0) / enumerated if enumerated else 0.0,
        "cli.artifact_bytes": counts["cli.artifact_bytes"],
    })
    return layers


if __name__ == "__main__":
    sys.exit(main())
