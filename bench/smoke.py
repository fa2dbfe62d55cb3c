"""Smoke test of the benchmark itself, at a tiny size.

    python3 bench/smoke.py

Checks, printing one line each and exiting non-zero on the first failure:

* every workload runs untraced and traced, and prints every metric that
  ``BENCHMARK.json`` names, with its unit, in the text and in the final
  JSON line;
* a seed reproduces the same inputs, another seed gives other inputs, and
  two runs with one seed print identical deterministic counts;
* the correctness gate catches a perturbed root, a dropped root and a
  trace report off by more than its tolerance.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3


def _bench(*args: str) -> tuple[list[str], dict]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--size", "tiny",
                           "--seconds", "1", "--seed", str(SEED), *args],
                          capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited {proc.returncode}:\n"
                             f"{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def _check_metrics(workload: str, text: list[str], result: dict, expected: list) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["attempted"] < 1:
        raise AssertionError(f"{workload}: correct={result['correct']}, "
                             f"attempted={result['attempted']}\n" + "\n".join(text))
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in expected}:
        raise AssertionError(f"{workload}: metrics {sorted(metrics)}")
    for m in expected:
        if metrics[m["name"]]["unit"] != m["unit"]:
            raise AssertionError(f"{workload}: {m['name']} unit {metrics[m['name']]['unit']}")
        if not any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in text):
            raise AssertionError(f"{workload}: no text line for {m['name']} [{m['unit']}]")


def check_every_metric_prints() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        text, result = _bench("--workload", workload, "--trace", "0")
        _check_metrics(workload, text, result, spec["end_to_end"])
        text, result = _bench("--workload", workload, "--trace", "1")
        _check_metrics(workload, text, result, spec["per_layer"])
        print(f"PASS {workload}: every end-to-end and per-layer metric prints with its unit")


def check_seed_reproduces() -> None:
    import workloads
    out = ROOT / ".bench_out" / "smoke"
    for name in workloads.BUILDERS:
        one = json.dumps(workloads.build(name, SEED, "tiny", out / "a").inputs)
        two = json.dumps(workloads.build(name, SEED, "tiny", out / "b").inputs)
        other = json.dumps(workloads.build(name, SEED + 1, "tiny", out / "c").inputs)
        if one != two or one == other:
            raise AssertionError(f"{name}: inputs do not follow the seed")
    print("PASS seeds: one seed rebuilds the same inputs, another seed changes them")

    counts = []
    for _ in range(2):
        text, _ = _bench("--workload", "cli-jobs", "--trace", "0")
        counts.append([line for line in text if "deterministic counts" in line])
    if not counts[0] or counts[0] != counts[1]:
        raise AssertionError(f"deterministic counts differ between runs: {counts}")
    print("PASS counts: two runs with one seed print identical deterministic counts")


def check_gate_catches_errors() -> None:
    import dataclasses

    import workloads
    wl = workloads.build("spectrum-scan", SEED, "tiny", ROOT / ".bench_out" / "smoke")
    name, job = wl.jobs[0]
    spectrum = job(None)
    if wl.check_job(name, spectrum):
        raise AssertionError(f"gate rejects a correct spectrum: {wl.check_job(name, spectrum)}")
    roots = list(spectrum.eigenvalues)
    k, g = roots[len(roots) // 2]
    moved = dataclasses.replace(spectrum, eigenvalues=tuple(
        roots[:len(roots) // 2] + [(k + 1e-6, g)] + roots[len(roots) // 2 + 1:]))
    if not any("sigma_min" in msg for msg in wl.check_job(name, moved)):
        raise AssertionError("gate missed a root moved by 1e-6")
    dropped = dataclasses.replace(spectrum, eigenvalues=tuple(roots[1:]))
    if not any("reference count" in msg for msg in wl.check_job(name, dropped)):
        raise AssertionError("gate missed a dropped root")

    trace = workloads.build("trace-orbits", SEED, "tiny", ROOT / ".bench_out" / "smoke")
    name, job = trace.jobs[1]
    report = job(None)
    if trace.check_job(name, report):
        raise AssertionError(f"gate rejects a correct trace: {trace.check_job(name, report)}")
    if not trace.check_job(name, dict(report, discrepancy=1e-6)):
        raise AssertionError("gate missed a trace discrepancy of 1e-6")
    print("PASS gate: a moved root, a dropped root and a trace discrepancy are caught")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    check_gate_catches_errors()
    check_seed_reproduces()
    check_every_metric_prints()
    return 0


if __name__ == "__main__":
    sys.exit(main())
