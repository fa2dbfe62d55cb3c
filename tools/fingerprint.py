"""Same-bits check: every workload output of a git rev against the working tree.

Run from the root of a checkout:

    python3 tools/fingerprint.py --rev HEAD~1 --seeds 1-5

The rev is extracted with ``git archive`` into a temporary directory.  In
each tree, a subprocess imports that tree's own ``src`` and
``bench/workloads.py`` and runs one in-process pass of every workload at
every seed, with BLAS on one thread.  Both passes write into the same
temporary path, one after the other, so a path in an output is the same in
both.  Compared are every ``Spectrum`` (eigenvalues, ``k_window``,
``zero_mode``, ``negative``, ``diagnostics``), every trace report, and the
exit code and artifact bytes of every ``cli-jobs`` document.  Each output
that differs is printed with its first differing value (``float.hex`` for
floats), and the exit code is 1 if any output differs, else 0.

No output is compared with a stored hash: LAPACK builds differ in their
last bits, so both trees must run on one machine.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: BLAS pinned to one thread in every pass, as the benchmark runs it
ONE_THREAD = {name: "1" for name in
              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def parse_seeds(text: str) -> list:
    """Seeds from "1-5", "3" or "1,4,7"."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def encode(value):
    """A JSON form of one job output that keeps every bit: dataclasses (a
    ``Spectrum``) as dicts, (exit code, output directory) of a CLI job as
    the code and the artifact bytes (latin-1, byte for byte), tuples as
    lists."""
    if dataclasses.is_dataclass(value):
        return {f.name: encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple) and len(value) == 2 and isinstance(value[1], Path):
        out = value[1]
        files = sorted(p for p in out.iterdir() if p.is_file()) if out.is_dir() else []
        return {"exit": value[0],
                "artifacts": {p.name: p.read_bytes().decode("latin-1") for p in files}}
    if isinstance(value, dict):
        return {str(key): encode(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(item) for item in value]
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        return value.item()             # a numpy scalar
    return value


def dump(tree: Path, seeds: list, out_root: Path) -> dict:
    """{seed: {workload: {job: output}}} of one pass of every workload in
    tree, run with that tree's package and workloads."""
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    import workloads

    result = {}
    for seed in seeds:
        per_seed = result[str(seed)] = {}
        for name in workloads.BUILDERS:
            run_dir = out_root / f"seed{seed}" / name
            run_dir.mkdir(parents=True)
            work = workloads.build(name, seed, "full", run_dir)
            per_seed[name] = {
                job.name: {"error": job.error} if job.error is not None else encode(job.value)
                for job in work.run_pass(run_dir / "pass")}
    return result


def first_difference(base, head, where: str = ""):
    """(place, base value, head value) of the first value that differs
    between two encoded outputs, in a walk of both, or None."""
    if isinstance(base, dict) and isinstance(head, dict):
        for key in sorted(set(base) | set(head)):
            if key not in base or key not in head:
                return f"{where}/{key}", base.get(key, "<absent>"), head.get(key, "<absent>")
            found = first_difference(base[key], head[key], f"{where}/{key}")
            if found:
                return found
        return None
    if isinstance(base, list) and isinstance(head, list):
        for i, (a, b) in enumerate(zip(base, head)):
            found = first_difference(a, b, f"{where}[{i}]")
            if found:
                return found
        if len(base) != len(head):
            return f"{where} length", len(base), len(head)
        return None
    if isinstance(base, float) and isinstance(head, float):
        return None if base.hex() == head.hex() else (where, base.hex(), head.hex())
    if isinstance(base, str) and isinstance(head, str) and base != head:
        at = next((i for i, (a, b) in enumerate(zip(base, head)) if a != b),
                  min(len(base), len(head)))
        return f"{where} at byte {at}", base[at:at + 40], head[at:at + 40]
    if type(base) is not type(head) or base != head:
        return where, base, head
    return None


def differences(base: dict, head: dict) -> list:
    """One line per job output that differs between two dumps, with its
    first differing value."""
    lines = []
    for seed in sorted(set(base) | set(head), key=int):
        for name in sorted(set(base.get(seed, {})) | set(head.get(seed, {}))):
            jobs_a, jobs_b = base.get(seed, {}).get(name, {}), head.get(seed, {}).get(name, {})
            for job in sorted(set(jobs_a) | set(jobs_b)):
                found = first_difference(jobs_a.get(job, "<absent>"), jobs_b.get(job, "<absent>"))
                if found:
                    place, a, b = found
                    lines.append(f"seed {seed} {name}/{job}{place}: {a!r} != {b!r}")
    return lines


def run_dump(tree: Path, seeds: list, out_root: Path, target: Path) -> dict:
    """``dump`` of tree in a fresh interpreter, read back from target; what
    the CLI jobs print is shown only if the pass fails."""
    if out_root.exists():
        shutil.rmtree(out_root)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **ONE_THREAD)
    env.pop("PYTHONPATH", None)
    run = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--dump", str(tree),
                          "--seeds", ",".join(map(str, seeds)), "--out", str(out_root),
                          "--target", str(target)], env=env, capture_output=True, text=True)
    if run.returncode:
        sys.exit(f"the pass in {tree} failed:\n{run.stderr}")
    return json.loads(target.read_text())


def extract(rev: str, into: Path) -> None:
    """The files of rev, by ``git archive``, under into."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rev", default="HEAD", help="git rev to compare against")
    parser.add_argument("--seeds", default="1-5", help='seeds, as "1-5" or "1,3"')
    parser.add_argument("--dump", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--target", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if args.dump is not None:
        args.target.write_text(json.dumps(dump(args.dump, seeds, args.out)))
        return 0
    with tempfile.TemporaryDirectory(prefix="fingerprint-") as tmp:
        tmp = Path(tmp)
        (tmp / "base").mkdir()
        extract(args.rev, tmp / "base")
        base = run_dump(tmp / "base", seeds, tmp / "run", tmp / "base.json")
        head = run_dump(ROOT, seeds, tmp / "run", tmp / "head.json")
    lines = differences(base, head)
    outputs = sum(len(jobs) for per_seed in head.values() for jobs in per_seed.values())
    for line in lines:
        print(line)
    print(f"{len(lines)} of {outputs} outputs differ between {args.rev} and the working tree "
          f"(seeds {args.seeds})")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
