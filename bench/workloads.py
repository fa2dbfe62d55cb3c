"""Seeded inputs, the jobs of one pass, and the correctness gate of each workload.

A workload is built once per process from ``(seed, size)``; the program only
ever sees the generated graphs, boundary specs and job documents.  A *pass*
runs every job of the workload once, in a fixed order, and returns one
``JobResult`` per job.  ``Workload.check_job`` runs after the timed region
and returns the failure messages of one job's output (none when it is right).

Jobs call the package through module attributes (``spectra.find_spectrum``,
``traces.trace_rhs_bk2``, ``cli.main``) so that the wrappers installed by
``tracing.Instrument`` see every call.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from xpgraphs import cli, extensions, spectra, traces
from xpgraphs.graph import MetricGraph

TWO_PI = 2.0 * math.pi

#: root accuracy requested from every solve (bracket width)
ROOT_TOL = 1e-10
#: |lhs - rhs| allowed in a trace check, as in the acceptance tests
TRACE_TOL = 1e-8
#: largest orbit or spectral tail bound a trace check may report
TAIL_TOL = 1e-10
#: largest g-th smallest singular value of I - U(k) at a root of multiplicity g
ROOT_SV_TOL = 1e-8
#: distance from the exact level allowed for the analytic CLI spectra
EXACT_TOL = 1e-9

#: --threads of the cli-jobs documents that use the scan thread pool, at most nproc
POOL_THREADS = min(2, os.cpu_count() or 1)


@dataclass
class JobResult:
    """Outcome of one job in one pass; ``error`` is set when it raised."""

    name: str
    value: object = None
    error: str | None = None


@dataclass
class Workload:
    """Built inputs plus the callables that run and check them."""

    jobs: list                     # [(name, callable(out_dir) -> value)]
    check_job: callable            # (name, value) -> list[str] of failures
    inputs: dict                   # the generated inputs, JSON-serializable
    known_breaks: dict = field(default_factory=dict)  # job name -> reason

    def run_pass(self, out_dir: Path, on_job=None) -> list[JobResult]:
        results = []
        for index, (name, job) in enumerate(self.jobs):
            if on_job is not None:
                on_job(index)
            try:
                results.append(JobResult(name, value=job(out_dir / name)))
            except Exception as exc:  # a job that raises is a failed operation
                results.append(JobResult(name, error=f"{type(exc).__name__}: {exc}"))
        return results


# ---------------------------------------------------------------------------
# Seeded input generation
# ---------------------------------------------------------------------------

def _log_lengths(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """n log lengths drawn uniformly in [lo, hi).

    With two or more edges the draw is shifted to mean (lo + hi) / 2: the
    total length, and with it the Weyl root count and the orbit count at a
    fixed cutoff, then hardly moves from seed to seed, while the lengths
    stay random and incommensurate.
    """
    u = lo + (hi - lo) * rng.random(n)
    if n > 1:
        u += 0.5 * (lo + hi) - u.mean()
    return u


def _graph(rng, log_lengths, vertices=None, directed=False) -> MetricGraph:
    """Intervals [a, a e^l] with seeded left ends a in [0.5, 2)."""
    starts = 0.5 + 1.5 * rng.random(len(log_lengths))
    return MetricGraph.from_intervals(
        [(a, a * math.exp(l)) for a, l in zip(starts, log_lengths)],
        directed=directed, vertices=vertices)


def _star(rng, log_lengths) -> MetricGraph:
    return _graph(rng, log_lengths,
                  vertices=[("c", f"t{i}") for i in range(len(log_lengths))])


def _intervals(graph: MetricGraph) -> list:
    return [[e.a, e.b] for e in graph.edges]


def _pairs(matrix: np.ndarray) -> list:
    return np.stack([matrix.real, matrix.imag], axis=-1).tolist()


def _unitary(rng, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _kirchhoff_system(graph: MetricGraph):
    dec = extensions.decompose(extensions.standard_bc("kirchhoff", graph),
                               extensions.DilationMatrices.from_graph(graph))
    return dec, spectra.SecularSystem.bk2(dec, graph)


# ---------------------------------------------------------------------------
# Correctness gates shared by the library workloads
# ---------------------------------------------------------------------------

def _u(bond: np.ndarray, weights: np.ndarray, k: float) -> np.ndarray:
    return bond * np.exp(1j * k * weights)[None, :]


def root_residual(bond: np.ndarray, weights: np.ndarray, k: float, g: int) -> float:
    """g-th smallest singular value of I - U(k); near zero at a g-fold root."""
    sv = np.linalg.svd(np.eye(len(weights)) - _u(bond, weights, k), compute_uv=False)
    return float(sv[-g])


def reference_counts(bond: np.ndarray, weights: np.ndarray, k_lo: float,
                     k_hi: float):
    """Eigenphase crossings of 1 on each step of a dense grid over (k_lo, k_hi].

    With a constant S-part, det U(k) = det S exp(i k sum(w)), so the
    continuous sum of eigenphases grows by sum(w) dk on a step.  The
    principal eigenphases (in [0, 2 pi)) lose 2 pi at each crossing, which
    gives the count of a step.  The grid has four samples per mean level
    spacing and is independent of the solver's own grid.

    Returns:
        (grid, counts) with counts[i] the crossings on (grid[i], grid[i+1]].
    """
    rate = float(np.sum(weights))
    n = max(2, int(math.ceil((k_hi - k_lo) * 4.0 * rate / TWO_PI)) + 1)
    grid = np.linspace(k_lo, k_hi, n)
    phase_sum = np.array([
        np.sum(np.mod(np.angle(np.linalg.eigvals(_u(bond, weights, k))), TWO_PI))
        for k in grid])
    raw = (rate * np.diff(grid) + phase_sum[:-1] - phase_sum[1:]) / TWO_PI
    counts = np.rint(raw).astype(int)
    if np.max(np.abs(raw - counts)) > 1e-6:
        raise ArithmeticError("eigenphase sums do not give integer crossing counts")
    return grid, counts


def check_spectrum(label: str, spectrum, bond: np.ndarray,
                   weights: np.ndarray) -> list[str]:
    """Every root is a root, and no root is missing or extra on any grid step."""
    failures = []
    for k, g in spectrum.eigenvalues:
        res = root_residual(bond, weights, k, g)
        if not res <= ROOT_SV_TOL:
            failures.append(f"{label}: sigma_min(I - U) = {res:.2e} at root k = {k!r}")
    grid, counts = reference_counts(bond, weights, *spectrum.k_window)
    ks = spectrum.wavenumbers
    found = np.zeros(len(counts), dtype=int)
    if len(ks):
        steps = np.clip(np.searchsorted(grid, ks, side="left") - 1, 0, len(counts) - 1)
        np.add.at(found, steps, spectrum.multiplicities)
    if int(found.sum()) != int(counts.sum()):
        failures.append(f"{label}: {int(found.sum())} roots, reference count "
                        f"{int(counts.sum())}")
    elif np.any(found != counts):
        bad = int(np.argmax(found != counts))
        failures.append(f"{label}: roots on ({grid[bad]:.6f}, {grid[bad + 1]:.6f}] "
                        f"are {found[bad]}, reference {counts[bad]}")
    return failures


def check_trace_report(label: str, report: dict) -> list[str]:
    """Trace identity to TRACE_TOL with both truncation tails below TAIL_TOL."""
    failures = []
    if not report["discrepancy"] <= TRACE_TOL:
        failures.append(f"{label}: |lhs - rhs| = {report['discrepancy']:.2e}")
    for key in ("orbit_tail_bound", "lhs_tail_bound"):
        if not report[key] <= TAIL_TOL:
            failures.append(f"{label}: {key} = {report[key]:.2e}")
    return failures


def _trace_job(graph, t: float, sys_, dec=None, s_bk=None):
    """The CLI trace-check task for one t, through the library calls."""
    h = traces.gaussian(t)
    k_top = math.sqrt(math.log(1e14) / t)
    if s_bk is not None:
        spectrum = spectra.find_spectrum(sys_, (-k_top, k_top), tol=ROOT_TOL)
        report = traces.trace_rhs_bk(graph, s_bk, h)
    else:
        spectrum = spectra.find_spectrum(sys_, (0.0, k_top), tol=ROOT_TOL)
        if not sys_.k_independent:
            negative = spectra.find_negative_eigenvalues(sys_, kappa_max=k_top)
            spectrum = dataclasses.replace(spectrum, negative=tuple(negative))
        report = traces.trace_rhs_bk2(graph, dec, h)
    lhs, tail = traces.trace_lhs(spectrum, h, graph.total_length)
    return report.with_lhs(lhs, tail).to_dict()


# ---------------------------------------------------------------------------
# spectrum-scan: constant-S solves, two matrix sizes
# ---------------------------------------------------------------------------

def build_spectrum_scan(rng, size: str, out_root: Path) -> Workload:
    tiny = size == "tiny"
    star_edges, star_k = (4, 5.0) if tiny else (10, 20.0)
    graph_star = _star(rng, _log_lengths(rng, star_edges, 1.0, 2.0))
    _, sys_star = _kirchhoff_system(graph_star)

    graph_fo = _graph(rng, _log_lengths(rng, 4, 0.5, 1.5))
    s_fo = _unitary(rng, 4)
    sys_fo = spectra.SecularSystem.bk(s_fo, graph_fo)
    k_fo = (20.0 if tiny else 310.0) * math.pi / graph_fo.total_length

    cases = {
        "star-kirchhoff": (sys_star, (0.0, star_k)),
        "random-first-order": (sys_fo, (-k_fo, k_fo)),
    }

    def job(sys_, window):
        return lambda _out: spectra.find_spectrum(sys_, window, tol=ROOT_TOL, workers=1)

    def check_job(name, spectrum):
        sys_ = cases[name][0]
        return check_spectrum(name, spectrum, sys_.bond_matrix(1.0), sys_.weights)

    inputs = {"star": _intervals(graph_star), "first_order": _intervals(graph_fo),
              "first_order_s": _pairs(s_fo),
              "windows": {name: list(case[1]) for name, case in cases.items()}}
    return Workload([(name, job(*case)) for name, case in cases.items()], check_job, inputs)


# ---------------------------------------------------------------------------
# trace-kdep: Robin edge, k-dependent S''(k)
# ---------------------------------------------------------------------------

def build_trace_kdep(rng, size: str, out_root: Path) -> Workload:
    # below rho ~ 0.97 some lengths need a sixth orbit shell at t = 1, which
    # makes a pass half as long again; the range keeps five on every seed
    while True:
        length = 3.9 + 0.2 * rng.random()
        rho = 0.98 + 0.08 * rng.random()
        graph = _graph(rng, [length])
        dec = extensions.decompose(extensions.standard_bc("robin", graph, rho=rho),
                                   extensions.DilationMatrices.from_graph(graph))
        _, l_sigma = traces.length_condition(dec, graph)
        if length > l_sigma:
            break
    sys_ = spectra.SecularSystem.bk2(dec, graph)
    t_values = (2.0,) if size == "tiny" else (1.0,)
    jobs = [(f"robin-t{t}", lambda _out, t=t: _trace_job(graph, t, sys_, dec=dec))
            for t in t_values]
    inputs = {"edge": _intervals(graph), "rho": rho, "t": list(t_values)}
    return Workload(jobs, check_trace_report, inputs)


# ---------------------------------------------------------------------------
# trace-orbits: constant-S trace checks dominated by orbit enumeration
# ---------------------------------------------------------------------------

def build_trace_orbits(rng, size: str, out_root: Path) -> Workload:
    tiny = size == "tiny"
    star = _star(rng, _log_lengths(rng, 4, 1.05, 1.35))
    star_dec, star_sys = _kirchhoff_system(star)

    fo3 = _graph(rng, _log_lengths(rng, 3, 1.3, 1.7))
    s3 = _unitary(rng, 3)
    fo3_sys = spectra.SecularSystem.bk(s3, fo3)

    ring = _graph(rng, _log_lengths(rng, 2, 1.65, 1.85),
                  vertices=[("u", "v"), ("v", "u")], directed=True)
    s2 = _unitary(rng, 2)
    ring_sys = spectra.SecularSystem.bk(s2, ring)

    t_star, t_fo3, t_ring = (0.3, 0.2, 0.3) if tiny else (1.0, 0.5, 2.0)
    jobs = [
        ("star4-kirchhoff", lambda _out: _trace_job(star, t_star, star_sys, dec=star_dec)),
        ("first-order-e3", lambda _out: _trace_job(fo3, t_fo3, fo3_sys, s_bk=s3)),
        ("first-order-ring2", lambda _out: _trace_job(ring, t_ring, ring_sys, s_bk=s2)),
    ]
    inputs = {"star4": _intervals(star), "first_order_e3": _intervals(fo3),
              "e3_s": _pairs(s3), "ring2": _intervals(ring), "ring2_s": _pairs(s2),
              "t": [t_star, t_fo3, t_ring]}
    return Workload(jobs, check_trace_report, inputs)


# ---------------------------------------------------------------------------
# cli-jobs: many short documents through cli.main
# ---------------------------------------------------------------------------

def _edge_doc(a: float, log_length: float, directed=False, start="u", end="v"):
    return {"edges": [{"id": "e0", "a": a, "b": a * math.exp(log_length),
                       "from": start, "to": end}], "directed": directed}


def _ring_doc(a, log_length):
    return _edge_doc(a, log_length, directed=True, start="v", end="v")


def _star3_doc():
    """The commensurate acceptance star: three copies of [1, e]."""
    return {"edges": [{"id": f"e{i}", "a": 1.0, "b": math.e, "from": "c", "to": f"t{i}"}
                      for i in range(3)]}


def _cli_documents(rng, tiny: bool):
    """(name, document text, expectation) for every job, in run order.

    Expectations: ``exit`` (code), ``error`` (error.json code), an
    optional ``levels`` = (kind, log length, c) for exact spectra, where
    kind is ``ring`` (2 pi (n + c) / l) or ``box`` (pi n / l), and ``pool``:
    whether the job runs with ``--threads POOL_THREADS``.  Only a few short
    constant-S scans use the pool: with two threads contending for the
    interpreter lock, pass times swing about twice as much as with one.
    """
    def a():
        """Seeded left end of an interval."""
        return float(0.5 + 1.5 * rng.random())

    docs = []

    def add(name, doc, exit_code=0, error=None, levels=None, text=None, pool=False):
        docs.append((name, text if text is not None else json.dumps(doc),
                     {"exit": exit_code, "error": error, "levels": levels, "pool": pool}))

    k_ring = 8.0 if tiny else 20.0
    k_box = 10.0 if tiny else 40.0
    # validate
    add("validate-star3", {"task": "validate", "operator": "bk2", "graph": _star3_doc(),
                           "boundary": {"kind": "kirchhoff"}})
    add("validate-robin", {"task": "validate", "operator": "bk2",
                           "graph": _edge_doc(a(), 4.0),
                           "boundary": {"kind": "robin", "rho": 0.5 + 1.5 * rng.random()}})
    add("validate-ring", {"task": "validate", "operator": "bk", "graph": _ring_doc(a(), 1.0),
                          "boundary": {"kind": "ring_phase", "c": rng.random()}})
    add("validate-ring2", {"task": "validate", "operator": "bk",
                           "graph": {"edges": [
                               {"id": "e0", "a": 1.0, "b": math.e, "from": "u", "to": "v"},
                               {"id": "e1", "a": 1.0, "b": math.e ** 2, "from": "v", "to": "u"}],
                               "directed": True},
                           "boundary": {"kind": "ring_phase", "c": rng.random()}})
    add("validate-neumann", {"task": "validate", "operator": "bk2",
                             "graph": _edge_doc(a(), 2.0), "boundary": {"kind": "neumann"}})
    eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    zero = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    add("validate-matrices", {"task": "validate", "operator": "bk2",
                              "graph": _edge_doc(a(), 1.0),
                              "boundary": {"kind": "matrices", "A": eye, "B": zero}})
    # spectra with exact levels
    for i, ell in enumerate((1.0, 1.0, 1.0, 2.0, 3.0)):
        c = float(rng.random())
        add(f"spectrum-ring{i}", {"task": "spectrum", "operator": "bk",
                                  "graph": _ring_doc(a(), ell),
                                  "boundary": {"kind": "ring_phase", "c": c},
                                  "numeric": {"k_min": -k_ring, "k_max": k_ring}},
            levels=("ring", ell, c), pool=True)
    for i, ell in enumerate((1.0, 2.0, 3.0)):
        add(f"spectrum-dirichlet{i}", {"task": "spectrum", "operator": "bk2",
                                       "graph": _edge_doc(a(), ell),
                                       "boundary": {"kind": "dirichlet"},
                                       "numeric": {"k_min": 0.0, "k_max": k_box}},
            levels=("box", ell, 0.0))
    add("spectrum-neumann", {"task": "spectrum", "operator": "bk2",
                             "graph": _edge_doc(a(), 1.0), "boundary": {"kind": "neumann"},
                             "numeric": {"k_min": 0.0, "k_max": k_box}},
        levels=("box", 1.0, 0.0))
    add("spectrum-robin", {"task": "spectrum", "operator": "bk2",
                           "graph": _edge_doc(a(), 4.0),
                           "boundary": {"kind": "robin", "rho": 0.8 + 0.4 * rng.random()},
                           "numeric": {"k_min": 0.0, "k_max": 8.0, "kappa_max": 4.0}})
    add("spectrum-star3", {"task": "spectrum", "operator": "bk2", "graph": _star3_doc(),
                           "boundary": {"kind": "kirchhoff"},
                           "numeric": {"k_min": 0.0, "k_max": k_ring}}, pool=True)
    add("spectrum-ring-tight", {"task": "spectrum", "operator": "bk",
                                "graph": _ring_doc(a(), 1.0),
                                "boundary": {"kind": "ring_phase", "c": 0.5},
                                "numeric": {"k_min": -k_ring, "k_max": k_ring,
                                            "tol": 1e-12}},
        levels=("ring", 1.0, 0.5))
    # Weyl fits
    add("weyl-star3", {"task": "weyl", "operator": "bk2", "graph": _star3_doc(),
                       "boundary": {"kind": "kirchhoff"},
                       "numeric": {"k_min": 0.0, "k_max": 30.0}})
    add("weyl-ring", {"task": "weyl", "operator": "bk", "graph": _ring_doc(a(), 3.0),
                      "boundary": {"kind": "ring_phase", "c": rng.random()},
                      "numeric": {"k_min": -40.0, "k_max": 40.0, "side": "two_sided"}})
    add("weyl-dirichlet", {"task": "weyl", "operator": "bk2", "graph": _edge_doc(a(), 2.0),
                           "boundary": {"kind": "dirichlet"},
                           "numeric": {"k_min": 0.0, "k_max": 40.0}})
    # trace checks
    add("trace-dirichlet", {"task": "trace-check", "operator": "bk2",
                            "graph": _edge_doc(a(), 1.0), "boundary": {"kind": "dirichlet"},
                            "numeric": {"t_values": [0.1, 1.0]}})
    add("trace-dirichlet2", {"task": "trace-check", "operator": "bk2",
                             "graph": _edge_doc(a(), 2.0), "boundary": {"kind": "dirichlet"},
                             "numeric": {"t_values": [0.5]}})
    add("trace-neumann", {"task": "trace-check", "operator": "bk2",
                          "graph": _edge_doc(a(), 1.0), "boundary": {"kind": "neumann"},
                          "numeric": {"t_values": [0.5]}})
    add("trace-ring", {"task": "trace-check", "operator": "bk", "graph": _ring_doc(a(), 1.0),
                       "boundary": {"kind": "ring_phase", "c": rng.random()},
                       "numeric": {"t_values": [0.1, 1.0]}})
    add("trace-ring2", {"task": "trace-check", "operator": "bk", "graph": _ring_doc(a(), 2.0),
                        "boundary": {"kind": "ring_phase", "c": rng.random()},
                        "numeric": {"t_values": [0.5]}})
    # heat traces
    for i, ell in enumerate((1.0, 2.0, 3.0, 4.0)):
        add(f"heat-trace{i}", {"task": "heat-trace", "operator": "bk2",
                               "graph": _edge_doc(a(), ell), "boundary": {"kind": "dirichlet"},
                               "numeric": {"t_values": [0.01, 0.1, 1.0, 10.0]}})
    # half-line packet
    add("halfline-1201", {"task": "halfline-demo",
                          "numeric": {"k_grid_max": 30.0, "n_k": 201 if tiny else 1201}})
    add("halfline-401", {"task": "halfline-demo",
                         "numeric": {"k_grid_max": 20.0, "n_k": 101 if tiny else 401}})
    # counting comparisons
    add("counting-ring", {"task": "counting-compare", "operator": "bk",
                          "graph": _ring_doc(a(), 1.0),
                          "boundary": {"kind": "ring_phase", "c": rng.random()},
                          "numeric": {"k_min": -80.0, "k_max": 80.0}})
    add("counting-ring2", {"task": "counting-compare", "operator": "bk",
                           "graph": _ring_doc(a(), 2.0),
                           "boundary": {"kind": "ring_phase", "c": rng.random()},
                           "numeric": {"k_min": -70.0, "k_max": 70.0, "k_start": 30.0}})
    add("counting-dirichlet", {"task": "counting-compare", "operator": "bk2",
                               "graph": _edge_doc(a(), 1.0),
                               "boundary": {"kind": "dirichlet"},
                               "numeric": {"k_min": 0.0, "k_max": 80.0, "k_start": 40.0}})
    # malformed documents, one per documented error class
    add("bad-not-json", None, exit_code=cli.EXIT_PARSE, error="PARSE_ERROR",
        text='{"task": "spectrum", "operator": ')
    add("bad-unknown-key", {"task": "spectrum", "bogus": 1},
        exit_code=cli.EXIT_PARSE, error="PARSE_ERROR")
    add("bad-boundary-kind", {"task": "spectrum", "operator": "bk2",
                              "graph": _edge_doc(a(), 1.0), "boundary": {"kind": "wobbly"},
                              "numeric": {"k_min": 0.0, "k_max": 5.0}},
        exit_code=cli.EXIT_VALIDATION, error="VALIDATION_ERROR")
    add("bad-k-order", {"task": "spectrum", "operator": "bk", "graph": _ring_doc(a(), 1.0),
                        "boundary": {"kind": "ring_phase", "c": 0.0},
                        "numeric": {"k_min": 5.0, "k_max": 1.0}},
        exit_code=cli.EXIT_VALIDATION, error="VALIDATION_ERROR")
    add("bad-n-k", {"task": "halfline-demo", "numeric": {"k_grid_max": 10.0, "n_k": "abc"}},
        exit_code=cli.EXIT_VALIDATION, error="VALIDATION_ERROR")
    return docs


#: malformed documents the CLI does not yet answer with its documented code
CLI_KNOWN_BREAKS = {
    "bad-n-k": "non-numeric numeric.n_k escapes cli.main as ValueError, no error.json",
}


def _exact_levels(kind: str, ell: float, c: float, k_lo: float, k_hi: float):
    if kind == "ring":
        step, shift = TWO_PI / ell, c
    else:
        step, shift = math.pi / ell, 0.0
    n_lo = math.ceil(k_lo / step - shift - 1e-12)
    n_hi = math.floor(k_hi / step - shift + 1e-12)
    levels = [step * (n + shift) for n in range(n_lo, n_hi + 1)]
    return [k for k in levels if k > 1e-9] if kind == "box" else levels


def _read_artifacts(out_dir: Path) -> dict:
    if not out_dir.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}


def build_cli_jobs(rng, size: str, out_root: Path) -> Workload:
    config_dir = out_root / "configs"
    config_dir.mkdir(parents=True, exist_ok=True)
    docs = _cli_documents(rng, size == "tiny")
    expect = {}
    jobs = []
    for index, (name, text, expectation) in enumerate(docs):
        path = config_dir / f"{index:02d}-{name}.json"
        path.write_text(text)
        expect[name] = (json.loads(text) if expectation["levels"] else None, expectation)

        threads = POOL_THREADS if expectation["pool"] else 1

        def job(out_dir, path=path, threads=threads):
            code = cli.main(["--config", str(path), "--out", str(out_dir),
                             "--threads", str(threads)])
            return code, out_dir

        jobs.append((name, job))

    def check_job(name, value):
        code, out_dir = value
        doc, exp = expect[name]
        arts = _read_artifacts(out_dir)
        failures = []
        if code != exp["exit"]:
            failures.append(f"{name}: exit code {code}, expected {exp['exit']}")
        if exp["error"] is not None:
            if "error.json" not in arts:
                failures.append(f"{name}: no error.json")
            else:
                got = json.loads(arts["error.json"])["error"]["code"]
                if got != exp["error"]:
                    failures.append(f"{name}: error code {got}, expected {exp['error']}")
        elif "error.json" in arts:
            failures.append(f"{name}: unexpected error.json {arts['error.json'][:200]!r}")
        if failures:
            return failures
        if exp["levels"] is not None:
            kind, ell, c = exp["levels"]
            num = doc["numeric"]
            exact = _exact_levels(kind, ell, c, num["k_min"], num["k_max"])
            rows = arts["spectrum.csv"].decode().splitlines()[1:]
            got = [float(r.split(",")[1]) for r in rows]
            if len(got) != len(exact):
                failures.append(f"{name}: {len(got)} levels, expected {len(exact)}")
            else:
                worst = max((abs(x - y) for x, y in zip(got, exact)), default=0.0)
                if worst > EXACT_TOL:
                    failures.append(f"{name}: level error {worst:.2e}")
        if "trace.json" in arts:
            for rep in json.loads(arts["trace.json"])["reports"]:
                failures += check_trace_report(f"{name} t={rep['t']}", rep)
        return failures

    inputs = {"documents": [text for _, text, _ in docs],
              "pool": [exp["pool"] for _, _, exp in docs]}
    return Workload(jobs, check_job, inputs,
                    known_breaks=dict(CLI_KNOWN_BREAKS))


def artifacts_of(result: JobResult) -> dict:
    """Artifact bytes of a CLI job (empty for library jobs)."""
    if isinstance(result.value, tuple) and len(result.value) == 2 \
            and isinstance(result.value[1], Path):
        return _read_artifacts(result.value[1])
    return {}


def fingerprint(result: JobResult):
    """Comparable form of a job's output, to check that passes agree exactly."""
    if result.error is not None:
        return ("error", result.error)
    value = result.value
    if isinstance(value, spectra.Spectrum):
        return ("spectrum", value.eigenvalues, value.k_window, value.zero_mode)
    if isinstance(value, dict):
        return ("report", json.dumps(value, sort_keys=True))
    return ("cli", value[0], artifacts_of(result))


BUILDERS = {
    "spectrum-scan": build_spectrum_scan,
    "trace-kdep": build_trace_kdep,
    "trace-orbits": build_trace_orbits,
    "cli-jobs": build_cli_jobs,
}


def build(name: str, seed: int, size: str, out_root: Path) -> Workload:
    """Build the named workload's inputs from the seed ("full" or "tiny" size)."""
    rng = np.random.default_rng([seed, list(BUILDERS).index(name)])
    return BUILDERS[name](rng, size, out_root)
