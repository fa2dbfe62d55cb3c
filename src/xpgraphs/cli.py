"""Configuration ingestion, command dispatch, machine-readable output.

A job is one JSON document: graph, boundary condition, task, numeric
options.  Data goes to CSV, reports to JSON; every failure exits with a
stable code (2 parse, 3 validation, 4 compute) and an error.json artifact.
Outputs are deterministic: fixed orders, fixed formatting, no timestamps.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import extensions, halfline, spectra, traces
from .errors import (
    ComputeError,
    GraphError,
    HermiticityViolation,
    ParseError,
    RankAmbiguous,
    RankDeficient,
    ValidationError,
    XpGraphsError,
)
from .graph import MetricEdge, MetricGraph

_TASKS = ("validate", "spectrum", "weyl", "trace-check", "heat-trace",
          "halfline-demo", "counting-compare")

_VALIDATION_ERRORS = (ValidationError, GraphError, HermiticityViolation,
                      RankDeficient, RankAmbiguous)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_COMPUTE = 4


@dataclass(frozen=True)
class JobConfig:
    """One parsed job; plain nested data so serialization round-trips."""

    task: str
    operator: str = "bk2"
    graph: dict | None = None
    boundary: dict | None = None
    numeric: dict = dataclasses.field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {"task": self.task, "operator": self.operator,
               "numeric": dict(self.numeric)}
        if self.graph is not None:
            out["graph"] = self.graph
        if self.boundary is not None:
            out["boundary"] = self.boundary
        return out


def serialize(config: JobConfig) -> str:
    return json.dumps(config.to_dict(), indent=2, sort_keys=True)


def parse(text: str) -> JobConfig:
    """Parse and validate a job document.

    Raises:
        ParseError: not JSON, or structurally not a job.
        ValidationError: fields present but semantically invalid.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError("config must be a JSON object")
    unknown = set(raw) - {"task", "operator", "graph", "boundary", "numeric"}
    if unknown:
        raise ParseError(f"unknown config keys: {sorted(unknown)}")
    if "task" not in raw:
        raise ParseError("config needs a 'task'")

    config = JobConfig(task=raw["task"], operator=raw.get("operator", "bk2"),
                       graph=raw.get("graph"), boundary=raw.get("boundary"),
                       numeric=raw.get("numeric", {}))
    _validate_config(config)
    return config


def _validate_config(config: JobConfig) -> None:
    if config.task not in _TASKS:
        raise ValidationError(f"unknown task {config.task!r}; expected one of {_TASKS}")
    if config.operator not in (extensions.BK, extensions.BK2):
        raise ValidationError(f"operator must be 'bk' or 'bk2', got {config.operator!r}")
    if not isinstance(config.numeric, dict):
        raise ValidationError("'numeric' must be an object")

    needs_graph = config.task not in ("halfline-demo",)
    if needs_graph and not config.graph:
        raise ValidationError(f"task {config.task!r} needs a graph")
    needs_boundary = config.task in ("validate", "spectrum", "weyl",
                                     "trace-check", "counting-compare")
    if needs_boundary and not config.boundary:
        raise ValidationError(f"task {config.task!r} needs a boundary condition")

    num = config.numeric
    for key in ("k_min", "k_max", "tol", "orbit_cutoff", "kappa_max", "k_grid_max"):
        if key in num and not _is_number(num[key]):
            raise ValidationError(f"numeric.{key} must be a number")
    if "tol" in num:
        spectra.check_tol(num["tol"], [num[key] for key in ("k_min", "k_max") if key in num])
    if "side" in num:
        # only a Weyl fit refuses two_sided counting of the squared operator
        spectra.check_side(num["side"], config.operator if config.task == "weyl"
                           else extensions.BK)
    if "orbit_cutoff" in num and not 0 < num["orbit_cutoff"] < math.inf:
        raise ValidationError("numeric.orbit_cutoff must be positive and finite")
    if "k_min" in num and "k_max" in num and not num["k_min"] < num["k_max"]:
        raise ValidationError("need numeric.k_min < numeric.k_max")
    if "t_values" in num:
        ts = num["t_values"]
        if (not isinstance(ts, list) or not ts
                or any(not _is_number(t) or not 0 < t < math.inf for t in ts)):
            raise ValidationError(
                "numeric.t_values must be a nonempty list of positive finite numbers")
    if config.task in ("spectrum", "weyl", "counting-compare"):
        if "k_min" not in num or "k_max" not in num:
            raise ValidationError(f"task {config.task!r} needs numeric.k_min and numeric.k_max")


def _is_number(value) -> bool:
    """A JSON number; booleans are ints in Python but not numbers here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numeric(config: JobConfig, key: str, default=None, kind=float):
    """numeric.<key> (or ``default`` when absent) as a ``kind``.

    Raises:
        ValidationError: the value is not a JSON number (a string or a
            boolean), or a count (``kind=int``) is not a whole number.
    """
    value = config.numeric.get(key, default)
    if not _is_number(value):
        raise ValidationError(f"numeric.{key} must be a number, got {value!r}")
    if kind is int and not (math.isfinite(value) and value == math.floor(value)):
        raise ValidationError(f"numeric.{key} must be a whole number, got {value!r}")
    return kind(value)


# ---------------------------------------------------------------------------
# Model construction from config
# ---------------------------------------------------------------------------

def build_graph(config: JobConfig) -> MetricGraph:
    gd = config.graph
    if not isinstance(gd, dict) or not isinstance(gd.get("edges"), list) or not gd["edges"]:
        raise ValidationError("graph must have a nonempty 'edges' list")
    directed = gd.get("directed", False)
    if not isinstance(directed, bool):
        raise ValidationError(f"graph.directed must be true or false, got {directed!r}")
    edges = []
    for i, e in enumerate(gd["edges"]):
        ends = (e.get("a"), e.get("b")) if isinstance(e, dict) else (None, None)
        if not all(_is_number(x) and math.isfinite(x) for x in ends):
            raise ValidationError(f"edge {i}: 'a' and 'b' must be finite numbers")
        edges.append(MetricEdge(id=str(e.get("id", f"e{i}")), a=float(ends[0]), b=float(ends[1]),
                                start=str(e.get("from", f"v{i}")), end=str(e.get("to", f"v{i}"))))
    return MetricGraph(edges=tuple(edges), directed=directed)


def _matrix_from_pairs(data, dim: int, name: str) -> np.ndarray:
    arr = extensions.finite_reals(data, name)
    if arr.shape != (dim, dim, 2):
        raise ValidationError(
            f"{name} must be a {dim}x{dim} matrix of [re, im] pairs, got shape {arr.shape}"
        )
    return arr[..., 0] + 1j * arr[..., 1]


def build_extension(config: JobConfig, graph: MetricGraph) -> extensions.ExtensionSpec:
    bd = config.boundary
    if not isinstance(bd, dict) or "kind" not in bd:
        raise ValidationError("boundary must be an object with a 'kind'")
    kind = bd["kind"]
    if kind == "matrices":
        dim = graph.n_edges if config.operator == extensions.BK else 2 * graph.n_edges
        a = _matrix_from_pairs(bd.get("A"), dim, "boundary.A")
        b = _matrix_from_pairs(bd.get("B"), dim, "boundary.B")
        return extensions.validate_extension(a, b, kind=config.operator)
    if kind == "ring_phase":
        if config.operator != extensions.BK:
            raise ValidationError("ring_phase is a first-order (bk) condition")
        return extensions.standard_bc("ring_phase", graph, c=bd.get("c"))
    if kind in ("dirichlet", "neumann", "kirchhoff", "robin"):
        if config.operator != extensions.BK2:
            raise ValidationError(f"{kind} is a second-order (bk2) condition")
        return extensions.standard_bc(kind, graph, rho=bd.get("rho"))
    raise ValidationError(f"unknown boundary kind {kind!r}")


def build_system(config: JobConfig, graph: MetricGraph):
    spec = build_extension(config, graph)
    if spec.kind == extensions.BK:
        return spectra.SecularSystem.bk(extensions.s_matrix_bk(spec), graph), spec, None
    dec = extensions.decompose(spec, extensions.DilationMatrices.from_graph(graph))
    return spectra.SecularSystem.bk2(dec, graph), spec, dec


# ---------------------------------------------------------------------------
# Artifact writers
# ---------------------------------------------------------------------------

def _write_csv(path: Path, header, rows) -> None:
    """CSV with CRLF line ends and floats to 17 significant digits, written
    in one call.  No field holds a comma, quote or line break, so none is
    quoted."""
    lines = [",".join(header)]
    lines += [",".join([f"{x:.17g}" if isinstance(x, float) else str(x) for x in row])
              for row in rows]
    with path.open("w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Tasks
# ---------------------------------------------------------------------------

def _task_validate(config, out_dir):
    graph = build_graph(config)
    sys_, spec, dec = build_system(config, graph)
    report = {
        "valid": True,
        "operator": spec.kind,
        "matrix_size": spec.m,
        "graph_connected": graph.is_connected(),
        "total_length": graph.total_length,
    }
    if dec is None:
        s = extensions.s_matrix_bk(spec)
        report["s_unitarity_defect"] = float(np.max(np.abs(
            s.conj().T @ s - np.eye(s.shape[0]))))
    else:
        report["sigma_l"] = [float(v) for v in dec.sigma_l]
        report["k_independent"] = dec.k_independent
        report["squared_form"] = (dec.k_independent and
                                  extensions.is_squared_form(sys_.s_part(1.0)))
    _write_json(out_dir / "report.json", report)


def _spectrum_from_config(config, graph, sys_):
    num = config.numeric
    k_range = (_numeric(config, "k_min"), _numeric(config, "k_max"))
    spectrum = spectra.find_spectrum(sys_, k_range, tol=_numeric(config, "tol", 1e-10))
    if num.get("kappa_max") and sys_.kind == extensions.BK2:
        negative = spectra.find_negative_eigenvalues(sys_, _numeric(config, "kappa_max"))
        spectrum = dataclasses.replace(spectrum, negative=tuple(negative))
    return spectrum


def _write_spectrum(out_dir, spectrum):
    rows = [(n, k, g) for n, (k, g) in enumerate(spectrum.eigenvalues)]
    _write_csv(out_dir / "spectrum.csv", ("n", "k_n", "g_n"), rows)
    payload = {
        "kind": spectrum.kind,
        "k_window": list(spectrum.k_window),
        "n_eigenvalues": spectrum.total_count,
        "diagnostics": {k: (float(v) if isinstance(v, float) else v)
                        for k, v in spectrum.diagnostics.items()},
    }
    if spectrum.zero_mode is not None:
        payload["zero_mode"] = {"g0": spectrum.zero_mode[0], "N": spectrum.zero_mode[1]}
    if spectrum.negative:
        payload["negative"] = [{"kappa": k, "multiplicity": g}
                               for k, g in spectrum.negative]
    _write_json(out_dir / "spectrum.json", payload)


def _task_spectrum(config, out_dir):
    graph = build_graph(config)
    sys_, _, _ = build_system(config, graph)
    spectrum = _spectrum_from_config(config, graph, sys_)
    _write_spectrum(out_dir, spectrum)


def _task_weyl(config, out_dir):
    graph = build_graph(config)
    sys_, _, _ = build_system(config, graph)
    spectrum = _spectrum_from_config(config, graph, sys_)
    side = config.numeric.get("side", "positive")
    fit = spectra.weyl_fit(spectrum, graph, side=side)
    _write_spectrum(out_dir, spectrum)
    _write_json(out_dir / "weyl.json", {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "side": fit.side,
        "expected_slope": fit.expected_slope,
        "weyl_slope": graph.total_length / math.pi,
        "rel_error_vs_weyl": fit.rel_error_vs_weyl,
        "n_points": fit.n_points,
    })


def _task_trace_check(config, out_dir):
    graph = build_graph(config)
    sys_, spec, dec = build_system(config, graph)
    t_values = config.numeric.get("t_values", [0.1, 1.0])
    cutoff = config.numeric.get("orbit_cutoff")
    tol = _numeric(config, "tol", 1e-10)
    reports = []
    for t in t_values:
        h = traces.gaussian(float(t))
        k_top = math.sqrt(math.log(1e14) / float(t))
        if spec.kind == extensions.BK:
            spectrum = spectra.find_spectrum(sys_, (-k_top, k_top), tol=tol)
            report = traces.trace_rhs_bk(graph, sys_.s_bk, h, orbit_cutoff=cutoff)
        else:
            spectrum = spectra.find_spectrum(sys_, (0.0, k_top), tol=tol)
            report = traces.trace_rhs_bk2(graph, dec, h, orbit_cutoff=cutoff)
        lhs, tail = traces.trace_lhs(spectrum, h, graph.total_length)
        reports.append((float(t), report.with_lhs(lhs, tail)))
    _write_csv(out_dir / "trace.csv", ("t", "lhs", "rhs_total", "discrepancy"),
               [(t, r.lhs, r.rhs_total, r.discrepancy) for t, r in reports])
    _write_json(out_dir / "trace.json",
                {"reports": [{"t": t, **r.to_dict()} for t, r in reports]})


def _task_heat_trace(config, out_dir):
    graph = build_graph(config)
    if config.boundary and config.boundary.get("kind") != "dirichlet":
        raise ValidationError("heat-trace compares the single-edge Dirichlet system")
    t_values = config.numeric.get("t_values", [0.01, 0.1, 1.0, 10.0])
    rows = []
    max_diff = 0.0
    for t in t_values:
        pair = traces.heat_trace_pair(graph, float(t))
        rows.append((float(t), pair.spectral, pair.theta, pair.difference))
        max_diff = max(max_diff, pair.difference)
    _write_csv(out_dir / "heat_trace.csv", ("t", "spectral", "theta", "abs_diff"), rows)
    _write_json(out_dir / "heat_trace.json",
                {"max_abs_diff": max_diff, "n_t_values": len(rows)})


def _task_halfline_demo(config, out_dir):
    k_max = _numeric(config, "k_grid_max", 30.0)
    n_k = _numeric(config, "n_k", 1201, kind=int)
    ks = np.linspace(-k_max, k_max, n_k)
    amps = halfline.fermi_amplitude_closed(ks)
    mags = np.abs(amps) ** 2
    _write_csv(out_dir / "amplitude.csv", ("k", "re_a", "im_a", "abs_a_sq"),
               zip(ks.tolist(), amps.real.tolist(), amps.imag.tolist(), mags.tolist()))

    ref = abs(halfline.fermi_amplitude_closed(0.0)) ** 2
    mid = mags[1:-1]
    is_dip = (mid < mags[:-2]) & (mid < mags[2:]) & (mid < 1e-8 * ref)
    _write_json(out_dir / "halfline.json",
                {"k_grid_max": k_max, "n_k": n_k,
                 "normalization": ref, "dip_locations": ks[1:-1][is_dip].tolist()})


def _task_counting_compare(config, out_dir):
    graph = build_graph(config)
    sys_, spec, _ = build_system(config, graph)
    spectrum = _spectrum_from_config(config, graph, sys_)
    side = config.numeric.get("side",
                              "two_sided" if spec.kind == extensions.BK else "positive")
    k_start = _numeric(config, "k_start", 50.0)
    rows, monotone = traces.counting_comparison(spectrum, graph,
                                                k_start=k_start, side=side)
    _write_csv(out_dir / "counting.csv",
               ("k", "n_graph", "n_riemann", "ratio"), rows)
    _write_json(out_dir / "counting.json", {
        "ratio_monotone_decreasing": monotone,
        "side": side,
        "k_start": k_start,
        "first_ratio": rows[0][3],
        "last_ratio": rows[-1][3],
    })


_RUNNERS = {
    "validate": _task_validate,
    "spectrum": _task_spectrum,
    "weyl": _task_weyl,
    "trace-check": _task_trace_check,
    "heat-trace": _task_heat_trace,
    "halfline-demo": _task_halfline_demo,
    "counting-compare": _task_counting_compare,
}


def run(config: JobConfig, out_dir) -> int:
    """Execute one job; writes artifacts into out_dir and returns exit code."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        _RUNNERS[config.task](config, out_dir)
        return EXIT_OK
    except _VALIDATION_ERRORS as exc:
        _write_error(out_dir, exc)
        return EXIT_VALIDATION
    except XpGraphsError as exc:
        _write_error(out_dir, exc)
        return EXIT_COMPUTE
    except Exception as exc:  # keep the exit-code contract for unforeseen failures
        import traceback  # imported here: only this rare path needs it

        traceback.print_exc(file=sys.stderr)
        _write_error(out_dir, ComputeError(f"{type(exc).__name__}: {exc}"))
        return EXIT_COMPUTE


def _write_error(out_dir: Path, exc: XpGraphsError) -> None:
    payload = {"error": {"code": exc.code, "message": str(exc)}}
    _write_json(out_dir / "error.json", payload)
    print(json.dumps(payload), file=sys.stderr)


#: built once per process; parse_args keeps no state between calls
_PARSER = argparse.ArgumentParser(
    prog="xpgraphs",
    description="Spectral computations for dilation operators on metric graphs",
)
_PARSER.add_argument("--config", required=True, help="path to a JSON job document")
_PARSER.add_argument("--out", required=True, help="output directory for artifacts")
_PARSER.add_argument("--threads", type=int, default=1,
                     help="accepted and ignored: every spectral scan runs on one thread")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    out_dir = Path(args.out)
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_error(out_dir, ParseError(f"cannot read config: {exc}"))
        return EXIT_PARSE
    try:
        config = parse(text)
    except ParseError as exc:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_error(out_dir, exc)
        return EXIT_PARSE
    except ValidationError as exc:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_error(out_dir, exc)
        return EXIT_VALIDATION

    return run(config, out_dir)


if __name__ == "__main__":
    sys.exit(main())
