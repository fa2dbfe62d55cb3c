"""Configuration ingestion, command dispatch, machine-readable output.

A job is one JSON document: graph, boundary condition, task, numeric
options.  Data goes to CSV, reports to JSON; every failure exits with a
stable code (2 parse, 3 validation, 4 compute) and an error.json artifact
alone, since a task returns its artifacts as texts and ``run`` writes them
only after the task has returned.  Outputs are deterministic: fixed
orders, fixed formatting, no timestamps.
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

_VALIDATION_ERRORS = (ValidationError, GraphError, HermiticityViolation,
                      RankDeficient, RankAmbiguous)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_COMPUTE = 4

#: largest numeric.n_k: a grid of 10**6 points takes about 7 s and 0.5 GB
N_K_MAX = 10 ** 6


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

    Every numeric option present passes its check of ``_OPTIONS``; a key
    the table does not name is refused.

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
    if not isinstance(config.task, str) or config.task not in _TASKS:
        raise ValidationError(f"unknown task {config.task!r}; expected one of {tuple(_TASKS)}")
    if config.operator not in (extensions.BK, extensions.BK2):
        raise ValidationError(f"operator must be 'bk' or 'bk2', got {config.operator!r}")
    if not isinstance(config.numeric, dict):
        raise ValidationError("'numeric' must be an object")
    _, parts, required = _TASKS[config.task]
    for part, name in (("graph", "a graph"), ("boundary", "a boundary condition")):
        value = getattr(config, part)
        if part in parts and not value:
            raise ValidationError(f"task {config.task!r} needs {name}")
        if value is not None and not isinstance(value, dict):
            raise ValidationError(f"{part} must be an object")

    unknown = sorted(set(config.numeric) - set(_OPTIONS))
    if unknown:
        raise ValidationError(f"unknown numeric keys {unknown}; known: {sorted(_OPTIONS)}")
    num = {key: _option(config, key) for key in config.numeric}
    if "tol" in num:
        spectra.check_tol(num["tol"], [num[key] for key in ("k_min", "k_max") if key in num])
    if "k_min" in num and "k_max" in num and not num["k_min"] < num["k_max"]:
        raise ValidationError("need numeric.k_min < numeric.k_max")
    if config.task == "weyl" and "side" in num:
        # only a Weyl fit refuses two_sided counting of the squared operator
        spectra.check_side(num["side"], config.operator)
    if any(key not in num for key in required):
        raise ValidationError(f"task {config.task!r} needs "
                              + " and ".join(f"numeric.{key}" for key in required))
    return config


# ---------------------------------------------------------------------------
# Numeric options: one check and one default each
# ---------------------------------------------------------------------------

def _number(name: str, value) -> float:
    """A finite JSON number as a float.  Booleans are ints in Python but
    not numbers here, and json.loads accepts NaN and Infinity."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return float(value)


def _positive(name: str, value) -> float:
    if not _number(name, value) > 0.0:
        raise ValidationError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


def _count(name: str, value) -> int:
    n = _number(name, value)
    if n != math.floor(n) or not 0 <= n <= N_K_MAX:
        raise ValidationError(f"{name} must be a whole number in [0, {N_K_MAX}], got {value!r}")
    return int(n)


def _times(name: str, value) -> list:
    if not isinstance(value, list) or not value:
        raise ValidationError(f"{name} must be a nonempty list of positive finite numbers")
    return [_positive(name, t) for t in value]


def _side(name: str, value) -> str:
    spectra.check_side(value, extensions.BK)
    return value


#: numeric option -> (check that converts it, default when absent); the
#: defaults of t_values (per task) and side (per operator) are set where read
_OPTIONS = {
    "k_min": (_number, None),
    "k_max": (_number, None),
    "k_grid_max": (_number, 30.0),
    "k_start": (_number, 50.0),
    "tol": (_positive, spectra.DEFAULT_TOL),
    "kappa_max": (_positive, None),
    "orbit_cutoff": (_positive, None),
    "n_k": (_count, 1201),
    "t_values": (_times, None),
    "side": (_side, None),
}


def _option(config: JobConfig, key: str):
    """numeric.<key> through its check, or its default when absent."""
    check, default = _OPTIONS[key]
    return check(f"numeric.{key}", config.numeric[key]) if key in config.numeric else default


# ---------------------------------------------------------------------------
# Model construction from config
# ---------------------------------------------------------------------------

def _name(edge: dict, i: int, key: str, default: str) -> str:
    """graph.edges[i].<key>: a JSON string, or default when absent."""
    value = edge.get(key, default)
    if not isinstance(value, str):
        raise ValidationError(f"graph.edges[{i}].{key} must be a string, got {value!r}")
    return value


def build_graph(config: JobConfig) -> MetricGraph:
    gd = config.graph
    if not isinstance(gd, dict) or not isinstance(gd.get("edges"), list) or not gd["edges"]:
        raise ValidationError("graph must have a nonempty 'edges' list")
    directed = gd.get("directed", False)
    if not isinstance(directed, bool):
        raise ValidationError(f"graph.directed must be true or false, got {directed!r}")
    edges = []
    for i, e in enumerate(gd["edges"]):
        if not isinstance(e, dict):
            raise ValidationError(f"graph.edges[{i}] must be an object, got {e!r}")
        a, b = (_number(f"graph.edges[{i}].{end}", e.get(end)) for end in ("a", "b"))
        edges.append(MetricEdge(id=_name(e, i, "id", f"e{i}"), a=a, b=b,
                                start=_name(e, i, "from", f"v{i}"), end=_name(e, i, "to", f"v{i}")))
    return MetricGraph(edges=tuple(edges), directed=directed)


def _matrix_from_pairs(data, dim: int, name: str) -> np.ndarray:
    arr = extensions.finite_reals(data, name)
    if arr.shape != (dim, dim, 2):
        raise ValidationError(
            f"{name} must be a {dim}x{dim} matrix of [re, im] pairs, got shape {arr.shape}")
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
# Artifact texts
# ---------------------------------------------------------------------------

def _csv(header, rows) -> str:
    """CSV with CRLF line ends and floats to 17 significant digits.  No
    field holds a comma, quote or line break, so none is quoted."""
    lines = [",".join(header)]
    lines += [",".join([f"{x:.17g}" if isinstance(x, float) else str(x) for x in row])
              for row in rows]
    return "\r\n".join(lines) + "\r\n"


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Tasks: each returns its artifacts, file name -> text
# ---------------------------------------------------------------------------

def _task_validate(config):
    graph = build_graph(config)
    sys_, spec, dec = build_system(config, graph)
    report = {"valid": True, "operator": spec.kind, "matrix_size": spec.m,
              "graph_connected": graph.is_connected(), "total_length": graph.total_length}
    if dec is None:
        s = extensions.s_matrix_bk(spec)
        report["s_unitarity_defect"] = float(np.max(np.abs(
            s.conj().T @ s - np.eye(s.shape[0]))))
    else:
        report["sigma_l"] = [float(v) for v in dec.sigma_l]
        report["k_independent"] = dec.k_independent
        report["squared_form"] = (dec.k_independent and
                                  extensions.is_squared_form(sys_.s_part(1.0)))
    return {"report.json": _json(report)}


def _solve(config):
    """(graph, spectrum) of the document, bound states up to numeric.kappa_max
    included for the squared operator."""
    graph = build_graph(config)
    sys_, _, _ = build_system(config, graph)
    k_range = (_option(config, "k_min"), _option(config, "k_max"))
    spectrum = spectra.find_spectrum(sys_, k_range, tol=_option(config, "tol"))
    kappa_max = _option(config, "kappa_max")
    if kappa_max is not None and sys_.kind == extensions.BK2:
        negative = spectra.find_negative_eigenvalues(sys_, kappa_max)
        spectrum = dataclasses.replace(spectrum, negative=tuple(negative))
    return graph, spectrum


def _spectrum_artifacts(spectrum) -> dict:
    rows = [(n, k, g) for n, (k, g) in enumerate(spectrum.eigenvalues)]
    payload = {"kind": spectrum.kind, "k_window": list(spectrum.k_window),
               "n_eigenvalues": spectrum.total_count,
               "diagnostics": {k: (float(v) if isinstance(v, float) else v)
                               for k, v in spectrum.diagnostics.items()}}
    if spectrum.zero_mode is not None:
        payload["zero_mode"] = {"g0": spectrum.zero_mode[0], "N": spectrum.zero_mode[1]}
    if spectrum.negative:
        payload["negative"] = [{"kappa": k, "multiplicity": g}
                               for k, g in spectrum.negative]
    return {"spectrum.csv": _csv(("n", "k_n", "g_n"), rows), "spectrum.json": _json(payload)}


def _task_spectrum(config):
    return _spectrum_artifacts(_solve(config)[1])


def _task_weyl(config):
    graph, spectrum = _solve(config)
    fit = spectra.weyl_fit(spectrum, graph, side=_option(config, "side") or "positive")
    return {**_spectrum_artifacts(spectrum), "weyl.json": _json({
        "slope": fit.slope, "intercept": fit.intercept, "side": fit.side,
        "expected_slope": fit.expected_slope, "weyl_slope": graph.total_length / math.pi,
        "rel_error_vs_weyl": fit.rel_error_vs_weyl, "n_points": fit.n_points})}


def _task_trace_check(config):
    graph = build_graph(config)
    sys_, spec, dec = build_system(config, graph)
    cutoff, tol = _option(config, "orbit_cutoff"), _option(config, "tol")
    reports = []
    for t in _option(config, "t_values") or [0.1, 1.0]:
        h = traces.gaussian(t)
        k_top = math.sqrt(math.log(1e14) / t)
        # the geometric side first: its size bounds refuse a t before the solve
        if spec.kind == extensions.BK:
            report = traces.trace_rhs_bk(graph, sys_.s_bk, h, orbit_cutoff=cutoff)
            spectrum = spectra.find_spectrum(sys_, (-k_top, k_top), tol=tol)
        else:
            report = traces.trace_rhs_bk2(graph, dec, h, orbit_cutoff=cutoff)
            spectrum = spectra.find_spectrum(sys_, (0.0, k_top), tol=tol)
        lhs, tail = traces.trace_lhs(spectrum, h, graph.total_length)
        reports.append((t, report.with_lhs(lhs, tail)))
    return {"trace.csv": _csv(("t", "lhs", "rhs_total", "discrepancy"),
                              [(t, r.lhs, r.rhs_total, r.discrepancy) for t, r in reports]),
            "trace.json": _json({"reports": [{"t": t, **r.to_dict()} for t, r in reports]})}


def _task_heat_trace(config):
    graph = build_graph(config)
    if config.boundary and config.boundary.get("kind") != "dirichlet":
        raise ValidationError("heat-trace compares the single-edge Dirichlet system")
    rows = []
    max_diff = 0.0
    for t in _option(config, "t_values") or [0.01, 0.1, 1.0, 10.0]:
        pair = traces.heat_trace_pair(graph, t)
        rows.append((t, pair.spectral, pair.theta, pair.difference))
        max_diff = max(max_diff, pair.difference)
    return {"heat_trace.csv": _csv(("t", "spectral", "theta", "abs_diff"), rows),
            "heat_trace.json": _json({"max_abs_diff": max_diff, "n_t_values": len(rows)})}


def _task_halfline_demo(config):
    k_max, n_k = _option(config, "k_grid_max"), _option(config, "n_k")
    ks = np.linspace(-k_max, k_max, n_k)
    amps = halfline.fermi_amplitude_closed(ks)
    mags = np.abs(amps) ** 2
    ref = abs(halfline.fermi_amplitude_closed(0.0)) ** 2
    mid = mags[1:-1]
    is_dip = (mid < mags[:-2]) & (mid < mags[2:]) & (mid < 1e-8 * ref)
    return {"amplitude.csv": _csv(("k", "re_a", "im_a", "abs_a_sq"), zip(
                ks.tolist(), amps.real.tolist(), amps.imag.tolist(), mags.tolist())),
            "halfline.json": _json({"k_grid_max": k_max, "n_k": n_k, "normalization": ref,
                                    "dip_locations": ks[1:-1][is_dip].tolist()})}


def _task_counting_compare(config):
    graph, spectrum = _solve(config)
    side = _option(config, "side") or ("two_sided" if spectrum.kind == extensions.BK
                                       else "positive")
    k_start = _option(config, "k_start")
    rows, monotone = traces.counting_comparison(spectrum, graph, k_start=k_start, side=side)
    return {"counting.csv": _csv(("k", "n_graph", "n_riemann", "ratio"), rows),
            "counting.json": _json({
                "ratio_monotone_decreasing": monotone, "side": side, "k_start": k_start,
                "first_ratio": rows[0][3], "last_ratio": rows[-1][3]})}


#: task -> (runner, document parts it needs, numeric options it requires)
_TASKS = {
    "validate": (_task_validate, ("graph", "boundary"), ()),
    "spectrum": (_task_spectrum, ("graph", "boundary"), ("k_min", "k_max")),
    "weyl": (_task_weyl, ("graph", "boundary"), ("k_min", "k_max")),
    "trace-check": (_task_trace_check, ("graph", "boundary"), ()),
    "heat-trace": (_task_heat_trace, ("graph",), ()),
    "halfline-demo": (_task_halfline_demo, (), ()),
    "counting-compare": (_task_counting_compare, ("graph", "boundary"), ("k_min", "k_max")),
}


def run(config: JobConfig, out_dir) -> int:
    """Execute one job; writes its artifacts into out_dir once the task has
    returned them all, or error.json alone, and returns the exit code."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        for name, text in _TASKS[config.task][0](config).items():
            (out_dir / name).write_text(text, newline="")   # no line-end translation
    except XpGraphsError as exc:
        return _fail(out_dir, exc)
    except Exception as exc:  # keep the exit-code contract for unforeseen failures
        import traceback  # imported here: only this rare path needs it

        traceback.print_exc(file=sys.stderr)
        return _fail(out_dir, ComputeError(f"{type(exc).__name__}: {exc}"))
    return EXIT_OK


def _fail(out_dir: Path, exc: XpGraphsError) -> int:
    """Write error.json for exc into out_dir, made if missing, and return
    the exit code of its class."""
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {"error": {"code": exc.code, "message": str(exc)}}
    (out_dir / "error.json").write_text(_json(payload), newline="")
    print(json.dumps(payload), file=sys.stderr)
    if isinstance(exc, ParseError):
        return EXIT_PARSE
    return EXIT_VALIDATION if isinstance(exc, _VALIDATION_ERRORS) else EXIT_COMPUTE


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
    try:
        config = parse(Path(args.config).read_text())
    except OSError as exc:
        return _fail(Path(args.out), ParseError(f"cannot read config: {exc}"))
    except XpGraphsError as exc:
        return _fail(Path(args.out), exc)
    return run(config, Path(args.out))


if __name__ == "__main__":
    sys.exit(main())
