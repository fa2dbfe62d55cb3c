"""Counters and spans recorded at the layer boundaries of xpgraphs.

Nothing in the package changes.  ``Instrument.install`` replaces the public
names that one module calls in another (``traces.enumerate_orbits``,
``spectra.s_matrix_bk2``, ``SecularSystem.u_matrix``, ``numpy.linalg.eigvals``,
``scipy.integrate.quad`` ...) with wrappers, in every module that holds them,
and ``uninstall`` puts the originals back.

Two modes:

* counting (untraced runs): only the deterministic counts - matrix evals and
  roots from ``Spectrum.diagnostics``, S''(k) builds, eigvals calls, and the
  orbit count of each trace report.  These wrappers add a lock and an
  increment to a handful of names.
* spans (traced runs): every boundary records a span (name, start, end,
  parent span, job id) into column arrays kept in memory; ``write`` saves
  them when the process ends.  Per-layer metrics are derived from the spans
  of each pass by ``span_metrics``.
"""

from __future__ import annotations

import builtins
import sys
import threading
import time
from array import array
from collections import Counter

import numpy as np

import xpgraphs
from xpgraphs import cli, extensions, graph, halfline, spectra, traces

#: modules whose attributes are swapped for wrappers
_MODULES = (xpgraphs, spectra, extensions, graph, traces, halfline, cli)

#: span name -> the function it wraps; every module attribute bound to that
#: function is replaced
BOUNDARIES = {
    "spectra.find_spectrum": spectra.find_spectrum,
    "spectra.find_negative_eigenvalues": spectra.find_negative_eigenvalues,
    "spectra.secular": spectra.secular,
    "spectra.zero_mode_test": spectra.zero_mode_test,
    "extensions.s_matrix_bk2": extensions.s_matrix_bk2,
    "extensions.s_matrix_bk2_derivative": extensions.s_matrix_bk2_derivative,
    "extensions.decompose": extensions.decompose,
    "extensions.validate_extension": extensions.validate_extension,
    "graph.enumerate_orbits": graph.enumerate_orbits,
    "graph.orbit_amplitude": graph.orbit_amplitude,
    "traces.trace_rhs": (traces.trace_rhs_bk, traces.trace_rhs_bk2),
    "traces.trace_lhs": traces.trace_lhs,
    "halfline.fermi_amplitude_closed": halfline.fermi_amplitude_closed,
    "halfline.zeta_critical": halfline.zeta_critical,
    "cli.main": cli.main,
    "cli.parse": cli.parse,
}

#: boundaries wrapped in counting mode as well (numpy.linalg.eigvals always is)
COUNTED = ("spectra.find_spectrum", "extensions.s_matrix_bk2", "traces.trace_rhs")

#: tally keys that must repeat exactly for one seed
DETERMINISTIC = ("spectra.matrix_evals", "spectra.roots", "spectra.eigvals_calls",
                 "extensions.s_matrix_bk2_calls", "traces.orbits_per_report")


class Instrument:
    """Wrappers plus what they record; one per worker process."""

    def __init__(self, spans: bool):
        self.spans = spans
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_ident = threading.main_thread().ident
        self._main_stack: list[int] = []
        self._saved: list[tuple] = []
        self.job = -1
        self.tally: Counter = Counter()
        self.orbits_per_report: list[int] = []
        # span columns
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.col_name = array("i")
        self.col_parent = array("i")
        self.col_job = array("i")
        self.col_start = array("d")
        self.col_end = array("d")

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name_id: int) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # a pool thread started inside a span of the main thread
            parent = self._main_stack[-1] if self._main_stack else -1
        with self._lock:
            idx = len(self.col_name)
            self.col_name.append(name_id)
            self.col_parent.append(parent)
            self.col_job.append(self.job)
            self.col_end.append(0.0)
            self.col_start.append(time.perf_counter())
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.col_end[idx] = time.perf_counter()
        self._stack().pop()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _observer(self, name: str):
        """Counts a boundary contributes from its arguments or result, or None."""
        lock, tally = self._lock, self.tally
        if name == "spectra.find_spectrum":
            def observe(args, result):
                with lock:
                    tally["spectra.matrix_evals"] += result.diagnostics.get("matrix_evals", 0)
                    tally["spectra.roots"] += result.total_count
        elif name in ("spectra.eigvals", "spectra.det"):
            calls = name + "_calls"

            def observe(args, result):
                n = np.shape(args[0])[-1]
                with lock:
                    tally[calls] += 1
                    tally["spectra.bytes_computed"] += 16 * n * n
        elif name == "extensions.s_matrix_bk2":
            def observe(args, result):
                with lock:
                    tally["extensions.s_matrix_bk2_calls"] += 1
        elif name == "traces.trace_rhs":
            def observe(args, result):
                with lock:
                    self.orbits_per_report.append(result.n_orbits)
                    tally["traces.n_orbits"] += result.n_orbits
        elif name == "graph.enumerate_orbits":
            def observe(args, result):
                with lock:
                    tally["graph.orbits_enumerated"] += len(result)
        else:
            observe = None
        return observe

    def _wrap(self, name: str, fn):
        observe = self._observer(name)
        if not self.spans:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                observe(args, result)
                return result
            return counted

        name_id = self._name_id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if observe is not None:
                observe(args, result)
            return result
        return traced

    # -- installation ------------------------------------------------------

    def _swap(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        for name in BOUNDARIES if self.spans else COUNTED:
            fns = BOUNDARIES[name]
            for fn in (fns if isinstance(fns, tuple) else (fns,)):
                wrapper = self._wrap(name, fn)
                for module in _MODULES:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._swap(module, attr, wrapper)
        self._swap(np.linalg, "eigvals", self._wrap("spectra.eigvals", np.linalg.eigvals))
        if self.spans:
            self._swap(np.linalg, "det", self._wrap("spectra.det", np.linalg.det))
            self._swap(spectra.SecularSystem, "u_matrix",
                       self._wrap("spectra.u_matrix", spectra.SecularSystem.u_matrix))
            self._install_quad()

    def _install_quad(self) -> None:
        """Wrap scipy.integrate.quad without importing scipy early.

        traces imports quad lazily; that first import is timed as the span
        ``traces.scipy_import`` and the module's ``quad`` is wrapped before
        the importing statement reads it.
        """
        real_import = builtins.__import__
        import_id = self._name_id("traces.scipy_import")

        def importer(name, globals=None, locals=None, fromlist=(), level=0):
            if name != "scipy.integrate" or level:
                return real_import(name, globals, locals, fromlist, level)
            idx = None if name in sys.modules else self._open(import_id)
            try:
                module = real_import(name, globals, locals, fromlist, level)
            finally:
                if idx is not None:
                    self._close(idx)
            integrate = sys.modules[name]
            if not getattr(integrate.quad, "_bench", False):
                wrapped = self._wrap("traces.quad", integrate.quad)
                wrapped._bench = True
                self._swap(integrate, "quad", wrapped)
            return module

        self._swap(builtins, "__import__", importer)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- per-pass bookkeeping ----------------------------------------------

    def n_spans(self) -> int:
        return len(self.col_name)

    def take_counts(self) -> dict:
        """Tallies since the last call, then reset."""
        with self._lock:
            out = dict(self.tally)
            out["traces.orbits_per_report"] = list(self.orbits_per_report)
            self.tally.clear()
            self.orbits_per_report.clear()
        return out

    def write(self, path) -> None:
        """Save every span as columns; names are indexed by ``name``."""
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.col_name, np.int32),
            parent=np.frombuffer(self.col_parent, np.int32),
            job=np.frombuffer(self.col_job, np.int32),
            start=np.frombuffer(self.col_start), end=np.frombuffer(self.col_end))


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------

def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


#: boundaries whose self time is reported
SELF_TIMED = ("spectra.find_spectrum", "traces.trace_rhs", "cli.main")

#: every span name, including the ones not in BOUNDARIES
SPAN_NAMES = tuple(BOUNDARIES) + ("spectra.u_matrix", "spectra.eigvals", "spectra.det",
                                  "traces.quad", "traces.scipy_import")


def span_metrics(inst: Instrument, lo: int, hi: int) -> dict:
    """Calls, inclusive busy time and self time per span name for spans [lo, hi).

    Inclusive time sums the spans that have no ancestor of the same name;
    self time subtracts the part of a span that its child spans cover.
    Spans of pool threads count in full, so busy time can exceed wall time.
    """
    names, col_name, col_parent = inst.names, inst.col_name, inst.col_parent
    start, end = inst.col_start, inst.col_end
    calls: Counter = Counter()
    busy: Counter = Counter()
    selfs: Counter = Counter()
    children: dict[int, list] = {}
    for i in range(lo, hi):
        if col_parent[i] >= lo:
            children.setdefault(col_parent[i], []).append(i)
    for i in range(lo, hi):
        name = names[col_name[i]]
        calls[name] += 1
        dur = end[i] - start[i]
        p = col_parent[i]
        while p >= lo and col_name[p] != col_name[i]:
            p = col_parent[p]
        if p < lo:
            busy[name] += dur
        if name in SELF_TIMED:
            kids = [(max(start[c], start[i]), min(end[c], end[i]))
                    for c in children.get(i, ())]
            selfs[name] += dur - _covered([iv for iv in kids if iv[1] > iv[0]])

    out = {}
    for name in SPAN_NAMES:
        out[f"{name}_calls"] = calls[name]
        out[f"{name}_s"] = busy[name]
    for name in SELF_TIMED:
        out[f"{name}_self_s"] = selfs[name]
    out["spectra.linalg_s"] = busy["spectra.eigvals"] + busy["spectra.det"]
    return out
