"""Trace formulas, heat traces, counting comparisons, EBK levels."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xpgraphs as xg
from xpgraphs.errors import ConditionViolated
from xpgraphs.extensions import s_matrix_bk2_derivative
from xpgraphs.spectra import _swap_halves
from xpgraphs.traces import (
    _GL_NODES,
    _GL_WEIGHTS,
    _default_cutoff,
    _gl_grid,
    _resolvent_sum,
    _s_trace_integral,
    length_condition,
)

from util import converged_orbit_sum_kdep, random_unitary, reference_orbit_sum, tabulated

PI = math.pi

# direct-summation oracle: sum_{n>=1} exp(-n^2), frozen
SUM_EXP_MINUS_N_SQ = 0.38631860241332787
# and the two-sided version 1 + 2 * the above
SUM_EXP_TWO_SIDED = 1.7726372048266557


# one Robin (rho = 1, length-4 edge) report and one constant-S first-order
# report on three edges, every float field as float.hex
TRACE_REPORTS_SCRIPT = """
import json, math
import numpy as np
import xpgraphs as xg
g = xg.MetricGraph.from_intervals([(1.0, math.exp(4.0))])
dec = xg.decompose(xg.standard_bc("robin", g, rho=1.0), xg.DilationMatrices.from_graph(g))
robin = xg.trace_rhs_bk2(g, dec, xg.gaussian(1.0)).to_dict()
g3 = xg.MetricGraph.from_intervals([(1.0, math.exp(l)) for l in (1.3, 1.5, 1.7)])
j = np.arange(3)
s3 = np.exp(0.3j * j)[:, None] * np.exp(2j * math.pi * np.outer(j, j) / 3) / math.sqrt(3)
first_order = xg.trace_rhs_bk(g3, s3, xg.gaussian(0.5)).to_dict()
print(json.dumps({name: {k: v.hex() if isinstance(v, float) else v for k, v in r.items()}
                  for name, r in (("robin", robin), ("first_order", first_order))}))
"""


# a fresh interpreter in which scipy cannot be imported runs a constant-S
# squared trace (Kirchhoff 3-star), a k-dependent one (Robin rho = 1,
# length-4 edge) and one document of every task through the CLI, then lists
# the scipy and numpy.polynomial modules it loaded
COLD_START_SCRIPT = """
import json, math, sys, tempfile
from pathlib import Path
sys.modules["scipy"] = None
import xpgraphs as xg
from xpgraphs import cli
g = xg.MetricGraph.from_intervals([(1.0, math.e)] * 3,
                                  vertices=[("c", f"t{i}") for i in range(3)])
dec = xg.decompose(xg.standard_bc("kirchhoff", g), xg.DilationMatrices.from_graph(g))
xg.trace_rhs_bk2(g, dec, xg.gaussian(1.0))
g = xg.MetricGraph.from_intervals([(1.0, math.exp(4.0))])
dec = xg.decompose(xg.standard_bc("robin", g, rho=1.0), xg.DilationMatrices.from_graph(g))
xg.trace_rhs_bk2(g, dec, xg.gaussian(1.0))
edge = {"edges": [{"id": "e0", "a": 1.0, "b": math.e}]}
robin = {"graph": {"edges": [{"id": "e0", "a": 1.0, "b": math.exp(4.0)}]},
         "boundary": {"kind": "robin", "rho": 1.0}}
ring = {"operator": "bk", "boundary": {"kind": "ring_phase", "c": 0.25},
        "graph": {"edges": [{"id": "e0", "a": 1.0, "b": math.e, "from": "v", "to": "v"}],
                  "directed": True}}
documents = {
    "validate": {"graph": edge, "boundary": {"kind": "neumann"}},
    "spectrum": {**robin, "numeric": {"k_min": 0.0, "k_max": 8.0, "kappa_max": 4.0}},
    "weyl": {**ring, "numeric": {"k_min": -150.0, "k_max": 150.0, "side": "two_sided"}},
    "trace-check": {**robin, "numeric": {"t_values": [1.0]}},
    "heat-trace": {"graph": edge, "numeric": {"t_values": [0.1, 1.0]}},
    "halfline-demo": {"numeric": {"k_grid_max": 20.0, "n_k": 101}},
    "counting-compare": {**ring, "numeric": {"k_min": -80.0, "k_max": 80.0}},
}
codes = {}
with tempfile.TemporaryDirectory() as tmp:
    for task, document in documents.items():
        config = Path(tmp) / f"{task}.json"
        config.write_text(json.dumps({"task": task, "operator": "bk2", **document}))
        codes[task] = cli.main(["--config", str(config), "--out", str(Path(tmp) / task)])
loaded = sorted(m for m, module in sys.modules.items() if module is not None
                and (m == "scipy" or m.startswith(("scipy.", "numpy.polynomial"))))
print(json.dumps({"exit_codes": codes, "loaded": loaded}))
"""


def run_python(script, **env_vars):
    """stdout of ``script`` in a fresh interpreter that imports this xpgraphs."""
    src = str(Path(xg.__file__).resolve().parents[1])
    env = dict(os.environ, **env_vars, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True, timeout=120).stdout


def ring_setup(c, a=1.0, b=math.e):
    g = xg.MetricGraph.from_intervals([(a, b)], directed=True)
    s = xg.s_matrix_bk(xg.standard_bc("ring_phase", g, c=c))
    return g, s, xg.SecularSystem.bk(s, g)


def bk2_setup(kind, a=1.0, b=math.e, **kw):
    g = xg.MetricGraph.from_intervals([(a, b)])
    dec = xg.decompose(xg.standard_bc(kind, g, **kw),
                       xg.DilationMatrices.from_graph(g))
    return g, dec, xg.SecularSystem.bk2(dec, g)


class TestTestFunctions:
    def test_gaussian_hat_at_zero(self):
        # (1/2pi) int exp(-k^2) dk = 1/(2 sqrt(pi))
        h = xg.gaussian(1.0)
        assert float(h.hat(0.0)) == pytest.approx(0.28209479177387814, abs=1e-15)

    def test_gaussian_quarter_width(self):
        h = xg.gaussian(0.25)
        assert float(h.hat(0.0)) == pytest.approx(1.0 / math.sqrt(PI), abs=1e-15)

    def test_hat_even(self):
        for h in (xg.gaussian(0.7), xg.gaussian_shifted(0.5, 3.0)):
            for y in (0.3, 1.7, 6.0):
                assert float(h.hat(y)) == pytest.approx(float(h.hat(-y)), abs=1e-14)

    def test_h_even_and_decaying(self):
        for h in (xg.gaussian(0.7), xg.gaussian_shifted(0.5, 3.0)):
            ks = np.linspace(0.0, 40.0, 100)
            assert np.allclose(h(ks), h(-ks), atol=1e-15)
            assert abs(float(h(40.0))) < 1e-4 * abs(float(h(0.0)))

    def test_shifted_gaussian_hat_matches_quadrature(self):
        h = xg.gaussian_shifted(0.5, 2.0)
        tab = tabulated(h.h, k_max=30.0, n=30001)
        for y in (0.0, 0.9, 2.5):
            assert float(h.hat(y)) == pytest.approx(float(tab.hat(y)), abs=1e-8)


class TestTraceLhs:
    def test_ring_two_sided_gaussian(self):
        # ring with unit spacing: k_n = n over all integers
        g, s, sys_ = ring_setup(0.0, 1.0, math.exp(2 * PI))
        sp = xg.find_spectrum(sys_, (-8.5, 8.5), tol=1e-12)
        h = xg.gaussian(1.0)
        value, tail = xg.trace_lhs(sp, h, g.total_length)
        assert value == pytest.approx(SUM_EXP_TWO_SIDED, abs=1e-12)

    def test_dirichlet_positive_gaussian(self):
        g, dec, sys_ = bk2_setup("dirichlet", 1.0, math.exp(PI))
        sp = xg.find_spectrum(sys_, (0.0, 8.0), tol=1e-12)
        value, _ = xg.trace_lhs(sp, xg.gaussian(1.0), g.total_length)
        assert value == pytest.approx(SUM_EXP_MINUS_N_SQ, abs=1e-12)

    def test_empty_spectrum(self):
        g, dec, sys_ = bk2_setup("dirichlet")
        sp = xg.find_spectrum(sys_, (0.0, 2.0), tol=1e-12)
        value, _ = xg.trace_lhs(sp, xg.gaussian(1.0), g.total_length,
                                include_zero_mode=False)
        assert value == 0.0

    def test_tail_budget_enforced(self):
        g, dec, sys_ = bk2_setup("dirichlet")
        sp = xg.find_spectrum(sys_, (0.0, 4.0), tol=1e-12)
        with pytest.raises(xg.TailBoundExceeded):
            xg.trace_lhs(sp, xg.gaussian(0.05), g.total_length, tail_budget=1e-12)


class TestFirstOrderTrace:
    @pytest.mark.parametrize("c", [0.0, 0.25, 0.5])
    @pytest.mark.parametrize("t", [0.1, 1.0])
    def test_ring_identity(self, c, t):
        g, s, sys_ = ring_setup(c)
        h = xg.gaussian(t)
        big_k = math.sqrt(math.log(1e15) / t) + 7.0
        sp = xg.find_spectrum(sys_, (-big_k, big_k), tol=1e-12)
        lhs, lhs_tail = xg.trace_lhs(sp, h, g.total_length)
        report = xg.trace_rhs_bk(g, s, h)
        assert lhs_tail < 1e-10
        assert report.orbit_tail_bound < 1e-10
        assert abs(lhs - report.rhs_total) <= 1e-8

    def test_ring_rhs_matches_poisson_oracle(self):
        # independent evaluation of the geometric side by direct summation
        c, t = 0.25, 0.4
        g, s, _ = ring_setup(c)
        h = xg.gaussian(t)
        report = xg.trace_rhs_bk(g, s, h)
        ell = g.total_length
        hat = lambda y: math.exp(-y * y / (4 * t)) / (2 * math.sqrt(PI * t))
        direct = ell * hat(0.0) + sum(
            2.0 * ell * math.cos(2 * PI * c * n) * hat(n * ell)
            for n in range(1, 60))
        assert report.rhs_total == pytest.approx(direct, abs=1e-13)

    def test_zero_pattern_leaves_weyl_term(self):
        g = xg.MetricGraph.from_intervals([(1.0, math.e)])
        h = xg.gaussian(0.5)
        report = xg.trace_rhs_bk(g, np.zeros((1, 1)), h)
        assert report.orbit_sum == 0.0
        assert report.rhs_total == pytest.approx(g.total_length * float(h.hat(0.0)))

    def test_report_serializes(self):
        g, s, _ = ring_setup(0.0)
        report = xg.trace_rhs_bk(g, s, xg.gaussian(1.0)).with_lhs(1.0, 1e-12)
        d = report.to_dict()
        assert {"lhs", "rhs_total", "weyl_term", "orbit_sum", "discrepancy"} <= d.keys()


class TestSecondOrderTrace:
    @pytest.mark.parametrize("kind,t", [("dirichlet", 0.1), ("dirichlet", 1.0),
                                        ("neumann", 0.1), ("neumann", 1.0)])
    def test_single_edge_identity(self, kind, t):
        g, dec, sys_ = bk2_setup(kind)
        h = xg.gaussian(t)
        big_k = math.sqrt(math.log(1e15) / t)
        sp = xg.find_spectrum(sys_, (0.0, big_k), tol=1e-12)
        lhs, _ = xg.trace_lhs(sp, h, g.total_length)
        report = xg.trace_rhs_bk2(g, dec, h)
        assert abs(lhs - report.rhs_total) <= 1e-9

    def test_dirichlet_boundary_term(self):
        g, dec, _ = bk2_setup("dirichlet")
        report = xg.trace_rhs_bk2(g, dec, xg.gaussian(1.0))
        assert report.boundary_term == pytest.approx(-0.5, abs=1e-13)

    def test_neumann_boundary_term_and_integral(self):
        g, dec, _ = bk2_setup("neumann")
        report = xg.trace_rhs_bk2(g, dec, xg.gaussian(1.0))
        assert report.boundary_term == pytest.approx(+0.5, abs=1e-13)
        assert report.s_matrix_integral == 0.0

    def test_heat_kernel_structure_matches_theta_series(self):
        # geometric side reproduces L/(2 sqrt(pi t)) - 1/2 + sum l_p hhat(n l_p)
        g, dec, _ = bk2_setup("dirichlet")
        t = 0.5
        report = xg.trace_rhs_bk2(g, dec, xg.gaussian(t))
        ell = g.total_length
        lp = 2.0 * ell
        expected = ell / (2 * math.sqrt(PI * t)) - 0.5 + sum(
            lp / (2 * math.sqrt(PI * t)) * math.exp(-(n * lp) ** 2 / (4 * t))
            for n in range(1, 40))
        assert report.rhs_total == pytest.approx(expected, abs=1e-13)

    def test_robin_identity_with_negative_spectrum(self):
        # rho = 1 on a long edge: bound states exist but belong to the
        # geometric side, not the spectral sum
        ell = 4.0
        g, dec, sys_ = bk2_setup("robin", b=math.exp(ell), rho=1.0)
        negs = xg.find_negative_eigenvalues(sys_, 4.0)
        assert len(negs) == 2
        for t in (0.2, 1.0):
            h = xg.gaussian(t)
            big_k = math.sqrt(math.log(1e15) / t)
            sp = xg.find_spectrum(sys_, (0.0, big_k), tol=1e-12)
            sp = dataclasses.replace(sp, negative=tuple(negs))
            lhs, _ = xg.trace_lhs(sp, h, g.total_length)
            report = xg.trace_rhs_bk2(g, dec, h)
            assert abs(lhs - report.rhs_total) <= 1e-9
            lhs_imag, _ = xg.trace_lhs(sp, h, g.total_length, include_imaginary=True)
            assert abs(lhs_imag - report.rhs_total) > 1.0

    @pytest.mark.parametrize("t", [1e3, 1e4, 1e6, 1e8])
    @pytest.mark.parametrize("rho, ell", [(1.0, 4.0), (-0.3, 2.0)])
    def test_robin_identity_with_a_narrow_gaussian(self, rho, ell, t):
        # at large t h is narrower than lam_min / 2, the first panel of the
        # S-trace integral, whose nodes all missed it (|lhs - rhs| 5.6e-4 at
        # t = 1e6 on rho = 1, and the integral 5e-308 at t = 1e8)
        g, dec, sys_ = bk2_setup("robin", b=math.exp(ell), rho=rho)
        h = xg.gaussian(t)
        sp = xg.find_spectrum(sys_, (0.0, math.sqrt(math.log(1e14) / t)))
        lhs, _ = xg.trace_lhs(sp, h, g.total_length)
        assert abs(lhs - xg.trace_rhs_bk2(g, dec, h).rhs_total) <= 1e-8

    def test_robin_identity_with_every_orbit_beyond_the_cutoff(self):
        # the shortest orbit, 9.4, is longer than the Gaussian cutoff 8.6 at
        # t = 0.2, yet the poles keep its term near 1e-3
        g, dec, sys_ = bk2_setup("robin", b=math.exp(4.7), rho=1.0)
        h = xg.gaussian(0.2)
        sp = xg.find_spectrum(sys_, (0.0, math.sqrt(math.log(1e15) / 0.2)), tol=1e-12)
        lhs, _ = xg.trace_lhs(sp, h, g.total_length)
        report = xg.trace_rhs_bk2(g, dec, h)
        assert report.orbit_sum > 1e-4
        assert report.orbit_tail_bound <= 1e-10
        assert abs(lhs - report.rhs_total) <= 1e-9

    def test_robin_s_integral_matches_erfc_form(self):
        # for Gaussian h the integral term has closed form
        # -(1/2) sum_j sign(lam) exp(lam^2 t) erfc(|lam| sqrt t)
        ell = 4.0
        g, dec, _ = bk2_setup("robin", b=math.exp(ell), rho=1.0)
        for t in (0.3, 1.0):
            report = xg.trace_rhs_bk2(g, dec, xg.gaussian(t))
            closed = -math.exp(t) * math.erfc(math.sqrt(t))
            assert report.s_matrix_integral == pytest.approx(closed, abs=1e-11)

    def test_robin_report_independent_of_blas_threads(self):
        # two processes, one and two BLAS threads: every field bit for bit
        reports = [json.loads(run_python(TRACE_REPORTS_SCRIPT, OPENBLAS_NUM_THREADS=threads,
                                         OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads))
                   for threads in ("1", "2")]
        assert reports[0]["robin"]["n_orbits"] > 0
        assert reports[0]["first_order"]["n_orbits"] > 0
        assert reports[0] == reports[1]

    def test_trace_paths_skip_scipy_and_numpy_polynomial(self):
        # every quadrature of the trace side is numpy with a fixed
        # Gauss-Legendre table: a cold process loads neither package, and
        # every task runs where scipy cannot be imported
        result = json.loads(run_python(COLD_START_SCRIPT))
        tasks = ("validate", "spectrum", "weyl", "trace-check", "heat-trace",
                 "halfline-demo", "counting-compare")
        assert result == {"exit_codes": dict.fromkeys(tasks, 0), "loaded": []}

    def test_gauss_legendre_table_is_leggauss_16(self):
        nodes, weights = np.polynomial.legendre.leggauss(16)
        assert np.array_equal(_GL_NODES.view(np.uint64), nodes.view(np.uint64))
        assert np.array_equal(_GL_WEIGHTS.view(np.uint64), weights.view(np.uint64))

    @pytest.mark.parametrize("n", range(32))
    def test_gl_panel_integrates_monomials_exactly(self, n):
        # 16 points are exact through degree 31: only rounding remains
        xs, ws = _gl_grid(np.array([0.5, 2.0]))
        exact = (2.0 ** (n + 1) - 0.5 ** (n + 1)) / (n + 1)
        assert float(np.sum(ws * xs ** n)) == pytest.approx(exact, rel=1e-14)

    @pytest.mark.parametrize("t", [0.05, 0.3, 1.0, 5.0])
    def test_s_integral_matches_erfc_form_on_graded_panels(self, t):
        # -(1/2) sum_j sign(lam) exp(lam^2 t) erfc(|lam| sqrt t), with a
        # negative pole and one near 1e-3, whose Lorentzian the panels resolve
        g = xg.MetricGraph.from_intervals([(1.0, math.e), (1.0, math.exp(2.0))])
        dec = xg.decompose(xg.standard_bc("robin", g, rho=[-0.7, 1e-3, 1.0, 2.5]),
                           xg.DilationMatrices.from_graph(g))
        lam = dec.poles
        assert np.min(lam) < 0.0 and np.min(np.abs(lam)) < 2e-3
        closed = -0.5 * sum(math.copysign(1.0, x) * math.exp(x * x * t)
                            * math.erfc(abs(x) * math.sqrt(t)) for x in lam)
        assert _s_trace_integral(dec, xg.gaussian(t)) == pytest.approx(closed, abs=1e-12)

    @pytest.mark.parametrize("rho", [(-1e-3, 1.0), (-1e-4, 1.0), (-1e-6, 1.0)],
                             ids=["1e-3", "1e-4", "1e-6"])
    def test_pole_near_the_real_axis_is_summed(self, rho):
        # a pole just below the real axis: on the shifted line the orbit
        # integrand stays smooth, and the bound needs no more nodes
        g, dec, sys_ = bk2_setup("robin", b=math.exp(4.7), rho=list(rho))
        h = xg.gaussian(1.0)
        sp = xg.find_spectrum(sys_, (0.0, math.sqrt(math.log(1e15))), tol=1e-12)
        lhs, _ = xg.trace_lhs(sp, h, g.total_length)
        report = xg.trace_rhs_bk2(g, dec, h)
        assert report.orbit_tail_bound <= 1e-10
        assert report.n_nodes < 1000
        assert abs(lhs - report.rhs_total) <= 1e-8

    def test_moving_the_line_across_a_bound_state_adds_its_residue(self):
        # Robin rho = 1 on log length 3: one bound state at k = i kappa,
        # kappa ~ 0.8586, below the pole at i.  Above it, (1/2pi) times the
        # line integral of h(k) i d/dk log det(I - U) gains m h(i kappa).
        g, dec, sys_ = bk2_setup("robin", b=math.exp(3.0), rho=1.0)
        ((kappa, mult),) = xg.find_negative_eigenvalues(sys_, 0.99)
        assert 0.858 < kappa < 0.859
        h = xg.gaussian(1.0)

        def d_bond(ks):
            return _swap_halves(s_matrix_bk2_derivative(dec, ks))

        below, above = (_resolvent_sum(sys_.bond_matrix, sys_.weights, h, eta, 0.004, 8.0,
                                       d_bond)[0] for eta in (0.5, 0.93))
        assert abs((above - below) - mult * float(np.real(h(1j * kappa)))) <= 1e-10

    def test_shifted_gaussian_identity(self):
        # the pair of Gaussians at +-3 grows off the real axis like the
        # centred one: the Robin edge's trace identity holds through it
        g, dec, sys_ = bk2_setup("robin", b=math.exp(4.0), rho=1.0)
        h = xg.gaussian_shifted(0.5, 3.0)
        sp = xg.find_spectrum(sys_, (0.0, 12.0), tol=1e-12)
        lhs, lhs_tail = xg.trace_lhs(sp, h, g.total_length)
        report = xg.trace_rhs_bk2(g, dec, h)
        assert lhs_tail <= 1e-15 and report.orbit_tail_bound <= 1e-13
        assert abs(lhs - report.rhs_total) <= 1e-12

    def test_test_function_without_growth_bound_is_refused(self):
        # a tabulated h says nothing about h off the real axis
        g, dec, _ = bk2_setup("dirichlet")
        tab = tabulated(xg.gaussian(1.0).h, k_max=30.0)
        with pytest.raises(xg.ValidationError, match="Gaussian"):
            xg.trace_rhs_bk2(g, dec, tab)

    def test_condition_violated_for_short_edge(self):
        g, dec, sys_ = bk2_setup("robin", rho=1.0)  # ell = 1 < l(sigma) ~ 3.45
        sigma, l_sigma = length_condition(dec, g)
        assert 3.4 < l_sigma < 3.5
        with pytest.raises(ConditionViolated):
            xg.trace_rhs_bk2(g, dec, xg.gaussian(1.0))

    def test_star_identity(self):
        verts = [("c", f"t{i}") for i in range(3)]
        g = xg.MetricGraph.from_intervals([(1.0, math.e)] * 3, vertices=verts)
        dec = xg.decompose(xg.standard_bc("kirchhoff", g),
                           xg.DilationMatrices.from_graph(g))
        sys_ = xg.SecularSystem.bk2(dec, g)
        for t in (0.1, 1.0):
            h = xg.gaussian(t)
            big_k = math.sqrt(math.log(1e15) / t)
            sp = xg.find_spectrum(sys_, (0.0, big_k), tol=1e-12)
            lhs, _ = xg.trace_lhs(sp, h, g.total_length)
            report = xg.trace_rhs_bk2(g, dec, h)
            assert abs(lhs - report.rhs_total) <= 1e-9

    @pytest.mark.parametrize("t", [0.1, 1.0])
    def test_short_star_tail_bounds(self, t):
        # three edges of log length 0.049: the walk count bound alone is
        # 1e218 at t = 1, the contour-shift bound for Gaussian h is tight
        verts = [("c", f"t{i}") for i in range(3)]
        g = xg.MetricGraph.from_intervals([(1.0, 1.05)] * 3, vertices=verts)
        dec = xg.decompose(xg.standard_bc("kirchhoff", g),
                           xg.DilationMatrices.from_graph(g))
        h = xg.gaussian(t)
        sp = xg.find_spectrum(xg.SecularSystem.bk2(dec, g),
                              (0.0, math.sqrt(math.log(1e15) / t)), tol=1e-12)
        lhs, lhs_tail = xg.trace_lhs(sp, h, g.total_length)
        report = xg.trace_rhs_bk2(g, dec, h)
        assert report.orbit_tail_bound <= 1e-10
        assert lhs_tail <= 1e-10
        assert abs(lhs - report.rhs_total) <= 1e-8

    def test_weyl_term_dominates_small_t(self):
        g, dec, _ = bk2_setup("dirichlet")
        report = xg.trace_rhs_bk2(g, dec, xg.gaussian(1e-3))
        others = abs(report.boundary_term) + abs(report.s_matrix_integral) \
            + abs(report.orbit_sum)
        assert report.weyl_term > 10.0 * others
        assert np.isfinite(report.rhs_total)


def check_power_sum(report, bond, weights, h, doubling):
    """Orbit sum against the orbit-by-orbit oracle, and the Burnside count
    against the orbits of at most N steps, N = floor(cutoff / w_min) + 1."""
    cutoff = _default_cutoff(h)
    ref = doubling * reference_orbit_sum(bond, weights, h, cutoff)
    assert abs(report.orbit_sum - ref) <= 1e-13
    n_max = int(cutoff / float(np.min(weights))) + 1
    ones = np.ones(len(weights))
    assert report.n_orbits == len(xg.enumerate_orbits(bond, ones, n_max))


def draw_log_lengths(rng, n, equal):
    if equal:
        return [1.2 + 1.3 * rng.random()] * n
    return list(1.2 + 1.3 * rng.random(n))


# deterministic examples, and no example database left behind
POWER_SUM_EXAMPLES = settings(max_examples=40, deadline=None, derandomize=True,
                              database=None)


class TestPowerTraceSum:
    """Constant-S orbit sums from the resolvent, against enumeration."""

    @POWER_SUM_EXAMPLES
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 4),
           t=st.floats(0.2, 0.6), sparsity=st.floats(0.0, 0.6), equal=st.booleans())
    def test_first_order(self, seed, d, t, sparsity, equal):
        # random unitary with random entries zeroed, scaled to norm <= 1
        rng = np.random.default_rng(seed)
        bond = random_unitary(rng, d) * (rng.random((d, d)) >= sparsity)
        bond /= max(1.0, float(np.linalg.norm(bond, 2)))
        g = xg.MetricGraph.from_intervals(
            [(1.0, math.exp(w)) for w in draw_log_lengths(rng, d, equal)])
        h = xg.gaussian(t)
        report = xg.trace_rhs_bk(g, bond, h)
        check_power_sum(report, bond, g.log_lengths, h, doubling=2.0)

    @POWER_SUM_EXAMPLES
    @given(seed=st.integers(0, 2 ** 32 - 1), n_edges=st.integers(1, 2),
           t=st.floats(0.2, 0.6), coordinate=st.booleans(), equal=st.booleans())
    def test_squared(self, seed, n_edges, t, coordinate, equal):
        # Neumann on ran P, Dirichlet on its complement: a constant S''
        rng = np.random.default_rng(seed)
        dim = 2 * n_edges
        if coordinate:
            p = np.diag((rng.random(dim) < 0.5).astype(float))
        else:
            q = random_unitary(rng, dim)[:, :int(rng.integers(0, dim + 1))]
            p = q @ q.conj().T
        g = xg.MetricGraph.from_intervals(
            [(1.0, math.exp(w)) for w in draw_log_lengths(rng, n_edges, equal)])
        dec = xg.decompose(xg.from_interval_conditions(np.eye(dim) - p, p, g),
                           xg.DilationMatrices.from_graph(g))
        sys_ = xg.SecularSystem.bk2(dec, g)
        assert sys_.k_independent
        h = xg.gaussian(t)
        report = xg.trace_rhs_bk2(g, dec, h)
        check_power_sum(report, sys_.bond_matrix(1.0), sys_.weights, h, doubling=1.0)


def robin_edge(rho, margin):
    """One edge with Robin parameters ``rho`` at its two ends, margin longer
    than l(sigma)."""
    def build(log_length):
        g = xg.MetricGraph.from_intervals([(1.0, math.exp(log_length))])
        return g, xg.decompose(xg.standard_bc("robin", g, rho=np.array(rho)),
                               xg.DilationMatrices.from_graph(g))
    g, dec = build(1.0)
    _, l_sigma = length_condition(dec, g)
    return build(l_sigma + margin)


def delta_path(alpha, rho_u, rho_v, margins):
    """Edges u-c and c-v joined by a delta vertex of strength alpha, Robin at
    u and v, each margin longer than l(sigma): the walks branch at c."""
    def build(log_lengths):
        g = xg.MetricGraph.from_intervals([(1.0, math.exp(x)) for x in log_lengths],
                                          vertices=[("u", "c"), ("c", "v")])
        # channels: a-end of e0 (u), a-end of e1 (c), b-end of e0 (c), b-end of e1 (v)
        a_t, b_t = np.zeros((4, 4)), np.zeros((4, 4))
        a_t[0, 0], b_t[0, 0] = rho_u, 1.0
        a_t[1, 1], a_t[1, 2] = -1.0, 1.0
        a_t[2, 1], b_t[2, 1], b_t[2, 2] = alpha, 1.0, 1.0
        a_t[3, 3], b_t[3, 3] = rho_v, 1.0
        return g, xg.decompose(xg.from_interval_conditions(a_t, b_t, g),
                               xg.DilationMatrices.from_graph(g))
    g, dec = build([1.0, 1.0])
    _, l_sigma = length_condition(dec, g)
    return build([l_sigma + m for m in margins])


def delta_ring(alpha, log_length):
    """One loop edge on a delta vertex of strength alpha: every bond also
    steps onto itself, so walks of one step exist."""
    g = xg.MetricGraph.from_intervals([(1.0, math.exp(log_length))], vertices=[("v", "v")])
    a_t, b_t = np.zeros((2, 2)), np.zeros((2, 2))
    a_t[0, 0], a_t[0, 1] = 1.0, -1.0
    a_t[1, 0], b_t[1, 0], b_t[1, 1] = alpha, 1.0, 1.0
    return g, xg.decompose(xg.from_interval_conditions(a_t, b_t, g),
                           xg.DilationMatrices.from_graph(g))


def check_kdep_sum(g, dec, t):
    """k-dependent orbit sum against the orbit-by-orbit oracle, summed until
    it settles, and the Burnside count against the orbits of at most N =
    floor(cutoff / w_min) + 1 steps."""
    sys_ = xg.SecularSystem.bk2(dec, g)
    assert not sys_.k_independent
    h = xg.gaussian(t)
    report = xg.trace_rhs_bk2(g, dec, h)
    assert report.orbit_tail_bound <= 1e-10
    n_max = int(_default_cutoff(h) / float(np.min(sys_.weights))) + 1
    assert report.max_steps == n_max
    ref = converged_orbit_sum_kdep(sys_, h, n_max)
    assert abs(report.orbit_sum - ref) <= 1e-12
    ones = np.ones(sys_.dim)
    assert report.n_orbits == len(xg.enumerate_orbits(sys_.bond_matrix(1.0), ones, n_max))


class TestKdepPowerSum:
    """k-dependent orbit sums from the resolvent, against the orbit-by-orbit sum."""

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(rho=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
           margin=st.floats(0.05, 1.0), t=st.sampled_from((0.2, 1.0)))
    def test_robin_edge(self, rho, margin, t):
        check_kdep_sum(*robin_edge(rho, margin), t)

    @pytest.mark.parametrize("t", [0.2, 1.0])
    def test_delta_path(self, t):
        check_kdep_sum(*delta_path(4.0, 1.0, 1.5, (0.3, 0.7)), t)

    @pytest.mark.parametrize("t", [0.2, 1.0])
    def test_delta_ring(self, t):
        # one-step walks: the n = 1 derivative term -i tr(B'E) is nonzero
        check_kdep_sum(*delta_ring(4.0, 6.0), t)

    @pytest.mark.parametrize("rho,margin", [((-0.5, -0.5), 1.3), ((-0.7, 1.0), 1.25)])
    @pytest.mark.parametrize("t", [0.2, 1.0])
    def test_negative_poles(self, rho, margin, t):
        # poles in the lower half plane: only the poles above bound the line
        check_kdep_sum(*robin_edge(rho, margin), t)

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(rho=st.tuples(st.floats(0.3, 2.0), st.floats(0.5, 2.0)), flip=st.booleans(),
           margin=st.floats(0.05, 1.0), t=st.sampled_from((0.2, 1.0)),
           shift=st.floats(0.3, 1.5))
    def test_sum_does_not_depend_on_the_line(self, rho, flip, margin, t, shift):
        # any line between the real axis and 1.9 eta, the top of the strip,
        # gives the same sum; here on a step of 1/20 of the line's height
        g, dec = robin_edge((-rho[0] if flip else rho[0], rho[1]), margin)
        sys_ = xg.SecularSystem.bk2(dec, g)
        h = xg.gaussian(t)
        report = xg.trace_rhs_bk2(g, dec, h)
        eta = shift * report.eta
        moved, _ = _resolvent_sum(
            sys_.bond_matrix, sys_.weights, h, eta, 0.05 * min(eta, report.eta),
            math.sqrt(eta ** 2 + 40.0 / t),
            lambda ks: _swap_halves(s_matrix_bk2_derivative(dec, ks)))
        assert abs(moved - report.orbit_sum) <= 1e-12


class TestHeatTrace:
    def test_reference_value_at_t1(self):
        g = xg.MetricGraph.from_intervals([(1.0, math.exp(PI))])
        pair = xg.heat_trace_pair(g, 1.0)
        assert pair.spectral == pytest.approx(SUM_EXP_MINUS_N_SQ, abs=1e-13)
        assert pair.theta == pytest.approx(SUM_EXP_MINUS_N_SQ, abs=1e-13)

    @pytest.mark.parametrize("t", [0.05, 0.2, 1.0, 5.0])
    def test_modularity_across_decades(self, t):
        g = xg.MetricGraph.from_intervals([(1.0, math.exp(1.3))])
        pair = xg.heat_trace_pair(g, t)
        assert pair.difference <= 1e-12
        assert pair.spectral_tail < 1e-12
        assert pair.theta_tail < 1e-12

    def test_small_t_leading_terms(self):
        g = xg.MetricGraph.from_intervals([(1.0, math.exp(2.0))])
        t = 0.01
        pair = xg.heat_trace_pair(g, t)
        lead = g.total_length / (2 * math.sqrt(PI * t)) - 0.5
        assert abs(pair.spectral - lead) <= math.exp(-(2 * 2.0) ** 2 / (4 * t)) + 1e-12

    def test_rejects_multi_edge(self):
        g = xg.MetricGraph.from_intervals([(1.0, 2.0), (1.0, 3.0)])
        with pytest.raises(xg.ValidationError):
            xg.heat_trace_pair(g, 1.0)


class TestCountingFormulas:
    def test_riemann_counting_at_100(self):
        # 29 zeta zeros below ordinate 100
        assert round(xg.riemann_counting(100.0)) == 29

    def test_riemann_counting_special_point(self):
        # at E = 2 pi e the first two terms cancel exactly
        assert xg.riemann_counting(2 * PI * math.e) == pytest.approx(0.875, abs=1e-12)

    def test_semiclassical_special_points(self):
        first, _ = xg.semiclassical_counts(2 * PI * math.e)
        assert first == pytest.approx(1.0, abs=1e-12)
        _, second = xg.semiclassical_counts((2 * PI * math.e) ** 2)
        assert second == pytest.approx(1.75, abs=1e-12)

    def test_ebk_ring_phase_matches_spectrum(self):
        # Maslov index mu = 4c reproduces the ring eigenvalues
        c, ell = 0.25, 1.0
        levels = xg.ebk_levels(ell, 4.0 * c, 5, "ring_bk")
        expected = [2 * PI * (n + c) / ell for n in range(6)]
        assert np.allclose(levels, expected, atol=1e-12)

    def test_ebk_hard_wall_matches_reflecting_edge(self):
        levels = xg.ebk_levels(2.0, 0.0, 4, "hard_wall")
        assert np.allclose(levels, [0.0, PI / 2, PI, 3 * PI / 2, 2 * PI], atol=1e-12)

    def test_ebk_unit_spacing(self):
        levels = xg.ebk_levels(2 * PI, 0.0, 3, "ring_bk")
        assert np.allclose(levels, [0.0, 1.0, 2.0, 3.0], atol=1e-12)

    def test_counting_comparison_monotone(self):
        g, s, sys_ = ring_setup(0.0)
        sp = xg.find_spectrum(sys_, (-300.0, 300.0), tol=1e-9)
        rows, monotone = xg.counting_comparison(sp, g, k_start=50.0, side="two_sided")
        assert monotone
        assert rows[0][3] > rows[-1][3]


class TestSemiclassicalOffsets:
    def test_riemann_minus_first_order_is_eighth(self):
        # the two smooth countings differ by exactly 1/8 at every energy
        for energy in (10.0, 100.0, 1e3):
            first, _ = xg.semiclassical_counts(energy)
            assert xg.riemann_counting(energy) - first == pytest.approx(-0.125, abs=1e-9)

    def test_divergence_ratio_at_large_k(self):
        # a graph counting L k / pi falls ever further behind k ln k growth
        ell = 1.0
        k = 1e3
        n_graph = ell * k / PI
        ratio = n_graph / xg.riemann_counting(k)
        k2 = 2e3
        ratio2 = (ell * k2 / PI) / xg.riemann_counting(k2)
        assert ratio2 < ratio
