"""Trace formulas, heat traces, counting comparisons, EBK levels."""

import dataclasses
import math

import numpy as np
import pytest

import xpgraphs as xg
from xpgraphs.errors import ConditionViolated
from xpgraphs.traces import length_condition

PI = math.pi

# direct-summation oracle: sum_{n>=1} exp(-n^2), frozen
SUM_EXP_MINUS_N_SQ = 0.38631860241332787
# and the two-sided version 1 + 2 * the above
SUM_EXP_TWO_SIDED = 1.7726372048266557


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
        tab = xg.tabulated(h.h, k_max=30.0, n=30001)
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

    def test_robin_s_integral_matches_erfc_form(self):
        # for Gaussian h the integral term has closed form
        # -(1/2) sum_j sign(lam) exp(lam^2 t) erfc(|lam| sqrt t)
        ell = 4.0
        g, dec, _ = bk2_setup("robin", b=math.exp(ell), rho=1.0)
        for t in (0.3, 1.0):
            report = xg.trace_rhs_bk2(g, dec, xg.gaussian(t))
            closed = -math.exp(t) * math.erfc(math.sqrt(t))
            assert report.s_matrix_integral == pytest.approx(closed, abs=1e-11)

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

    def test_weyl_term_dominates_small_t(self):
        g, dec, _ = bk2_setup("dirichlet")
        report = xg.trace_rhs_bk2(g, dec, xg.gaussian(1e-3))
        others = abs(report.boundary_term) + abs(report.s_matrix_integral) \
            + abs(report.orbit_sum)
        assert report.weyl_term > 10.0 * others
        assert np.isfinite(report.rhs_total)


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
