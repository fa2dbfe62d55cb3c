"""Secular functions, eigenvalue solver, zero modes, counting, Weyl fits."""

import math
import threading

import numpy as np
import pytest

import xpgraphs as xg
from xpgraphs.errors import InsufficientData, RangeExceeded

from util import probe_zero_mode_count, random_graph, random_unitary, t_matrix

PI = math.pi


def ring_system(c, a=1.0, b=math.e):
    g = xg.MetricGraph.from_intervals([(a, b)], directed=True)
    s = xg.s_matrix_bk(xg.standard_bc("ring_phase", g, c=c))
    return xg.SecularSystem.bk(s, g), g


def bk2_system(kind, a=1.0, b=math.e, **kw):
    g = xg.MetricGraph.from_intervals([(a, b)])
    dec = xg.decompose(xg.standard_bc(kind, g, **kw),
                       xg.DilationMatrices.from_graph(g))
    return xg.SecularSystem.bk2(dec, g), g


def star_system(n_edges=3, b=math.e):
    intervals = [(1.0, b)] * n_edges
    verts = [("c", f"t{i}") for i in range(n_edges)]
    g = xg.MetricGraph.from_intervals(intervals, vertices=verts)
    dec = xg.decompose(xg.standard_bc("kirchhoff", g),
                       xg.DilationMatrices.from_graph(g))
    return xg.SecularSystem.bk2(dec, g), g


class TestTMatrix:
    def test_first_order_values(self):
        t = t_matrix(xg.BK, [1.0], PI)
        assert complex(t[0, 0]) == pytest.approx(-1.0, abs=1e-14)
        assert np.allclose(t_matrix(xg.BK, [1.0, 2.0], 0.0), np.eye(2))

    def test_second_order_block(self):
        t = t_matrix(xg.BK2, [1.0], PI)
        expected = np.array([[0.0, -1.0], [-1.0, 0.0]])
        assert np.max(np.abs(t - expected)) <= 1e-14


class TestSecularValues:
    def test_ring_closed_form(self):
        for c in (0.0, 0.25, 0.4):
            sys_, _ = ring_system(c)
            for k in (-2.3, 0.0, 1.7, 9.1):
                expected = 1.0 - np.exp(-2j * PI * c) * np.exp(1j * k)
                assert xg.secular(sys_, k) == pytest.approx(expected, abs=1e-12)

    def test_ring_zero_at_origin(self):
        sys_, _ = ring_system(0.0)
        assert abs(xg.secular(sys_, 0.0)) <= 1e-14

    def test_ring_half_phase_at_origin(self):
        sys_, _ = ring_system(0.5)
        assert xg.secular(sys_, 0.0) == pytest.approx(2.0, abs=1e-13)

    def test_dirichlet_closed_form(self):
        sys_, _ = bk2_system("dirichlet")
        for k in (0.7, 3.0, 11.0):
            assert xg.secular(sys_, k) == pytest.approx(
                1.0 - np.exp(2j * k), abs=1e-12)

    def test_robin_closed_form(self):
        rho1, rho2 = 1.4, -0.6
        g = xg.MetricGraph.from_intervals([(1.0, math.e)])
        dec = xg.decompose(xg.standard_bc("robin", g, rho=[rho1, rho2]),
                           xg.DilationMatrices.from_graph(g))
        sys_ = xg.SecularSystem.bk2(dec, g)
        for k in (0.5, 2.0, 17.0):
            expected = 1.0 - ((rho1 - 1j * k) * (rho2 - 1j * k)
                              / ((rho1 + 1j * k) * (rho2 + 1j * k))) * np.exp(2j * k)
            assert xg.secular(sys_, k) == pytest.approx(expected, abs=1e-12)

    def test_ring_squared_product_form(self):
        c = 0.3
        g = xg.MetricGraph.from_intervals([(1.0, math.e)])
        spec, _ = xg.squared_extension(np.array([[np.exp(-2j * PI * c)]]), g)
        dec = xg.decompose(spec, xg.DilationMatrices.from_graph(g))
        sys_ = xg.SecularSystem.bk2(dec, g)
        for k in (0.9, 4.2):
            expected = (np.exp(1j * (k + 2 * PI * c)) - 1.0) \
                * (np.exp(1j * (k - 2 * PI * c)) - 1.0)
            assert xg.secular(sys_, k) == pytest.approx(expected, abs=1e-12)


class TestFindSpectrum:
    def test_ring_zero_phase(self):
        sys_, _ = ring_system(0.0)
        sp = xg.find_spectrum(sys_, (-10.0, 10.0), tol=1e-12)
        ks = sp.wavenumbers
        assert np.allclose(ks, [-2 * PI, 0.0, 2 * PI], atol=1e-10)
        assert all(g == 1 for g in sp.multiplicities)

    def test_dirichlet_first_three(self):
        sys_, _ = bk2_system("dirichlet")
        sp = xg.find_spectrum(sys_, (0.0, 10.0), tol=1e-12)
        assert np.allclose(sp.wavenumbers, [PI, 2 * PI, 3 * PI], atol=1e-10)

    def test_ring_regression_50_levels(self):
        for c in (0.0, 0.25, 0.5):
            sys_, _ = ring_system(c)
            hi = 2 * PI * (26 + c)
            sp = xg.find_spectrum(sys_, (1e-6, hi), tol=1e-12)
            expected = [2 * PI * (n + c) for n in range(0, 27) if 2 * PI * (n + c) > 1e-6]
            expected = [k for k in expected if k <= hi][:25]
            assert len(sp.eigenvalues) >= len(expected)
            for kn, exp in zip(sp.wavenumbers, expected):
                assert abs(kn - exp) <= 1e-9

    def test_dirichlet_neumann_regression_50_levels(self):
        for kind in ("dirichlet", "neumann"):
            sys_, _ = bk2_system(kind)
            sp = xg.find_spectrum(sys_, (0.0, 50.5 * PI), tol=1e-12)
            assert sp.total_count == 50
            for n, (kn, g) in enumerate(sp.eigenvalues, start=1):
                assert g == 1
                assert abs(kn - PI * n) <= 1e-9

    def test_ring_squared_regression(self):
        c = 0.3
        g = xg.MetricGraph.from_intervals([(1.0, math.e)])
        spec, _ = xg.squared_extension(np.array([[np.exp(-2j * PI * c)]]), g)
        dec = xg.decompose(spec, xg.DilationMatrices.from_graph(g))
        sys_ = xg.SecularSystem.bk2(dec, g)
        sp = xg.find_spectrum(sys_, (0.0, 2 * PI * 26), tol=1e-12)
        exact = sorted(k for k in (2 * PI * (n + s * c)
                                   for n in range(-26, 27) for s in (1, -1)) if k > 0)
        assert sp.total_count >= 50
        for kn, exp in zip(sp.wavenumbers, exact):
            assert abs(kn - exp) <= 1e-9

    def test_star_degeneracies(self):
        sys_, _ = star_system()
        sp = xg.find_spectrum(sys_, (0.0, 11.0), tol=1e-12)
        # symmetric modes at pi n (simple), difference modes at pi(n+1/2) (double)
        expected = [(PI / 2, 2), (PI, 1), (3 * PI / 2, 2), (2 * PI, 1),
                    (5 * PI / 2, 2), (3 * PI, 1), (7 * PI / 2, 2)]
        assert len(sp.eigenvalues) == len(expected)
        for (kn, g), (ke, ge) in zip(sp.eigenvalues, expected):
            assert abs(kn - ke) <= 1e-9
            assert g == ge

    def test_star_against_dense_scan_oracle(self):
        # independent check: dense |F| scan plus parabolic refinement
        sys_, _ = star_system()
        ks = np.linspace(0.05, 11.0, 30001)
        vals = np.array([abs(xg.secular(sys_, k)) for k in ks])
        roots = []
        for i in range(1, len(ks) - 1):
            if vals[i] < vals[i - 1] and vals[i] < vals[i + 1] and vals[i] < 2e-3:
                a, b, c = vals[i - 1], vals[i], vals[i + 1]
                shift = 0.5 * (a - c) / (a - 2 * b + c)
                roots.append(ks[i] + shift * (ks[1] - ks[0]))
        sp = xg.find_spectrum(sys_, (0.0, 11.0), tol=1e-12)
        assert len(roots) == len(sp.eigenvalues)
        # scan locations are only grid-resolution accurate
        for r, (kn, _) in zip(roots, sp.eigenvalues):
            assert abs(r - kn) <= 5e-4

    def test_multiplicity_matches_secular_order(self):
        # order of the zero of F from scaled finite differences
        for sys_, expected_g in ((ring_system(0.0)[0], 1), (star_system()[0], 2)):
            sp = xg.find_spectrum(sys_, (0.1, 7.0), tol=1e-12)
            kn, g = sp.eigenvalues[0]
            assert g == expected_g
            delta = 1e-4
            f1 = abs(xg.secular(sys_, kn + delta))
            f2 = abs(xg.secular(sys_, kn + 2 * delta))
            order = math.log(f2 / f1) / math.log(2.0)
            assert round(order) == expected_g

    def test_workers_agree(self):
        sys_, _ = bk2_system("dirichlet")
        sp1 = xg.find_spectrum(sys_, (0.0, 40.0), tol=1e-12, workers=1)
        sp4 = xg.find_spectrum(sys_, (0.0, 40.0), tol=1e-12, workers=4)
        assert len(sp1.eigenvalues) == len(sp4.eigenvalues)
        for (k1, g1), (k4, g4) in zip(sp1.eigenvalues, sp4.eigenvalues):
            assert abs(k1 - k4) <= 1e-10
            assert g1 == g4

    def test_invalid_range(self):
        sys_, _ = ring_system(0.0)
        with pytest.raises(xg.ValidationError):
            xg.find_spectrum(sys_, (3.0, 1.0))


def kirchhoff_star(n_edges):
    """Kirchhoff star with incommensurate log lengths in [1, 2)."""
    logs = np.random.default_rng(0).uniform(1.0, 2.0, n_edges)
    g = xg.MetricGraph.from_intervals([(1.0, math.exp(ell)) for ell in logs],
                                      vertices=[("c", f"t{i}") for i in range(n_edges)])
    dec = xg.decompose(xg.standard_bc("kirchhoff", g), xg.DilationMatrices.from_graph(g))
    return xg.SecularSystem.bk2(dec, g)


def first_order_e4():
    """The size of the benchmark's first-order solve: E = 4, +-310 levels."""
    rng = np.random.default_rng(41)
    g = random_graph(rng, 4, directed=True)
    k = 310.0 * PI / g.total_length
    return xg.SecularSystem.bk(random_unitary(rng, 4), g), (-k, k)


@pytest.mark.parametrize("case", ["ring", "star3", "first_order_e4", "star20"])
def test_workers_start_no_thread(monkeypatch, case):
    # every window is scanned on the calling thread, also for a count
    # matrix of 25 rows (rank 21 plus 4 border slots), where a pool once split
    sys_, window = {"ring": lambda: (ring_system(0.3)[0], (-20.0, 20.0)),
                    "star3": lambda: (star_system()[0], (0.0, 20.0)),
                    "first_order_e4": first_order_e4,
                    "star20": lambda: (kirchhoff_star(20), (0.0, 8.0))}[case]()
    single = xg.find_spectrum(sys_, window, workers=1)

    def refuse(*args, **kwargs):
        raise AssertionError("thread started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    for workers in (2, 4):
        pooled = xg.find_spectrum(sys_, window, workers=workers)
        assert pooled == single
        assert "workers" not in pooled.diagnostics


class TestZeroModes:
    def test_dirichlet(self):
        sys_, _ = bk2_system("dirichlet")
        assert xg.zero_mode_test(sys_) == (0, 1)

    def test_neumann(self):
        # lambda = 0 with eigenfunction 1/sqrt(x)
        sys_, _ = bk2_system("neumann")
        g0, n = xg.zero_mode_test(sys_)
        assert g0 >= 1
        assert (g0, n) == (1, 1)

    @pytest.mark.parametrize("k_max", [1e-10, 1e-9])
    def test_window_below_the_floor_is_empty(self, k_max):
        # the floor is WINDOW_FLOOR max(1, k_max) = 1e-9: nothing above it
        # to scan, but the zero mode is still characterized
        sys_, _ = bk2_system("neumann")
        sp = xg.find_spectrum(sys_, (0.0, k_max))
        assert sp.eigenvalues == () and sp.diagnostics == {}
        assert sp.k_window == (xg.spectra._window_floor(k_max), k_max)
        assert sp.zero_mode == xg.zero_mode_test(sys_) == (1, 1)

    def test_probe_independence(self):
        # g0 from M(0) against the two-probe oracle at probes 1, 2 (and sqrt 2 times each)
        sys_, _ = bk2_system("neumann")
        g0 = xg.zero_mode_test(sys_)[0]
        assert g0 == probe_zero_mode_count(sys_, 1.0) == probe_zero_mode_count(sys_, 2.0)

    def test_star_constant_mode(self):
        sys_, _ = star_system()
        g0, n = xg.zero_mode_test(sys_)
        assert g0 == 1

    def test_ring_squared_zero_phase(self):
        g = xg.MetricGraph.from_intervals([(1.0, math.e)])
        spec, _ = xg.squared_extension(np.array([[1.0 + 0j]]), g)
        dec = xg.decompose(spec, xg.DilationMatrices.from_graph(g))
        sys_ = xg.SecularSystem.bk2(dec, g)
        # constant mode survives, log mode does not: g0 = 1, N = 2
        assert xg.zero_mode_test(sys_) == (1, 2)


class TestNegativeEigenvalues:
    def test_dirichlet_empty(self):
        sys_, _ = bk2_system("dirichlet")
        assert xg.find_negative_eigenvalues(sys_, 5.0) == []

    def test_neumann_empty(self):
        sys_, _ = bk2_system("neumann")
        assert xg.find_negative_eigenvalues(sys_, 5.0) == []

    def test_robin_binding(self):
        # with scattering entries -(rho - ik)/(rho + ik), positive rho binds:
        # for a long edge both bound states sit near kappa = rho
        ell = 6.0
        sys_, _ = bk2_system("robin", b=math.exp(ell), rho=1.0)
        negs = xg.find_negative_eigenvalues(sys_, 4.0)
        assert len(negs) == 2
        for kappa, mult in negs:
            assert abs(kappa - 1.0) < 0.01
            assert mult == 1

    def test_robin_negative_parameter_empty(self):
        sys_, _ = bk2_system("robin", b=math.exp(6.0), rho=-1.0)
        assert xg.find_negative_eigenvalues(sys_, 4.0) == []

    def test_roots_satisfy_secular(self):
        sys_, _ = bk2_system("robin", rho=1.0)
        negs = xg.find_negative_eigenvalues(sys_, 5.0)
        assert len(negs) == 1
        kappa, _ = negs[0]
        assert abs(xg.secular(sys_, 1j * kappa)) <= 1e-10


class TestCounting:
    def test_dirichlet_count_at_ten(self):
        sys_, _ = bk2_system("dirichlet")
        sp = xg.find_spectrum(sys_, (0.0, 10.5), tol=1e-12)
        assert sp.counting(10.0) == 3

    def test_ring_positive_count(self):
        sys_, _ = ring_system(0.0)
        sp = xg.find_spectrum(sys_, (0.5, 10.0), tol=1e-12)
        assert sp.counting(2 * PI) == 1

    def test_empty_spectrum(self):
        sys_, _ = bk2_system("dirichlet")
        sp = xg.find_spectrum(sys_, (0.0, 2.0), tol=1e-12)
        assert sp.eigenvalues == ()
        assert sp.counting(1.5) == 0

    def test_range_exceeded(self):
        sys_, _ = bk2_system("dirichlet")
        sp = xg.find_spectrum(sys_, (0.0, 10.0), tol=1e-12)
        with pytest.raises(RangeExceeded):
            sp.counting(11.0)


class TestWeylFit:
    def test_dirichlet_slope(self):
        sys_, g = bk2_system("dirichlet")
        sp = xg.find_spectrum(sys_, (0.0, 120.0), tol=1e-10)
        fit = xg.weyl_fit(sp, g, side="positive")
        assert fit.expected_slope == pytest.approx(1.0 / PI)
        assert fit.rel_error_vs_weyl < 0.02

    def test_ring_sides(self):
        sys_, g = ring_system(0.25)
        sp = xg.find_spectrum(sys_, (-160.0, 160.0), tol=1e-10)
        two = xg.weyl_fit(sp, g, side="two_sided")
        # two-sided modulus counting doubles the per-branch density
        assert two.expected_slope == pytest.approx(g.total_length / PI)
        assert abs(two.slope - two.expected_slope) / two.expected_slope < 0.02
        assert two.rel_error_vs_weyl < 0.02
        one = xg.weyl_fit(sp, g, side="positive")
        assert one.expected_slope == pytest.approx(g.total_length / (2 * PI))
        assert abs(one.slope - one.expected_slope) / one.expected_slope < 0.02

    def test_insufficient_data(self):
        sys_, g = bk2_system("dirichlet")
        sp = xg.find_spectrum(sys_, (0.0, 10.0), tol=1e-10)
        with pytest.raises(InsufficientData):
            xg.weyl_fit(sp, g)


class TestUnitFlowProperties:
    def test_u_matrix_on_unit_circle(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            g = random_graph(rng, n)
            sys_ = xg.SecularSystem.bk(random_unitary(rng, n), g)
            k = float(rng.uniform(-20, 20))
            mags = np.abs(np.linalg.eigvals(sys_.u_matrix(k)))
            assert np.max(np.abs(mags - 1.0)) <= 1e-10

    def test_eigenphase_velocity_bounds(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            g = random_graph(rng, n)
            sys_ = xg.SecularSystem.bk(random_unitary(rng, n), g)
            k = float(rng.uniform(-5, 5))
            u = sys_.u_matrix(k)
            vals, vecs = np.linalg.eig(u)
            wmin, wmax = np.min(sys_.weights), np.max(sys_.weights)
            delta = 1e-6
            up = np.linalg.eigvals(sys_.u_matrix(k + delta))
            for j in range(n):
                v = vecs[:, j] / np.linalg.norm(vecs[:, j])
                analytic = float(np.sum(sys_.weights * np.abs(v) ** 2))
                assert wmin - 1e-9 <= analytic <= wmax + 1e-9
                # finite-difference agreement through nearest-eigenvalue matching
                target = vals[j] * np.exp(1j * analytic * delta)
                nearest = up[np.argmin(np.abs(up - target))]
                fd = float(np.angle(nearest / vals[j]) / delta)
                assert fd == pytest.approx(analytic, rel=1e-4, abs=1e-6)
