"""Continuum half-line dynamics, kernels, and Mellin amplitudes."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

import xpgraphs.halfline as hl
from util import amplitude_envelope_sq, reference_zeta_critical
from xpgraphs.errors import RangeExceeded, ValidationError

# first two critical-line zero ordinates of the zeta function
RIEMANN_ZERO_1 = 14.134725141734693
RIEMANN_ZERO_2 = 21.022039638771554


class TestEvolution:
    def test_packet_closed_form(self):
        for t in (-0.7, 0.0, 1.3):
            for x in (0.2, 1.0, 4.0):
                expected = hl.ALPHA * math.exp(-t / 2) / (math.exp(x * math.exp(-t)) + 1.0)
                assert hl.evolve_bk(hl.fermi_packet, t, x) == pytest.approx(expected, rel=1e-14)

    def test_t_zero_is_identity(self):
        xs = np.linspace(0.1, 5.0, 40)
        assert np.allclose(hl.evolve_bk(hl.fermi_packet, 0.0, xs),
                           hl.fermi_packet(xs), atol=1e-15)

    def test_large_t_amplitude(self):
        # sup_x |psi(x, t)| approaches (alpha/2) exp(-t/2)
        t = 25.0
        xs = np.linspace(1e-6, 10.0, 2000)
        sup = np.max(np.abs(hl.evolve_bk(hl.fermi_packet, t, xs)))
        assert sup == pytest.approx(0.5 * hl.ALPHA * math.exp(-t / 2), rel=1e-4)

    @pytest.mark.parametrize("t", [-1.0, 0.5, 3.0])
    def test_unitarity_by_quadrature(self, t):
        norm0, _ = quad(lambda x: hl.fermi_packet(x) ** 2, 0.0, 60.0, limit=200)
        norm_t, _ = quad(lambda x: abs(hl.evolve_bk(hl.fermi_packet, t, x)) ** 2,
                         0.0, 60.0 * math.exp(t) + 60.0, limit=400)
        assert norm_t == pytest.approx(norm0, abs=1e-8)
        assert norm0 == pytest.approx(1.0, abs=1e-10)


class TestKernel:
    def test_coincident_points(self):
        for x, t in ((1.0, 0.3), (2.5, 1.7)):
            expected = 1.0 / np.sqrt(4.0 * math.pi * 1j * t * x * x)
            assert hl.kernel_bk2(x, x, t) == pytest.approx(expected, rel=1e-14)

    def test_symmetry(self):
        assert hl.kernel_bk2(0.7, 2.2, 0.9) == pytest.approx(
            hl.kernel_bk2(2.2, 0.7, 0.9), rel=1e-14)

    def test_branch_phase(self):
        # principal square root: the i contributes exp(-i pi/4) for t > 0
        val = hl.kernel_bk2(1.0, 1.0, 1.0)
        assert cmath.phase(val) == pytest.approx(-math.pi / 4, abs=1e-12)

    def test_semigroup_damped_contour(self):
        # exact on the analytically continued (damped) time contour
        t1, t2 = 0.4 - 0.25j, 0.7 - 0.35j
        x, x0 = 1.3, 0.8

        def integrand(u):
            y = math.exp(u)
            return hl.kernel_bk2(x, y, t1) * hl.kernel_bk2(y, x0, t2) * y

        re, _ = quad(lambda u: integrand(u).real, -40.0, 40.0, limit=400)
        im, _ = quad(lambda u: integrand(u).imag, -40.0, 40.0, limit=400)
        assert re + 1j * im == pytest.approx(hl.kernel_bk2(x, x0, t1 + t2), abs=1e-10)

    def test_rejects_t_zero(self):
        with pytest.raises(ValidationError):
            hl.kernel_bk2(1.0, 1.0, 0.0)


class TestGreen:
    def test_coincident_points(self):
        for x, k in ((1.0, 2.0), (3.0, 0.5)):
            assert hl.green_bk2(x, x, k) == pytest.approx(1j / (2 * k * x), rel=1e-14)

    def test_eigenfunction_factorization(self):
        # i pi / k times psi_k(x) conj(psi_k(x0)) for x >= x0
        k = 1.7
        for x, x0 in ((2.0, 0.5), (5.0, 1.0)):
            expected = (1j * math.pi / k) * hl.generalized_eigenfunction(k, x) \
                * np.conj(hl.generalized_eigenfunction(k, x0))
            assert hl.green_bk2(x, x0, k) == pytest.approx(complex(expected), rel=1e-13)

    def test_ode_residual(self):
        # (squared operator - k^2) G = 0 off the diagonal, by 5-point stencil
        k, x0 = 2.0, 1.0

        def g(x):
            return hl.green_bk2(x, x0, k)

        for x in (1.8, 3.0):
            h = 1e-3 * x
            f_m2, f_m1, f_0, f_p1, f_p2 = (g(x + j * h) for j in (-2, -1, 0, 1, 2))
            d1 = (f_m2 - 8 * f_m1 + 8 * f_p1 - f_p2) / (12 * h)
            d2 = (-f_m2 + 16 * f_m1 - 30 * f_0 + 16 * f_p1 - f_p2) / (12 * h * h)
            residual = -x * x * d2 - 2 * x * d1 - 0.25 * f_0 - k * k * f_0
            assert abs(residual) <= 1e-6

    def test_pole_at_zero(self):
        with pytest.raises(ValidationError):
            hl.green_bk2(1.0, 2.0, 0.0)

    def test_homogeneity_of_eigenfunctions(self):
        k = 3.1
        for kappa in (0.5, 2.0):
            for x in (0.7, 1.9):
                lhs = hl.generalized_eigenfunction(k, kappa * x)
                rhs = kappa ** complex(-0.5, k) * hl.generalized_eigenfunction(k, x)
                assert complex(lhs) == pytest.approx(complex(rhs), rel=1e-14)


class TestCriticalLineSpecialFunctions:
    def test_zeta_against_mpmath(self):
        mp.mp.dps = 30
        for k in np.linspace(0.0, hl.AMPLITUDE_K_MAX, 161):
            ref = complex(mp.zeta(mp.mpc(0.5, -k)))
            val = hl.zeta_critical(0.5 - 1j * k)
            assert abs(val - ref) <= 1e-10 * abs(ref)

    @pytest.mark.parametrize("s", [0.5 - 400j, 0.5 + 450j, -10.5, -2.0 + 14.0j, -1e-300,
                                   complex(math.nan, 1.0)])
    def test_zeta_range(self, s):
        with pytest.raises(RangeExceeded):
            hl.zeta_critical(s)
        with pytest.raises(RangeExceeded):
            hl.zeta_critical(np.array([0.5 + 3.0j, s]))

    @pytest.mark.parametrize("re", [0.0, 0.25, 0.5, 1.5, 3.0, 6.0])
    def test_zeta_on_the_admitted_strip_against_mpmath(self, re):
        mp.mp.dps = 30
        s = re + 1j * np.linspace(-hl.AMPLITUDE_K_MAX, hl.AMPLITUDE_K_MAX, 81)
        for si, val in zip(s, hl.zeta_critical(s)):
            ref = complex(mp.zeta(mp.mpc(si.real, si.imag)))
            assert abs(val - ref) <= 1e-12 * abs(ref), si

    def test_gamma_against_mpmath(self):
        mp.mp.dps = 30
        for k in np.linspace(0.0, 50.0, 41):
            ref = complex(mp.gamma(mp.mpc(0.5, -k)))
            val = hl.gamma_complex(0.5 - 1j * k)
            assert abs(val - ref) <= 1e-10 * abs(ref)

    def test_gamma_reflection_branch(self):
        mp.mp.dps = 30
        for z in (-0.7 + 2.0j, -2.3 - 1.1j, 0.2 + 0.0j):
            ref = complex(mp.gamma(mp.mpc(z.real, z.imag)))
            assert hl.gamma_complex(z) == pytest.approx(ref, rel=1e-11)

    @pytest.mark.parametrize("z", [0, -1, -2, 0.0 + 0.0j, -2.0 + 0.0j])
    def test_gamma_poles(self, z):
        with pytest.raises(ValidationError):
            hl.gamma_complex(z)

    def test_zeta_pole(self):
        with pytest.raises(ValidationError):
            hl.zeta_critical(1.0)


class TestAmplitude:
    def test_quadrature_matches_closed_form(self):
        for k in (0.0, 1.0, 5.0, RIEMANN_ZERO_1):
            aq = hl.mellin_amplitude(hl.fermi_packet, k)
            ac = hl.fermi_amplitude_closed(k)
            assert abs(aq - ac) <= 1e-8

    def test_closed_form_against_mpmath_to_k_max(self):
        mp.mp.dps = 30
        for k in (60.0, 120.0, hl.AMPLITUDE_K_MAX, -hl.AMPLITUDE_K_MAX):
            s = mp.mpc(0.5, -k)
            ref = complex(hl.ALPHA / mp.sqrt(2 * mp.pi)
                          * (1 - mp.sqrt(2) * mp.exp(1j * k * mp.log(2)))
                          * mp.gamma(s) * mp.zeta(s))
            assert abs(hl.fermi_amplitude_closed(k) - ref) <= 1e-10 * abs(ref)

    @pytest.mark.parametrize("k", [200.5, -400.0, 1e6, math.inf, math.nan])
    def test_closed_form_range(self, k):
        with pytest.raises(RangeExceeded):
            hl.fermi_amplitude_closed(k)

    def test_dips_at_riemann_zeros(self):
        a0 = abs(hl.fermi_amplitude_closed(0.0))
        for zero in (RIEMANN_ZERO_1, RIEMANN_ZERO_2):
            assert abs(hl.fermi_amplitude_closed(zero)) < 1e-6 * a0

    def test_conjugation_symmetry(self):
        for k in (0.7, 3.2, 14.0):
            assert hl.fermi_amplitude_closed(-k) == pytest.approx(
                np.conj(hl.fermi_amplitude_closed(k)), rel=1e-12)

    def test_parseval(self):
        val, err = quad(lambda k: abs(hl.fermi_amplitude_closed(k)) ** 2,
                        0.0, 40.0, limit=400)
        assert 2.0 * val == pytest.approx(1.0, abs=1e-6)

    def test_envelope_asymptotics(self):
        # |A|^2 approaches alpha^2 (3 - 2 sqrt2 cos(k ln 2)) e^{-pi k} |zeta|^2
        for k in (20.0, 35.0):
            ratio = abs(hl.fermi_amplitude_closed(k)) ** 2 / amplitude_envelope_sq(k)
            assert ratio == pytest.approx(1.0, rel=5e-3)

    def test_scaling_covariance(self):
        # phi -> sqrt(c) phi(c x) multiplies A(k) by c^{ik}
        c, k = 1.8, 2.4

        def scaled(x):
            return math.sqrt(c) * hl.fermi_packet(c * np.asarray(x))

        a_scaled = hl.mellin_amplitude(scaled, k)
        a_plain = hl.mellin_amplitude(hl.fermi_packet, k)
        assert a_scaled == pytest.approx(a_plain * c ** (1j * k), abs=1e-10)
        assert abs(a_scaled) == pytest.approx(abs(a_plain), abs=1e-10)

    def test_reconstruction_pointwise(self):
        for x in (0.5, 1.0, 2.0):
            rebuilt = hl.reconstruct_from_amplitude(hl.fermi_amplitude_closed,
                                                    x, k_max=40.0, n=4001)
            assert abs(rebuilt - hl.fermi_packet(x)) <= 1e-4

    def test_reconstruction_is_scaled_fourier_transform(self):
        # phi(x) = sqrt(2 pi / x) Ahat(ln x) with Ahat the Fourier transform
        x = 1.7
        ks = np.linspace(-40.0, 40.0, 4001)
        a = hl.fermi_amplitude_closed(ks)
        ahat = np.trapezoid(a * np.exp(1j * ks * math.log(x)), ks) / (2 * math.pi)
        assert math.sqrt(2 * math.pi / x) * ahat == pytest.approx(
            complex(hl.fermi_packet(x)), abs=1e-4)

    def test_normalization_constant(self):
        assert hl.ALPHA == pytest.approx(1.0 / math.sqrt(math.log(2.0) - 0.5), rel=1e-15)


class TestArrayEvaluation:
    """A scalar is a 0-d array: one code path, the same bits at any batch."""

    KS = np.linspace(-30.0, 30.0, 241)

    @pytest.mark.parametrize("fn, arg", [
        (hl.fermi_amplitude_closed, lambda k: k),
        (hl.zeta_critical, lambda k: 0.5 - 1j * k),
        (hl.gamma_complex, lambda k: 0.5 - 1j * k),
    ])
    def test_array_equals_scalar_calls_bitwise(self, fn, arg):
        args = arg(self.KS)
        batch = fn(args)
        singles = [fn(x) for x in args.tolist()]
        assert all(type(v) is complex for v in singles)
        assert batch.shape == args.shape
        assert batch.tolist() == singles

    def test_value_independent_of_batch(self):
        ks = self.KS
        batch = hl.fermi_amplitude_closed(ks)
        assert hl.fermi_amplitude_closed(ks[::-1]).tolist() == batch[::-1].tolist()
        larger = np.concatenate([np.linspace(-200.0, 200.0, 57), ks, [0.0, 150.0]])
        assert hl.fermi_amplitude_closed(larger)[57:57 + ks.size].tolist() == batch.tolist()
        grid = ks.reshape(-1, 1)
        assert hl.fermi_amplitude_closed(grid).ravel().tolist() == batch.tolist()
        # each point sums only its own 25 + ceil(0.95 |Im s|) terms: the
        # terms 26 to 215 of its neighbour would move s = 0
        near = hl.zeta_critical(0.0 + 0.0j)
        assert hl.zeta_critical(np.array([0.5 + 200.0j, 0.0]))[1] == near

    def test_zeta_array_against_mpmath_and_scalar_series(self):
        mp.mp.dps = 30
        ks = np.linspace(-hl.AMPLITUDE_K_MAX, hl.AMPLITUDE_K_MAX, 161)
        vals = hl.zeta_critical(0.5 - 1j * ks)
        for k, val in zip(ks, vals):
            ref = complex(mp.zeta(mp.mpc(0.5, -k)))
            assert abs(val - ref) <= 1e-10 * abs(ref)
            series = reference_zeta_critical(0.5 - 1j * k)
            assert abs(val - series) <= 1e-13 * abs(series)

    def test_amplitude_array_matches_scalar_series(self):
        ks = np.linspace(-hl.AMPLITUDE_K_MAX, hl.AMPLITUDE_K_MAX, 81)
        vals = hl.fermi_amplitude_closed(ks)
        for k, val in zip(ks, vals):
            s = 0.5 - 1j * k
            ref = (hl.ALPHA / math.sqrt(2 * math.pi)
                   * (1 - math.sqrt(2) * cmath.exp(1j * k * math.log(2)))
                   * complex(mp.gamma(mp.mpc(0.5, -k))) * reference_zeta_critical(s))
            assert abs(val - ref) <= 1e-10 * abs(ref)

    @pytest.mark.parametrize("bad", [200.5, -400.0, math.nan, math.inf, -math.inf])
    def test_one_bad_element_raises(self, bad):
        ks = np.array([0.0, 14.0, bad, 3.0])
        with pytest.raises(RangeExceeded):
            hl.fermi_amplitude_closed(ks)
        s = np.full(ks.shape, 0.5 + 0.0j)
        s.imag = -ks
        with pytest.raises(RangeExceeded):
            hl.zeta_critical(s)

    def test_zeta_pole_in_array(self):
        with pytest.raises(ValidationError):
            hl.zeta_critical(np.array([0.5 + 3.0j, 1.0, 2.0]))

    def test_gamma_reflection_on_mixed_array(self):
        mp.mp.dps = 30
        zs = np.array([-0.7 + 2.0j, 3.5 - 4.0j, -2.3 - 1.1j, 0.5 + 7.0j,
                       0.2 + 0.0j, 0.4999 - 0.3j, -10.5 + 0.5j, 1.0 + 0.0j])
        vals = hl.gamma_complex(zs)
        for z, val in zip(zs, vals):
            ref = complex(mp.gamma(mp.mpc(z.real, z.imag)))
            assert val == pytest.approx(ref, rel=1e-11)

    def test_gamma_pole_in_array(self):
        with pytest.raises(ValidationError):
            hl.gamma_complex(np.array([0.5 + 1.0j, -3.0, 2.5]))

    def test_empty_array(self):
        for fn in (hl.fermi_amplitude_closed, hl.zeta_critical, hl.gamma_complex):
            out = fn(np.array([]))
            assert isinstance(out, np.ndarray) and out.shape == (0,)


class TestHalflineState:
    def test_packet_norm_with_tail(self):
        # the package keeps no norm of its own: scipy is a test oracle only
        density = lambda x: float(hl.fermi_packet(x)) ** 2
        norm_sq, _ = quad(density, 0.0, 80.0, limit=400)
        tail, _ = quad(density, 80.0, 320.0, limit=200)
        assert math.sqrt(norm_sq) == pytest.approx(1.0, abs=1e-9)
        assert tail < 1e-12

    def test_state_feeds_quadrature(self):
        a = hl.mellin_amplitude(hl.fermi_packet, 1.0)
        assert a == pytest.approx(hl.fermi_amplitude_closed(1.0), abs=1e-9)
