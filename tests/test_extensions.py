"""Boundary-pair validation, normal form, and S-matrix construction."""

import math

import numpy as np
import pytest

import xpgraphs as xg
from xpgraphs.errors import (
    HermiticityViolation,
    RankAmbiguous,
    RankDeficient,
    SingularAtK,
)
from xpgraphs.extensions import s_matrix_bk2_derivative

from util import (
    dilation_blocks,
    random_bk2_spec,
    random_graph,
    random_invertible,
    random_unitary,
    s_matrix_bk2_direct,
)


def single_edge(a=1.0, b=math.e):
    return xg.MetricGraph.from_intervals([(a, b)])


class TestValidation:
    def test_dirichlet_type_valid(self):
        spec = xg.validate_extension(np.eye(2), np.zeros((2, 2)), kind=xg.BK2)
        assert spec.m == 2

    def test_neumann_type_valid(self):
        xg.validate_extension(np.zeros((2, 2)), np.eye(2), kind=xg.BK2)

    def test_hermiticity_violation(self):
        # A B+ = -iI differs from B A+ = +iI
        with pytest.raises(HermiticityViolation):
            xg.validate_extension(np.eye(2), 1j * np.eye(2), kind=xg.BK2)

    def test_rank_deficient(self):
        a = np.diag([1.0, 0.0])
        b = np.zeros((2, 2))
        with pytest.raises(RankDeficient):
            xg.validate_extension(a, b, kind=xg.BK2)

    def test_shape_mismatch(self):
        with pytest.raises(xg.ValidationError):
            xg.validate_extension(np.eye(2), np.eye(3))


class TestDilationMatrices:
    def test_symplectic_identity(self):
        # U (i I_pm) U+ = J, checked to 1e-14
        g = xg.MetricGraph.from_intervals([(1.0, 2.0), (0.5, 3.0)])
        dil = xg.DilationMatrices.from_graph(g)
        lhs = dil.u @ (1j * dil.i_pm) @ dil.u.conj().T
        assert np.max(np.abs(lhs - dil.j)) <= 1e-14

    def test_d_ab_positive_diagonal(self):
        g = xg.MetricGraph.from_intervals([(1.0, 2.0), (0.5, 3.0)])
        dil = xg.DilationMatrices.from_graph(g)
        assert np.all(np.diag(dil.d_ab) > 0)
        assert np.max(np.abs(dil.d_ab - np.diag(np.diag(dil.d_ab)))) == 0.0
        assert np.allclose(np.diag(dil.d_ab), [1.0, 0.5, 2.0, 3.0])

    @pytest.mark.parametrize("e", range(1, 9))
    def test_u_and_j_match_block_oracle_bit_for_bit(self, e):
        # signed zeros included: compare the raw bytes
        g = xg.MetricGraph.from_intervals([(1.0, 2.0 + i) for i in range(e)])
        dil = xg.DilationMatrices.from_graph(g)
        u, j = dilation_blocks(e)
        assert dil.u.dtype == u.dtype and dil.j.dtype == j.dtype
        assert np.array_equal(dil.u.view(np.uint64), u.view(np.uint64))
        assert np.array_equal(dil.j.view(np.uint64), j.view(np.uint64))


class TestFirstOrderSMatrix:
    def test_dirichlet_type_scalar(self):
        spec = xg.validate_extension(np.eye(1), np.zeros((1, 1)), kind=xg.BK)
        assert xg.s_matrix_bk(spec) == pytest.approx(1j, abs=1e-15)

    def test_neumann_type_scalar(self):
        # i (0 - i) / (0 + i) = -i by 1x1 complex arithmetic
        spec = xg.validate_extension(np.zeros((1, 1)), np.eye(1), kind=xg.BK)
        assert xg.s_matrix_bk(spec) == pytest.approx(-1j, abs=1e-15)

    @pytest.mark.parametrize("c", [0.0, 0.25, 0.5, 0.8])
    def test_ring_phase(self, c):
        g = xg.MetricGraph.from_intervals([(1.0, math.e)], directed=True)
        s = xg.s_matrix_bk(xg.standard_bc("ring_phase", g, c=c))
        assert complex(s[0, 0]) == pytest.approx(np.exp(-2j * np.pi * c), abs=1e-12)

    def test_ring_phase_out_of_range(self):
        g = xg.MetricGraph.from_intervals([(1.0, math.e)])
        with pytest.raises(xg.ValidationError):
            xg.standard_bc("ring_phase", g, c=1.0)

    def test_from_smatrix_round_trip(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 4):
            v = random_unitary(rng, n)
            spec = xg.extension_from_smatrix(v)
            assert np.max(np.abs(xg.s_matrix_bk(spec) - v)) <= 1e-12


class TestDecomposition:
    def test_invertible_b(self):
        # B invertible: trivial kernel, L' = B'^-1 A'
        g = single_edge()
        dil = xg.DilationMatrices.from_graph(g)
        a = np.diag([2.0, -1.0])
        spec = xg.validate_extension(a, np.eye(2), kind=xg.BK2)
        dec = xg.decompose(spec, dil)
        assert np.max(np.abs(dec.p_ker)) <= 1e-12
        assert np.max(np.abs(dec.b_dprime - np.eye(2))) <= 1e-12
        a_pr = a @ dil.sqrt_d
        b_pr = np.eye(2) @ dil.inv_sqrt_d
        assert np.max(np.abs(dec.l_prime - np.linalg.inv(b_pr) @ a_pr)) <= 1e-10

    def test_zero_b(self):
        g = single_edge()
        dec = xg.decompose(xg.standard_bc("dirichlet", g),
                           xg.DilationMatrices.from_graph(g))
        assert np.max(np.abs(dec.p_ker - np.eye(2))) <= 1e-12
        assert np.max(np.abs(dec.l_dprime)) <= 1e-12
        assert np.max(np.abs(dec.a_dprime - np.eye(2))) <= 1e-12
        assert np.max(np.abs(dec.b_dprime)) <= 1e-12

    def test_projector_invariants(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(1, 4)))
            dec = xg.decompose(random_bk2_spec(rng, g),
                               xg.DilationMatrices.from_graph(g))
            eye = np.eye(dec.dim)
            assert np.max(np.abs(dec.p_ker + dec.p_perp - eye)) <= 1e-12
            for p in (dec.p_ker, dec.p_perp):
                assert np.max(np.abs(p @ p - p)) <= 1e-12
                assert np.max(np.abs(p - p.conj().T)) <= 1e-12
            for m in (dec.l_prime, dec.l_dprime):
                assert np.max(np.abs(m - m.conj().T)) <= 1e-12
            assert np.max(np.abs(dec.a_dprime - dec.p_ker - dec.l_dprime)) <= 1e-13
            assert np.max(np.abs(dec.b_dprime - dec.p_perp)) <= 1e-13

    def test_rank_ambiguity_detected(self):
        g = single_edge()
        dil = xg.DilationMatrices.from_graph(g)
        # B' singular values straddle the default threshold band
        b = np.diag([1.0, 1e-10]) @ dil.sqrt_d
        a = np.diag([0.0, 1.0]) @ dil.inv_sqrt_d
        spec = xg.validate_extension(a, b, kind=xg.BK2)
        with pytest.raises(RankAmbiguous):
            xg.decompose(spec, dil)
        dec = xg.decompose(spec, dil, rank_tol=1e-6)
        assert dec.rank == 1


class TestSecondOrderSMatrix:
    def test_dirichlet_is_minus_identity(self):
        g = single_edge()
        dec = xg.decompose(xg.standard_bc("dirichlet", g),
                           xg.DilationMatrices.from_graph(g))
        for k in (0.1, 1.0, 10.0, 100.0):
            assert np.max(np.abs(xg.s_matrix_bk2(dec, k) + np.eye(2))) <= 1e-12

    def test_neumann_is_identity(self):
        g = single_edge()
        dec = xg.decompose(xg.standard_bc("neumann", g),
                           xg.DilationMatrices.from_graph(g))
        for k in (0.1, 1.0, 10.0, 100.0):
            assert np.max(np.abs(xg.s_matrix_bk2(dec, k) - np.eye(2))) <= 1e-12

    @pytest.mark.parametrize("rho", [0.7, -1.3])
    def test_robin_diagonal(self, rho):
        g = single_edge()
        dec = xg.decompose(xg.standard_bc("robin", g, rho=rho),
                           xg.DilationMatrices.from_graph(g))
        for k in (0.3, 2.0, 25.0):
            expected = -(rho - 1j * k) / (rho + 1j * k)
            s = xg.s_matrix_bk2(dec, k)
            assert np.max(np.abs(np.diag(s) - expected)) <= 1e-12
            assert np.max(np.abs(s - np.diag(np.diag(s)))) <= 1e-12

    def test_robin_zero_parameter_is_neumann(self):
        g = single_edge()
        dec = xg.decompose(xg.standard_bc("robin", g, rho=0.0),
                           xg.DilationMatrices.from_graph(g))
        assert np.max(np.abs(xg.s_matrix_bk2(dec, 3.0) - np.eye(2))) <= 1e-12

    def test_spectral_matches_direct_formula(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            g = random_graph(rng, 2)
            dec = xg.decompose(random_bk2_spec(rng, g),
                               xg.DilationMatrices.from_graph(g))
            for k in (0.5, 3.0, 40.0):
                assert np.max(np.abs(xg.s_matrix_bk2(dec, k)
                                     - s_matrix_bk2_direct(dec, k))) <= 1e-9

    def test_derivative_matches_finite_difference(self):
        rng = np.random.default_rng(29)
        g = random_graph(rng, 2)
        dec = xg.decompose(random_bk2_spec(rng, g),
                           xg.DilationMatrices.from_graph(g))
        k, dk = 1.7, 1e-6
        fd = (xg.s_matrix_bk2(dec, k + dk) - xg.s_matrix_bk2(dec, k - dk)) / (2 * dk)
        assert np.max(np.abs(s_matrix_bk2_derivative(dec, k) - fd)) <= 1e-7

    def test_pole_on_imaginary_axis(self):
        g = single_edge()
        dec = xg.decompose(xg.standard_bc("robin", g, rho=1.0),
                           xg.DilationMatrices.from_graph(g))
        assert dec.sigma_l == pytest.approx([1.0, 1.0], abs=1e-12)
        with pytest.raises(SingularAtK):
            xg.s_matrix_bk2(dec, 1j * 1.0)


class TestSquaredLink:
    def test_ring_block_form(self):
        c = 0.3
        g = xg.MetricGraph.from_intervals([(1.0, math.e)])
        s = np.array([[np.exp(-2j * np.pi * c)]])
        spec, s_tilde = xg.squared_extension(s, g)
        expected = np.array([[0, np.exp(-2j * np.pi * c)],
                             [np.exp(2j * np.pi * c), 0]])
        assert np.max(np.abs(s_tilde - expected)) <= 1e-14
        dec = xg.decompose(spec, xg.DilationMatrices.from_graph(g))
        assert np.max(np.abs(xg.s_matrix_bk2(dec, 2.2) - expected)) <= 1e-12

    def test_identity_block_form(self):
        g = xg.MetricGraph.from_intervals([(1.0, 2.0), (1.0, 3.0)])
        spec, s_tilde = xg.squared_extension(np.eye(2), g)
        j0 = np.block([[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
        assert np.max(np.abs(s_tilde - j0)) <= 1e-14

    def test_squared_yields_vanishing_l(self):
        rng = np.random.default_rng(31)
        for n in (1, 2, 3):
            g = random_graph(rng, n)
            spec, s_tilde = xg.squared_extension(random_unitary(rng, n), g)
            dec = xg.decompose(spec, xg.DilationMatrices.from_graph(g))
            assert np.max(np.abs(dec.l_dprime)) <= 1e-12
            assert np.max(np.abs(xg.s_matrix_bk2(dec, 1.3) - s_tilde)) <= 1e-10
            assert xg.is_squared_form(s_tilde)

    def test_dirichlet_not_squared(self):
        assert not xg.is_squared_form(-np.eye(2))
        assert not xg.is_squared_form(-np.eye(4))

    def test_time_reversal_predicate(self):
        assert xg.is_time_reversal(np.array([[0, 1], [1, 0]], dtype=complex))
        assert not xg.is_time_reversal(np.array([[0, 1j], [2j, 0]]))


class TestUnitarityAndGauge:
    def test_first_order_unitarity(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            s = xg.s_matrix_bk(xg.extension_from_smatrix(random_unitary(rng, n)))
            assert np.max(np.abs(s.conj().T @ s - np.eye(n))) <= 1e-12

    def test_second_order_unitarity_sampled_k(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(1, 4)))
            dec = xg.decompose(random_bk2_spec(rng, g),
                               xg.DilationMatrices.from_graph(g))
            for k in (0.1, 1.0, 10.0, 100.0):
                s = xg.s_matrix_bk2(dec, k)
                assert np.max(np.abs(s.conj().T @ s - np.eye(dec.dim))) <= 1e-12

    def test_gauge_invariance(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            g = random_graph(rng, n)
            dil = xg.DilationMatrices.from_graph(g)

            spec1 = xg.extension_from_smatrix(random_unitary(rng, n))
            c = random_invertible(rng, n)
            spec1g = xg.validate_extension(c @ spec1.a, c @ spec1.b, kind=xg.BK)
            assert np.max(np.abs(xg.s_matrix_bk(spec1) - xg.s_matrix_bk(spec1g))) <= 1e-10

            spec2 = random_bk2_spec(rng, g)
            c2 = random_invertible(rng, 2 * n)
            spec2g = xg.validate_extension(c2 @ spec2.a, c2 @ spec2.b, kind=xg.BK2)
            d1 = xg.decompose(spec2, dil)
            d2 = xg.decompose(spec2g, dil)
            for k in (0.7, 13.0):
                assert np.max(np.abs(xg.s_matrix_bk2(d1, k)
                                     - xg.s_matrix_bk2(d2, k))) <= 1e-10
