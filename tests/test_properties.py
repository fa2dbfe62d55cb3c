"""Randomized property suites: 200 cases each at a fixed seed.

These back the package-level guarantees: unitarity of both S-matrix
families, gauge invariance of the scattering data, eigenphase velocity
bounds, the +-k symmetry of the squared-operator secular function, and
probe independence of the zero-mode multiplicity.
"""

import math

import numpy as np
import pytest

import xpgraphs as xg

from util import (
    random_bk2_spec,
    random_graph,
    random_invertible,
    random_unitary,
    s_matrix_bk2_direct,
)

N_CASES = 200
BASE_SEED = 20260808

CASES = list(range(N_CASES))


def rng_for(case: int) -> np.random.Generator:
    return np.random.default_rng(BASE_SEED + case)


@pytest.mark.parametrize("case", CASES)
def test_first_order_smatrix_unitary(case):
    rng = rng_for(case)
    n = int(rng.integers(1, 5))
    spec = xg.extension_from_smatrix(random_unitary(rng, n))
    c = random_invertible(rng, n)
    gauged = xg.validate_extension(c @ spec.a, c @ spec.b, kind=xg.BK)
    s = xg.s_matrix_bk(gauged)
    assert np.max(np.abs(s.conj().T @ s - np.eye(n))) <= 1e-12


@pytest.mark.parametrize("case", CASES)
def test_second_order_smatrix_unitary(case):
    rng = rng_for(case)
    g = random_graph(rng, int(rng.integers(1, 4)))
    dec = xg.decompose(random_bk2_spec(rng, g), xg.DilationMatrices.from_graph(g))
    for k in (0.1, 1.0, 10.0, 100.0):
        s = xg.s_matrix_bk2(dec, k)
        assert np.max(np.abs(s.conj().T @ s - np.eye(dec.dim))) <= 1e-12


@pytest.mark.parametrize("case", CASES)
def test_gauge_invariance(case):
    rng = rng_for(case)
    n = int(rng.integers(1, 4))
    g = random_graph(rng, n)
    dil = xg.DilationMatrices.from_graph(g)

    spec1 = xg.extension_from_smatrix(random_unitary(rng, n))
    c1 = random_invertible(rng, n)
    gauged1 = xg.validate_extension(c1 @ spec1.a, c1 @ spec1.b, kind=xg.BK)
    assert np.max(np.abs(xg.s_matrix_bk(spec1) - xg.s_matrix_bk(gauged1))) <= 1e-10

    spec2 = random_bk2_spec(rng, g)
    c2 = random_invertible(rng, 2 * n)
    gauged2 = xg.validate_extension(c2 @ spec2.a, c2 @ spec2.b, kind=xg.BK2)
    d1 = xg.decompose(spec2, dil)
    d2 = xg.decompose(gauged2, dil)
    k = float(rng.uniform(0.2, 20.0))
    assert np.max(np.abs(xg.s_matrix_bk2(d1, k) - xg.s_matrix_bk2(d2, k))) <= 1e-10


@pytest.mark.parametrize("case", CASES)
def test_eigenphase_velocity(case):
    rng = rng_for(case)
    n = int(rng.integers(1, 5))
    g = random_graph(rng, n)
    sys_ = xg.SecularSystem.bk(random_unitary(rng, n), g)
    k = float(rng.uniform(-10.0, 10.0))
    u = sys_.u_matrix(k)
    vals, vecs = np.linalg.eig(u)
    w_min, w_max = float(np.min(sys_.weights)), float(np.max(sys_.weights))
    delta = 1e-6
    vals_up = np.linalg.eigvals(sys_.u_matrix(k + delta))
    for j in range(n):
        v = vecs[:, j] / np.linalg.norm(vecs[:, j])
        rate = float(np.sum(sys_.weights * np.abs(v) ** 2))
        assert w_min - 1e-9 <= rate <= w_max + 1e-9
        predicted = vals[j] * np.exp(1j * rate * delta)
        nearest = vals_up[np.argmin(np.abs(vals_up - predicted))]
        fd_rate = float(np.angle(nearest / vals[j]) / delta)
        assert fd_rate == pytest.approx(rate, rel=1e-4, abs=1e-6)


@pytest.mark.parametrize("case", CASES)
def test_secular_k_reflection_symmetry(case):
    # F(-k) = conj F(k), so zeros come in +-k pairs with equal multiplicity
    rng = rng_for(case)
    g = random_graph(rng, int(rng.integers(1, 4)))
    dec = xg.decompose(random_bk2_spec(rng, g), xg.DilationMatrices.from_graph(g))
    sys_ = xg.SecularSystem.bk2(dec, g)
    k = float(rng.uniform(0.1, 30.0))
    f_plus = xg.secular(sys_, k)
    f_minus = xg.secular(sys_, -k)
    assert f_minus == pytest.approx(np.conj(f_plus), rel=1e-9, abs=1e-11)


@pytest.mark.parametrize("case", CASES)
def test_zero_mode_probe_independent(case):
    rng = rng_for(case)
    g = random_graph(rng, int(rng.integers(1, 4)))
    sys_ = xg.SecularSystem.bk2(
        xg.decompose(random_bk2_spec(rng, g), xg.DilationMatrices.from_graph(g)), g)
    g0_a, n_a = xg.zero_mode_test(sys_, k_probe=1.0)
    g0_b, n_b = xg.zero_mode_test(sys_, k_probe=math.sqrt(2.0))
    assert (g0_a, n_a) == (g0_b, n_b)


@pytest.mark.parametrize("case", range(50))
def test_spectral_and_direct_smatrix_agree(case):
    rng = rng_for(10_000 + case)
    g = random_graph(rng, int(rng.integers(1, 4)))
    dec = xg.decompose(random_bk2_spec(rng, g), xg.DilationMatrices.from_graph(g))
    k = float(rng.uniform(0.2, 25.0))
    assert np.max(np.abs(xg.s_matrix_bk2(dec, k)
                         - s_matrix_bk2_direct(dec, k))) <= 1e-8


@pytest.mark.parametrize("case", range(25))
def test_squared_extension_normal_form(case):
    # building the squared pair from a unitary always gives L'' = 0 and
    # the block S-matrix
    rng = rng_for(20_000 + case)
    n = int(rng.integers(1, 4))
    g = random_graph(rng, n)
    spec, s_tilde = xg.squared_extension(random_unitary(rng, n), g)
    dec = xg.decompose(spec, xg.DilationMatrices.from_graph(g))
    assert np.max(np.abs(dec.l_dprime)) <= 1e-12
    assert np.max(np.abs(xg.s_matrix_bk2(dec, 1.1) - s_tilde)) <= 1e-10
