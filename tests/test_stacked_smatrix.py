"""Stacked S''(k) builds, at fixed seeds.

``s_matrix_bk2``, ``s_matrix_bk2_derivative``, ``SecularSystem.bond_matrix``
and ``u_matrix`` take an array of k and return the stack of matrices from
one broadcast (``secular`` the array of determinants).  Each element must
equal the scalar build, the raw formula
-(A'' - ikB'')(A'' + ikB'')^-1 and central differences, and the stack must
keep the continuous k = 0 limit and the pole guard of the scalar path.
"""

import math

import numpy as np
import pytest

import xpgraphs as xg
from xpgraphs import spectra, traces
from xpgraphs.errors import SingularAtK
from xpgraphs.extensions import s_matrix_bk2_derivative

from util import (KDEP_FAMILIES, random_graph, random_kdep_spec, s_matrix_bk2_direct,
                  swap_matrix)

BASE_SEED = 20261019
N_PER_FAMILY = 3
CASES = range(len(KDEP_FAMILIES) * N_PER_FAMILY)


def kdep_system(case):
    family = KDEP_FAMILIES[case % len(KDEP_FAMILIES)]
    rng = np.random.default_rng(BASE_SEED + case)
    g = random_graph(rng, int(rng.integers(1, 3)))
    spec = random_kdep_spec(rng, g, family)
    sys_ = xg.SecularSystem.bk2(xg.decompose(spec, xg.DilationMatrices.from_graph(g)), g)
    assert not sys_.k_independent
    return rng, sys_


def sample_ks(rng):
    """Real k of both signs and complex k off the imaginary axis, none near 0."""
    real = rng.choice([-1.0, 1.0], size=12) * rng.uniform(0.05, 8.0, size=12)
    cplx = rng.uniform(-4.0, 4.0, size=4) + 1j * rng.uniform(-0.2, 0.2, size=4)
    return np.concatenate([real, cplx])


def robin_edge():
    g = xg.MetricGraph.from_intervals([(1.0, math.exp(4.0))])
    spec = xg.standard_bc("robin", g, rho=1.0)
    return g, xg.decompose(spec, xg.DilationMatrices.from_graph(g))


@pytest.mark.parametrize("case", CASES)
def test_stack_equals_per_k_builds(case):
    rng, sys_ = kdep_system(case)
    ks = sample_ks(rng)
    builders = {
        "s_matrix_bk2": lambda k: xg.s_matrix_bk2(sys_.dec, k),
        "derivative": lambda k: s_matrix_bk2_derivative(sys_.dec, k),
        "bond_matrix": sys_.bond_matrix,
        "u_matrix": sys_.u_matrix,
    }
    square = (sys_.dim, sys_.dim)
    for name, build in builders.items():
        stack = build(ks)
        assert stack.shape == ks.shape + square, name
        for k, m in zip(ks, stack):
            np.testing.assert_array_equal(m, build(k), err_msg=name)
        # any leading shape, element by element
        np.testing.assert_array_equal(build(ks.reshape(4, 4)),
                                      stack.reshape((4, 4) + square))
    values = xg.secular(sys_, ks)
    assert values.shape == ks.shape
    np.testing.assert_array_equal(values, [xg.secular(sys_, k) for k in ks])


@pytest.mark.parametrize("case", CASES)
def test_stack_matches_raw_formula_and_differences(case):
    rng, sys_ = kdep_system(case)
    dec = sys_.dec
    ks = sample_ks(rng)
    stack = xg.s_matrix_bk2(dec, ks)
    for k, m in zip(ks, stack):
        assert np.max(np.abs(m - s_matrix_bk2_direct(dec, k))) <= 1e-12
    # bond_matrix is S''(k) J0
    j0 = swap_matrix(len(sys_.lengths))
    assert np.max(np.abs(sys_.bond_matrix(ks) - stack @ j0)) <= 1e-15

    dk = 1e-6
    fd = (xg.s_matrix_bk2(dec, ks + dk) - xg.s_matrix_bk2(dec, ks - dk)) / (2 * dk)
    assert np.max(np.abs(s_matrix_bk2_derivative(dec, ks) - fd)) <= 1e-7


@pytest.mark.parametrize("case", CASES)
def test_stack_with_zero_gives_continuous_limit(case):
    rng, sys_ = kdep_system(case)
    dec = sys_.dec
    ks = np.concatenate([sample_ks(rng)[:5], [0.0], [1e-9, -1e-9]])
    s = xg.s_matrix_bk2(dec, ks)
    ds = s_matrix_bk2_derivative(dec, ks)
    assert np.all(np.isfinite(s)) and np.all(np.isfinite(ds))
    for near in (6, 7):
        assert np.max(np.abs(s[5] - s[near])) <= 1e-7
        assert np.max(np.abs(ds[5] - ds[near])) <= 1e-7
    np.testing.assert_array_equal(s[5], xg.s_matrix_bk2(dec, 0.0))
    np.testing.assert_array_equal(sys_.bond_matrix(ks)[5], sys_.bond_matrix(0.0))
    # the limit is unitary: eigenvalue +1 on each zero eigenvalue of L'' in
    # ran B'+, -1 on the rest
    assert np.max(np.abs(s[5] @ s[5].conj().T - np.eye(dec.dim))) <= 1e-12
    eig = np.linalg.eigvals(s[5])
    n_plus = dec.rank - len(sys_.poles)
    assert int(np.sum(np.abs(eig - 1.0) <= 1e-9)) == n_plus
    assert int(np.sum(np.abs(eig + 1.0) <= 1e-9)) == dec.dim - n_plus


@pytest.mark.parametrize("case", CASES)
def test_stack_with_pole_raises(case):
    rng, sys_ = kdep_system(case)
    lam = float(rng.choice(sys_.poles))
    ks = np.concatenate([sample_ks(rng)[:6], [1j * lam], sample_ks(rng)[:3]])
    for build in (lambda k: xg.s_matrix_bk2(sys_.dec, k),
                  lambda k: s_matrix_bk2_derivative(sys_.dec, k),
                  sys_.bond_matrix, sys_.u_matrix):
        with pytest.raises(SingularAtK):
            build(ks)
        with pytest.raises(SingularAtK):
            build(ks.reshape(2, 5))
        build(np.delete(ks, 6))


def test_rank_zero_stack():
    g = xg.MetricGraph.from_intervals([(1.0, math.e), (1.0, 3.0)])
    dec = xg.decompose(xg.standard_bc("dirichlet", g), xg.DilationMatrices.from_graph(g))
    ks = np.array([-2.0, 0.0, 1.5])
    s = xg.s_matrix_bk2(dec, ks)
    assert s.shape == (3, 4, 4) and s.dtype == complex
    np.testing.assert_array_equal(s, np.broadcast_to(-np.eye(4), s.shape))
    np.testing.assert_array_equal(s_matrix_bk2_derivative(dec, ks), np.zeros((3, 4, 4)))


def test_trace_rhs_bk2_builds_budget(monkeypatch):
    # the acceptance case of the second-order trace formula: Robin(rho = 1)
    # on one edge of log length 4, Gaussian t = 1
    g, dec = robin_edge()
    h = xg.gaussian(1.0)
    sys_ = xg.SecularSystem.bk2(dec, g)
    sp = xg.find_spectrum(sys_, (0.0, math.sqrt(math.log(1e15))), tol=1e-12)
    lhs, _ = xg.trace_lhs(sp, h, g.total_length)

    counts = {"s_matrix_bk2": 0, "s_matrix_bk2_derivative": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(spectra, "s_matrix_bk2")
    counted(traces, "s_matrix_bk2_derivative")
    report = xg.trace_rhs_bk2(g, dec, h)
    assert 0 < counts["s_matrix_bk2"] <= 50
    assert 0 < counts["s_matrix_bk2_derivative"] <= 50
    assert abs(lhs - report.rhs_total) <= 1e-7


def test_negative_axis_grid_matches_scalar_secular():
    g, dec = robin_edge()
    sys_ = xg.SecularSystem.bk2(dec, g)
    roots = xg.find_negative_eigenvalues(sys_, kappa_max=5.0)
    assert [m for _, m in roots] == [1, 1]
    for kappa, _ in roots:
        assert abs(xg.secular(sys_, 1j * kappa)) <= 1e-10
