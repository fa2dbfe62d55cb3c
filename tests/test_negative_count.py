"""Negative spectrum -kappa^2 of the squared operator from the count N(kappa).

N(kappa), the number of eigenvalues below -kappa^2, is the negative index
of Q+ Lambda(kappa) Q - diag(sigma_l), with Lambda the edge
Dirichlet-to-Neumann map.  Its jumps are the roots, and their sizes the
multiplicities.  The checks: closed-form Robin bound states to 30 digits
(mpmath), double roots on two copies of one Robin edge, the smallest
singular values of I - U(i kappa) at every root, agreement with the
sign-change search of det(I - U(i kappa)) wherever that one finds a root,
and the bound N(kappa) <= #{sigma_l > 0}.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import xpgraphs as xg
from xpgraphs import spectra

from util import (KDEP_FAMILIES, assert_stacks_do_not_leak, random_graph, random_kdep_spec,
                  sign_change_negative_roots)

#: largest m-th smallest singular value of I - U(i kappa) at a root of multiplicity m
SV_TOL = 1e-10
#: root distance allowed against the sign-change search and the closed form
ROOT_TOL = 1e-12

EXAMPLES = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def robin_system(log_lengths, rho):
    g = xg.MetricGraph.from_intervals([(1.0, math.exp(ell)) for ell in log_lengths])
    dec = xg.decompose(xg.standard_bc("robin", g, rho=rho), xg.DilationMatrices.from_graph(g))
    return xg.SecularSystem.bk2(dec, g)


def kdep_system(seed, n_edges, family):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n_edges)
    dec = xg.decompose(random_kdep_spec(rng, g, family), xg.DilationMatrices.from_graph(g))
    return xg.SecularSystem.bk2(dec, g)


def root_singular_values(sys_, roots):
    """The m smallest singular values of I - U(i kappa) at each root (kappa, m)."""
    eye = np.eye(sys_.dim)
    return [np.linalg.svd(eye - sys_.u_matrix(1j * kappa), compute_uv=False)[-m:]
            for kappa, m in roots]


def robin_bound_states(rho, ell):
    """kappa with kappa tanh(kappa l/2) = rho (even) or kappa coth(kappa l/2) = rho
    (odd): the bound states of one edge with Robin parameter rho > 0 at both ends."""
    mpmath.mp.dps = 30
    half = mpmath.mpf(ell) / 2
    found = [mpmath.findroot(lambda k: k * mpmath.tanh(k * half) - rho,
                             (mpmath.mpf("1e-6"), rho + 10), solver="anderson")]
    if rho * half > 1:
        found.append(mpmath.findroot(lambda k: k / mpmath.tanh(k * half) - rho,
                                     (mpmath.mpf("1e-6"), rho + 10), solver="anderson"))
    return sorted(float(k) for k in found)


@pytest.mark.parametrize("rho, ell", [(1.0, 4.0), (0.7, 2.0), (2.0, 1.5), (0.3, 1.0)])
def test_robin_edge_matches_closed_form(rho, ell):
    roots = xg.find_negative_eigenvalues(robin_system([ell], rho), 5.0)
    expected = robin_bound_states(rho, ell)
    assert [m for _, m in roots] == [1] * len(expected)
    for (kappa, _), exact in zip(roots, expected):
        assert abs(kappa - exact) <= ROOT_TOL


def test_doubled_robin_edge_has_double_roots():
    # det(I - U) is a square here and never changes sign
    single = xg.find_negative_eigenvalues(robin_system([4.0], 1.0), 5.68)
    sys_ = robin_system([4.0, 4.0], 1.0)
    double = xg.find_negative_eigenvalues(sys_, 5.68)
    assert [m for _, m in single] == [1, 1]
    assert [m for _, m in double] == [2, 2]
    for (k1, _), (k2, _) in zip(single, double):
        assert abs(k1 - k2) <= ROOT_TOL
    assert max(np.max(sv) for sv in root_singular_values(sys_, double)) <= SV_TOL
    assert sign_change_negative_roots(sys_, 5.68) == []


@pytest.mark.parametrize("kappa_max", [4.0, 1e9, 1e10, 1e12, 1e300])
def test_large_kappa_max_keeps_every_bound_state(kappa_max):
    # the search stops at max sigma + 2 / l_min, where M(kappa) > 0, so a large
    # kappa_max coarsens neither its window floor nor its bracket width
    roots = xg.find_negative_eigenvalues(robin_system([4.0], 1.0), kappa_max)
    expected = robin_bound_states(1.0, 4.0)
    assert [m for _, m in roots] == [1, 1]
    for (kappa, _), exact in zip(roots, expected):
        assert abs(kappa - exact) <= ROOT_TOL


@EXAMPLES
@given(seed=st.integers(0, 2 ** 32 - 1), n_edges=st.integers(1, 3),
       family=st.sampled_from(KDEP_FAMILIES), kappa_max=st.sampled_from([1e10, 1e300]))
def test_clipped_search_matches_a_wide_unclipped_one(seed, n_edges, family, kappa_max):
    # reference: one bracket up to 4 max(1, max |sigma|) + 4, refined to its own width
    sys_ = kdep_system(seed, n_edges, family)
    top = 4.0 * max(1.0, float(np.max(np.abs(sys_.dec.sigma_l), initial=0.0))) + 4.0
    count, lo = spectra._NegativeCount(sys_), spectra._window_floor(top)
    n_lo, n_hi = count.m_many([lo, top])[0].tolist()
    reference, _ = spectra._refine_brackets(count, [(lo, top, n_lo, n_hi, None)], 1e-13 * top)
    roots = xg.find_negative_eigenvalues(sys_, kappa_max)
    assert [m for _, m in roots] == [m for _, m in reference]
    for (kappa, _), (ref, _) in zip(roots, reference):
        assert abs(kappa - ref) <= 1e-9


@pytest.mark.parametrize("rho", [-1.0, 0.0])
def test_count_is_zero_without_binding(rho):
    count = spectra._NegativeCount(robin_system([4.0, 1.0], rho))
    assert count.m_many(np.geomspace(1e-9, 10.0, 12))[0].tolist() == [0] * 12


@pytest.mark.parametrize("kind", ["neumann", "kirchhoff"])
@pytest.mark.parametrize("seed", range(4))
def test_zero_mode_is_not_a_bound_state(kind, seed):
    # the eigenvalue 0 leaves M(kappa) an eigenvalue of order kappa^2 l,
    # below rounding at kappa_lo; it must not count as negative there
    rng = np.random.default_rng(seed)
    n_edges = int(rng.integers(1, 5))
    g = xg.MetricGraph.from_intervals(
        [(1.0, math.exp(rng.uniform(0.05, 6.0))) for _ in range(n_edges)],
        vertices=[("c", f"t{i}") for i in range(n_edges)])
    dec = xg.decompose(xg.standard_bc(kind, g), xg.DilationMatrices.from_graph(g))
    sys_ = xg.SecularSystem.bk2(dec, g)
    assert xg.zero_mode_test(sys_)[0] >= 1
    counts = spectra._NegativeCount(sys_).m_many(np.geomspace(1e-12, 1e-3, 50))[0]
    assert not np.any(counts)
    for kappa_max in (1e-3, 0.1, 5.0, 100.0):
        assert xg.find_negative_eigenvalues(sys_, kappa_max) == []


@EXAMPLES
@given(seed=st.integers(0, 2 ** 32 - 1), n_edges=st.integers(1, 2),
       family=st.sampled_from(KDEP_FAMILIES))
def test_count_is_monotone_and_bounded(seed, n_edges, family):
    sys_ = kdep_system(seed, n_edges, family)
    counts = spectra._NegativeCount(sys_).m_many(np.geomspace(1e-9, 20.0, 40))[0]
    assert counts[0] <= int(np.sum(sys_.dec.sigma_l > 0))
    assert np.all(np.diff(counts) <= 0)


@EXAMPLES
@given(seed=st.integers(0, 2 ** 32 - 1), n_edges=st.integers(1, 2),
       family=st.sampled_from(KDEP_FAMILIES))
def test_roots_are_zeros_of_the_secular_matrix(seed, n_edges, family):
    kappa_max = 5.0
    sys_ = kdep_system(seed, n_edges, family)
    roots = xg.find_negative_eigenvalues(sys_, kappa_max)
    count = spectra._NegativeCount(sys_)
    n_lo, n_hi = count.m_many([1e-9 * kappa_max, kappa_max])[0].tolist()
    assert sum(m for _, m in roots) == n_lo - n_hi
    for (kappa, m), sv in zip(roots, root_singular_values(sys_, roots)):
        assert np.max(sv) <= SV_TOL, (kappa, m, sv)
    for kappa in sign_change_negative_roots(sys_, kappa_max):
        assert min(abs(kappa - k) for k, _ in roots) <= ROOT_TOL


def test_newton_step_matches_the_eigenvalue_slope():
    # both steps -mu / slope against a central difference of their
    # eigenvalue of M(kappa): the one nearest 0, and the one nearest 0 on
    # the other side of 0, on two edges with mixed-sign Robin ends (bound
    # states at 0.748, 1.000 and 1.501; at 1.6 no eigenvalue is negative)
    count = spectra._NegativeCount(robin_system([4.0, 3.0], [1.0, 0.8, -0.5, 1.5]))
    kappas = np.array([0.3, 0.7, 1.1, 1.3, 1.6])
    _, steps, others = count.newton_steps(kappas)
    vals = count.m_many(kappas)[1]
    rows, j = np.arange(len(kappas)), np.argmin(np.abs(vals), axis=-1)
    neg = np.sum(vals < 0.0, axis=-1)
    far = np.where(j == neg, neg - 1, neg)
    assert np.isnan(others[-1]) and far[-1] == -1
    delta = 1e-6
    for got, pick, at in ((steps, j, rows), (others, far, rows[:-1])):
        slope = (count.m_many(kappas[at] + delta)[1][at, pick[at]]
                 - count.m_many(kappas[at] - delta)[1][at, pick[at]]) / (2.0 * delta)
        assert np.all(slope > 0.0)
        np.testing.assert_allclose(got[at], -vals[at, pick[at]] / slope, rtol=1e-6)
        # a negative eigenvalue steps up to a root above kappa, a positive one down
        assert np.all(np.sign(got[at]) == -np.sign(vals[at, pick[at]]))
    assert np.all(np.sign(vals[rows[:-1], j[:-1]]) != np.sign(vals[rows[:-1], far[:-1]]))


def test_other_side_step_is_nan_without_an_eigenvalue_there():
    # the Robin rho = 1 edge of log length 4 binds at 0.9575 and 1.0327: below
    # both every eigenvalue of M(kappa) is negative, above both nonnegative
    count = spectra._NegativeCount(robin_system([4.0], 1.0))
    counts, steps, others = count.newton_steps(np.array([0.5, 1.0, 3.0]))
    assert counts.tolist() == [2, 1, 0]
    assert np.all(np.isfinite(steps))
    assert np.isnan(others[0]) and np.isfinite(others[1]) and np.isnan(others[2])


def test_decreasing_count_refines_by_newton_steps():
    # N(kappa) falls across each root: the ends move by equality of counts.
    # Bisecting (kappa_lo, 4] to 4e-13 would take about 43 evals per root.
    sys_ = robin_system([4.0, 3.0], [1.0, 0.8, -0.5, 1.5])
    count = spectra._NegativeCount(sys_)
    lo, hi = 1e-9, 4.0
    n_lo, n_hi = count.m_many([lo, hi])[0].tolist()
    assert n_lo - n_hi == 3
    roots, _ = spectra._refine_brackets(count, [(lo, hi, n_lo, n_hi, None)], 4e-13)
    assert sum(m for _, m in roots) == 3
    assert count.evals - 2 <= 8 * len(roots)
    for (kappa, _), (ref, _) in zip(roots, xg.find_negative_eigenvalues(sys_, hi)):
        assert abs(kappa - ref) <= ROOT_TOL


def count_calls(monkeypatch) -> list:
    """The names of the count calls (m_many, parity, newton_steps) made
    from now on, in order."""
    calls = []
    for name in ("m_many", "parity", "newton_steps"):
        def wrapped(self, ks, call=getattr(spectra._Count, name), name=name):
            calls.append(name)
            return call(self, ks)
        monkeypatch.setattr(spectra._Count, name, wrapped)
    return calls


def test_long_robin_edge_takes_five_count_calls(monkeypatch):
    # sigma l = 4 > SEED_BINDING: the search starts at the half-line bound
    # state kappa = sigma = 1, whose count splits the bracket between the two
    # states; each part takes the Newton step from its own side of 0, and the
    # four certificate points share one parity call: m_many, then three
    # Newton rounds and one parity call (a midpoint start and one-sided
    # split seeds took 9 calls and 6 rounds)
    calls = count_calls(monkeypatch)
    roots = xg.find_negative_eigenvalues(robin_system([4.0], 1.0), 5.0)
    assert [m for _, m in roots] == [1, 1]
    for (kappa, _), exact in zip(roots, robin_bound_states(1.0, 4.0)):
        assert abs(kappa - exact) <= ROOT_TOL
    assert len(calls) <= 5 and calls.count("newton_steps") <= 3, calls


@pytest.mark.parametrize("ells, rho, seed", [
    ([4.0], 1.0, 1.0),
    ([1.0], 0.3, None),                                 # sigma l = 0.3: midpoint
    ([1.0], 2.0, None),                                 # sigma l = 2 is not above it
    ([2.0, 3.0], [2.5, 0.8, 1.2, 1.5], 1.5),            # 1.2, 1.5, 2.5 qualify
    ([4.0, 0.5], [3.0, -1.0, 0.5, 3.0], None),          # l_min = 0.5: 3 l_min < 2
])
def test_first_iterate_is_the_median_binding_sigma(monkeypatch, ells, rho, seed):
    # the lower median of the sigma_j with sigma_j l_min > SEED_BINDING, else
    # the midpoint of the bracket
    brackets = []

    def refine(count, given, tol):
        brackets.extend(given)
        return [], 0
    monkeypatch.setattr(spectra, "_refine_brackets", refine)
    xg.find_negative_eigenvalues(robin_system(ells, rho), 10.0)
    assert [b[4] for b in brackets] == [seed]


def edge_bound_states(ell, rho_a, rho_b, top):
    """Bound states of one edge with Robin ends rho_a, rho_b below top: the
    roots of the two eigenvalues of Lambda(kappa) - diag(rho_a, rho_b), each
    increasing in kappa, by brentq on the closed-form 2 x 2 eigenvalues."""
    def branch(sign):
        def f(kappa):
            x = kappa * ell
            den = -math.expm1(-2.0 * x)
            coth, csch = (2.0 - den) / den, 2.0 * math.exp(-x) / den
            return (kappa * coth - 0.5 * (rho_a + rho_b)
                    + sign * math.hypot(0.5 * (rho_a - rho_b), kappa * csch))
        return f
    lo = 1e-12
    return [brentq(f, lo, top, xtol=1e-15, rtol=4 * np.finfo(float).eps)
            for f in (branch(-1.0), branch(1.0)) if f(lo) < 0.0 < f(top)]


def test_drawn_robin_systems_match_their_edges():
    # 300 fixed draws: single edges, and 2 to 5 edges with a rho per end,
    # rho in [-1, 3], log lengths in [0.3, 5]; every edge is on its own, so
    # the bound states are those of its 2 x 2 problem
    rng = np.random.default_rng(2026)
    for i in range(300):
        n_edges = 1 if i % 2 == 0 else int(rng.integers(2, 6))
        ells = rng.uniform(0.3, 5.0, size=n_edges)
        rho = rng.uniform(-1.0, 3.0, size=1 if n_edges == 1 else 2 * n_edges)
        ends = np.broadcast_to(rho, (2 * n_edges,))
        roots = xg.find_negative_eigenvalues(robin_system(ells, rho), 10.0)
        expected = sorted(k for ell, a, b in zip(ells, ends[:n_edges], ends[n_edges:])
                          for k in edge_bound_states(ell, a, b, 10.0))
        assert [m for _, m in roots] == [1] * len(expected), i
        for (kappa, _), exact in zip(roots, expected):
            assert abs(kappa - exact) <= ROOT_TOL * max(1.0, exact), (i, kappa, exact)


@pytest.mark.parametrize("make", [
    lambda: robin_system([4.0], 1.0),
    lambda: kdep_system(2, 2, "hermitian_full"),
    lambda: kdep_system(3, 3, "robin"),
    lambda: robin_system(np.linspace(1.0, 3.0, 10), [1.0, -0.5] * 10),
], ids=["robin-1", "hermitian-2", "robin-3", "robin-10"])
def test_stacks_do_not_leak(monkeypatch, make):
    # a point's count, eigenvalues, parity and Newton step do not depend on
    # the points beside it in its stacked call
    count = spectra._NegativeCount(make())
    kappas = np.random.default_rng(7).uniform(0.01, 3.0, 25)
    assert_stacks_do_not_leak(monkeypatch, count, kappas, count.q.shape[1] ** 2)
