"""Counts in simple brackets from the sign of one determinant.

Inside a bracket whose count jumps by one, the count at any point is one
of the two end counts, and the two differ in parity.  ``_CayleyCount.parity``
reads (-1)^M(k) off the sign of det(I - U(k)) exp(-i (theta0 + k sum(w)
- d pi) / 2), and the Hermitian counts read (-1)^N off the sign of det H
and the offset.  The checks: parity against the full count at random
points and next to roots and Dirichlet points, wherever the sign is
resolved; spectra root by root against the eigensolve-only path kept in
``util``; one eigensolve per level in refinement; the root at a split
point returned at the converged Newton iterate; and the smallest tol a
window admits.
"""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xpgraphs as xg
from xpgraphs import spectra

from util import (KDEP_FAMILIES, dense_count, eigensolve_spectrum, random_graph,
                  random_kdep_spec, random_unitary)

EXAMPLES = settings(max_examples=25, deadline=None, derandomize=True, database=None)

#: distances from a root or a Dirichlet point at which parity is compared
NEAR = (1e-13, 1e-11, 1e-9)


def assert_parity_matches(count, ks, min_resolved=0.0):
    """Wherever the determinant sign is resolved, it is (-1)^count."""
    ks = np.asarray(ks, dtype=float)
    signs = count.parity(ks)
    full = count.m_many(ks)[0]
    resolved = signs != 0
    np.testing.assert_array_equal(signs[resolved], 1 - 2 * (full[resolved] % 2))
    assert resolved.mean() >= min_resolved


def near(points):
    return np.concatenate([np.asarray(points) + s * d for d in NEAR for s in (-1.0, 1.0)])


def first_order(seed, n_edges, minus_one=False):
    """Random first-order system; minus_one gives S an eigenvalue -1."""
    rng = np.random.default_rng(seed)
    s = random_unitary(rng, n_edges)
    if minus_one:
        vals, vecs = np.linalg.eig(s)
        vals[0] = -1.0
        s = vecs @ np.diag(vals) @ np.linalg.inv(vecs)
    return xg.SecularSystem.bk(s, random_graph(rng, n_edges))


def squared(spec, g):
    return xg.SecularSystem.bk2(xg.decompose(spec, xg.DilationMatrices.from_graph(g)), g)


def kirchhoff_star(n_edges, equal=False, seed=0):
    logs = np.ones(n_edges) if equal else np.random.default_rng(seed).uniform(1.0, 2.0, n_edges)
    g = xg.MetricGraph.from_intervals([(1.0, math.exp(ell)) for ell in logs],
                                      vertices=[("c", f"t{i}") for i in range(n_edges)])
    return squared(xg.standard_bc("kirchhoff", g), g)


@EXAMPLES
@given(seed=st.integers(0, 2 ** 32 - 1), n_edges=st.integers(1, 6), minus_one=st.booleans())
def test_first_order_parity(seed, n_edges, minus_one):
    sys_ = first_order(seed, n_edges, minus_one)
    scan = spectra._CayleyCount(sys_)
    ks = np.random.default_rng(seed).uniform(-40.0, 40.0, 40)
    assert_parity_matches(scan, ks, min_resolved=0.9)
    roots = xg.find_spectrum(sys_, (-10.0, 10.0), tol=1e-12).wavenumbers
    assert_parity_matches(scan, near(roots))


def test_ring_with_s_minus_one():
    # ring_phase c = 0.5: S = -1, levels at 2 pi (n + 1/2) / l
    g = xg.MetricGraph.from_intervals([(1.0, math.e)], directed=True)
    sys_ = xg.SecularSystem.bk(xg.s_matrix_bk(xg.standard_bc("ring_phase", g, c=0.5)), g)
    scan = spectra._CayleyCount(sys_)
    levels = 2.0 * math.pi * (np.arange(-5, 5) + 0.5)
    assert_parity_matches(scan, np.linspace(-30.0, 30.0, 101), min_resolved=0.9)
    assert_parity_matches(scan, near(levels))
    assert np.all(scan.parity(near(levels)) != 0)
    sp = xg.find_spectrum(sys_, (-30.0, 30.0), tol=1e-12)
    np.testing.assert_allclose(sp.wavenumbers, levels, atol=5e-13)


@pytest.mark.parametrize("n_edges", [2, 3, 5])
def test_equal_length_star_through_scan(n_edges):
    # Kirchhoff star of log length 1: simple levels at pi n, (E - 1)-fold
    # ones at pi (n + 1/2); U(k) of size 2E through the constant-S count
    scan = spectra._CayleyCount(kirchhoff_star(n_edges, equal=True))
    levels = math.pi * np.arange(1, 7) / 2.0
    assert_parity_matches(scan, np.random.default_rng(n_edges).uniform(0.1, 20.0, 60),
                          min_resolved=0.9)
    assert_parity_matches(scan, near(levels))
    assert np.all(scan.parity(levels) == 0)         # det(I - U) vanishes at a root


@EXAMPLES
@given(seed=st.integers(0, 2 ** 32 - 1), n_edges=st.integers(1, 6),
       family=st.sampled_from(KDEP_FAMILIES + ("kirchhoff",)))
def test_hermitian_parity_next_to_roots_and_poles(seed, n_edges, family):
    rng = np.random.default_rng(seed)
    if family == "kirchhoff":
        sys_ = kirchhoff_star(n_edges, seed=seed)
    else:
        g = random_graph(rng, n_edges)
        sys_ = squared(random_kdep_spec(rng, g, family), g)
    count = spectra._PositiveCount(sys_)
    assert_parity_matches(count, rng.uniform(0.1, 12.0, 40), min_resolved=0.9)
    roots = xg.find_spectrum(sys_, (0.0, 8.0), tol=1e-12).wavenumbers
    poles = spectra._dirichlet_points(sys_.lengths, 0.1, 8.0, 1e-12)
    assert_parity_matches(count, near(np.concatenate([roots, poles])))

    negative = spectra._NegativeCount(sys_)
    assert_parity_matches(negative, rng.uniform(0.05, 6.0, 20), min_resolved=0.9)
    kappas = [k for k, _ in spectra.find_negative_eigenvalues(sys_, 6.0)]
    if kappas:
        points = near(kappas)
        assert_parity_matches(negative, points[points > 0])


def robin_edges(n_edges, rho):
    g = random_graph(np.random.default_rng(n_edges), n_edges)
    return squared(xg.standard_bc("robin", g, rho=rho), g)


def outputs(count, ks):
    """m_many, parity, newton_steps and gaps of count over ks, with the
    tallies each call adds, (evals, lu_evals)."""
    calls = []
    for call in (count.m_many, count.parity, count.newton_steps):
        before = (count.evals, count.lu_evals)
        out = call(ks)
        calls.append((out, (count.evals - before[0], count.lu_evals - before[1])))
    return calls + [(count.gaps(calls[0][0][1]), (0, 0))] if hasattr(count, "gaps") else calls


@pytest.mark.parametrize("make, lo, hi", [
    (lambda: spectra._CayleyCount(first_order(7, 1)), -30.0, 30.0),
    (lambda: spectra._CayleyCount(first_order(8, 5)), -30.0, 30.0),
    (lambda: spectra._TreeCount(kirchhoff_star(6, seed=2)), 0.05, 20.0),
    (lambda: spectra._PositiveCount(kirchhoff_star(3, seed=3)), 0.05, 20.0),
    (lambda: spectra._PositiveCount(kirchhoff_star(8, equal=True)), 0.05, 20.0),
    (lambda: spectra._NegativeCount(robin_edges(4, 1.5)), 0.01, 4.0),
], ids=["cayley-d1", "cayley-d5", "elimination", "dense-e3", "dense-e8-slots", "negative"])
def test_count_contract(make, lo, hi):
    # the protocol every count keeps: parity is (-1)^count where resolved,
    # newton_steps counts (where given) are the m_many counts, m_many
    # tallies evals, parity lu_evals, newton_steps evals only with counts,
    # and no points give empty outputs of the one-point shapes; only the
    # bound-state count gives steps from the other side of 0
    count = make()
    ks = np.random.default_rng(int(hi)).uniform(lo, hi, 60)
    if isinstance(count, spectra._PositiveCount):      # full-border points next to poles
        ks = np.concatenate([ks, spectra._dirichlet_points(count.lengths, lo, hi, 1e-9) + 1e-9])
    ((counts, _), m_tally), (signs, p_tally), ((newton, steps, others), n_tally), *_ = \
        outputs(count, ks)
    resolved = signs != 0
    assert resolved.mean() >= 0.9
    np.testing.assert_array_equal(signs[resolved], 1 - 2 * (counts[resolved] % 2))
    if newton is not None:
        np.testing.assert_array_equal(newton, counts)
    if isinstance(count, spectra._NegativeCount):
        assert others.shape == steps.shape and np.isfinite(others).any()
    else:
        assert others is None
    assert (m_tally, p_tally) == ((len(ks), 0), (0, len(ks)))
    assert n_tally == ((0 if newton is None else len(ks)), 0)
    one, empty = outputs(count, ks[:1]), outputs(count, ks[:0])
    assert [tally for _, tally in empty] == [(0, 0)] * len(one)
    for (want, _), (got, _) in zip(one, empty, strict=True):
        want, got = (want, got) if isinstance(want, tuple) else ((want,), (got,))
        for w, g in zip(want, got, strict=True):
            assert (g is None) if w is None else (g.shape, g.dtype) == ((0,) + w.shape[1:], w.dtype)


@pytest.mark.parametrize("sys_", [
    first_order(3, 2), first_order(4, 4), first_order(5, 6), first_order(6, 3, minus_one=True),
    kirchhoff_star(3), kirchhoff_star(6), kirchhoff_star(3, equal=True),
], ids=["fo2", "fo4", "fo6", "fo3-minus-one", "star3", "star6", "star3-equal"])
def test_roots_match_eigensolve_path(sys_):
    # the squared-operator systems run the dense count, whose LU parity
    # this checks against its eigensolves
    tol = 1e-10
    window = (-15.0, 15.0) if sys_.kind == xg.BK else (0.0, 15.0)
    with dense_count():
        sp = xg.find_spectrum(sys_, window, tol=tol)
        oracle = eigensolve_spectrum(sys_, window, tol)
    assert sp.diagnostics["count"] == ("cayley" if sys_.kind == xg.BK else "dense")
    assert [g for _, g in sp.eigenvalues] == [g for _, g in oracle.eigenvalues]
    assert np.max(np.abs(sp.wavenumbers - oracle.wavenumbers)) <= tol
    d, d_ref = sp.diagnostics, oracle.diagnostics
    assert d_ref["refine_lu_evals"] == 0
    assert d["refine_eig_evals"] <= d_ref["refine_eig_evals"]
    assert d["refine_evals"] == d["refine_eig_evals"] + d["refine_lu_evals"]


def test_first_order_eigensolves_once_per_level():
    # generic 4-edge graph: the grid points and the first Newton step of
    # each level's bracket are the only eigensolves
    sys_ = first_order(11, 4)
    sp = xg.find_spectrum(sys_, (-150.0, 150.0), tol=1e-10)
    d = sp.diagnostics
    assert sp.total_count > 100 and d["refine_lu_evals"] > 0
    assert d["grid_evals"] + d["refine_eig_evals"] <= d["grid_evals"] + sp.total_count
    assert d["matrix_evals"] <= d["grid_evals"] + 5 * sp.total_count


def star_of_seed_53():
    """The 10-edge Kirchhoff star of the spectrum-scan benchmark at seed 53."""
    intervals = [(0.9377411047431008, 2.322173041022251), (0.951974377262606, 4.784355282957442),
                 (1.3997654239062538, 4.773547043423988), (1.4442722735971114, 8.992150459324792),
                 (0.7731957815346109, 2.1027785115019557), (1.67089734853476, 7.96817307118032),
                 (1.845213018101834, 10.25234478308426), (1.5568819320138547, 7.613399246144661),
                 (0.6202076478537161, 4.121643854996168), (1.7085013678010308, 9.025605080367903)]
    g = xg.MetricGraph.from_intervals(intervals,
                                      vertices=[("c", f"t{i}") for i in range(len(intervals))])
    return squared(xg.standard_bc("kirchhoff", g), g)


def level_by_bisection(count, lo=0.99952471354, hi=0.99952471356):
    """The level in (lo, hi], bisected on ``count`` (by default the level
    of the seed-53 star near 0.9995)."""
    n_lo = count.m_many([lo])[0][0]
    while hi - lo > 2e-16 * hi:
        mid = 0.5 * (lo + hi)
        if count.m_many([mid])[0][0] == n_lo:
            lo = mid
        else:
            hi = mid
    return hi


def test_split_at_converged_iterate_returns_the_iterate():
    # a bracket holding three levels splits at a Newton iterate that sits on
    # the level near 0.9995; the part above it used to close by bisection
    # and report its midpoint, 4.9e-11 off; the count bisection that places
    # the level is itself good to about 1e-14 (eigvalsh rounding)
    sys_ = star_of_seed_53()
    sp = xg.find_spectrum(sys_, (0.0, 20.0), tol=1e-10)
    assert sp.diagnostics["count"] == "elimination"
    hi = level_by_bisection(spectra._PositiveCount(sys_))
    k = min(sp.wavenumbers, key=lambda x: abs(x - hi))
    assert abs(k - hi) <= 1e-13


SEED_1_LEVEL = (kirchhoff_star(10, seed=1), (0.0, 25.0), (23.3490129868, 23.349012987))


@pytest.mark.parametrize("sys_, window, level, count", [
    (star_of_seed_53(), (0.0, 20.0), (0.99952471354, 0.99952471356), "dense"),
    (*SEED_1_LEVEL, "elimination"), (*SEED_1_LEVEL, "dense"),
], ids=["star10-seed53-dense", "star10-seed1", "star10-seed1-dense"])
def test_certificate_split_returns_the_iterate(sys_, window, level, count):
    # a certificate point k* - tol/2 that splits a bracket whose top lies
    # below k* + tol/2 leaves the level within tol/2 of the converged
    # iterate k*; that part used to close at its midpoint (2.5e-11 off on
    # the seed-1 star, with either count); the seed-53 level of the test
    # above, on the dense count
    with contextlib.ExitStack() as stack:
        if count == "dense":
            stack.enter_context(dense_count())
        sp = xg.find_spectrum(sys_, window, tol=1e-10)
    assert sp.diagnostics["count"] == count
    hi = level_by_bisection(spectra._PositiveCount(sys_), *level)
    k = min(sp.wavenumbers, key=lambda x: abs(x - hi))
    assert abs(k - hi) <= 1e-13
    assert abs(level_by_bisection(spectra._TreeCount(sys_), *level) - hi) <= 1e-13


@pytest.mark.parametrize("k_range, tol", [
    ((0.0, 1e5), 1e-300), ((0.0, 1.0), 1e-16), ((-2e4, 0.0), 1e-12),
    ((0.0, 1.0), 0.0), ((0.0, 1.0), -1.0), ((0.0, 1.0), float("nan")),
])
def test_tol_below_float_spacing_rejected(k_range, tol):
    g = xg.MetricGraph.from_intervals([(1.0, math.e)])
    with pytest.raises(xg.ValidationError, match="tol must be at least"):
        xg.find_spectrum(squared(xg.standard_bc("dirichlet", g), g), k_range, tol=tol)


def test_smallest_admitted_tol():
    g = xg.MetricGraph.from_intervals([(1.0, math.e)])
    sys_ = squared(xg.standard_bc("dirichlet", g), g)
    tol = 4.0 * np.finfo(float).eps * 20.0
    sp = xg.find_spectrum(sys_, (0.0, 20.0), tol=tol)
    np.testing.assert_allclose(sp.wavenumbers, math.pi * np.arange(1, 7), rtol=0, atol=tol)
