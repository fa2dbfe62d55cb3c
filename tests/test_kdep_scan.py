"""k-dependent S-parts at fixed seeds: the closed-form lift of arg det U(k)
kept by the eigenphase oracle, and find_spectrum against dense eigenphase
crossings.

S''(k) has eigenvalue -1 on ker B' and -(lam - ik)/(lam + ik) for every
nonzero eigenvalue lam of L'', so arg det U(k) = theta0 + k sum(w)
- 2 sum arctan(k / lam).  The reference here is the continuous phase of
det U(k) accumulated step by step on a fine grid, with no knowledge of the
formula.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xpgraphs as xg

from util import (KDEP_FAMILIES, EigenphaseScan, random_graph, random_kdep_spec,
                  s_phase_rate_bound)

BASE_SEED = 20261018
N_PER_FAMILY = 6


def continuous_phase(sys_, ks):
    """arg det U(k) on ks, lifted by summing angle(det U(k_i+1) / det U(k_i))."""
    dets = np.array([np.linalg.det(sys_.u_matrix(k)) for k in ks])
    return np.angle(dets[0]) + np.concatenate(
        [[0.0], np.cumsum(np.angle(dets[1:] / dets[:-1]))])


@pytest.mark.parametrize("case", range(len(KDEP_FAMILIES) * N_PER_FAMILY))
def test_closed_form_phase_is_continuous_phase(case):
    family = KDEP_FAMILIES[case % len(KDEP_FAMILIES)]
    rng = np.random.default_rng(BASE_SEED + case)
    g = random_graph(rng, int(rng.integers(1, 3)))
    dec = xg.decompose(random_kdep_spec(rng, g, family), xg.DilationMatrices.from_graph(g))
    sys_ = xg.SecularSystem.bk2(dec, g)
    assert not sys_.k_independent
    if family == "robin_with_neumann_end":
        assert len(sys_.poles) == dec.rank - 1
    if family == "hermitian_partial":
        assert dec.rank < dec.dim

    # steps of at most 0.05 rad in the total phase keep every ratio unambiguous
    rate = float(np.sum(sys_.weights)) + s_phase_rate_bound(sys_, 0.0)
    ks = np.arange(-6.0, 18.0, 0.05 / rate)
    reference = continuous_phase(sys_, ks)
    theta = EigenphaseScan(sys_).theta(ks)
    offset = theta - reference
    turns = offset[0] / (2 * math.pi)
    assert abs(turns - round(turns)) <= 1e-9
    assert np.max(np.abs(offset - offset[0])) <= 1e-8


def test_robin_edge_eval_budget():
    # Robin(rho = 1) on one edge of log length 4: 30 levels below k = 25
    g = xg.MetricGraph.from_intervals([(1.0, math.exp(4.0))])
    dec = xg.decompose(xg.standard_bc("robin", g, rho=1.0), xg.DilationMatrices.from_graph(g))
    sys_ = xg.SecularSystem.bk2(dec, g)
    sp = xg.find_spectrum(sys_, (0.0, 25.0))
    assert sp.total_count == 30
    assert sp.diagnostics["matrix_evals"] <= 2500
    for k, mult in sp.eigenvalues:
        sv = np.linalg.svd(np.eye(2) - sys_.u_matrix(k), compute_uv=False)
        assert sv[-mult] <= 1e-8


def dense_crossings(sys_, k_lo, k_hi):
    """(grid, counts): |net eigenphase crossings of 1| on each step of a
    dense grid, from the continuous phase of det U(k) and no closed form.

    The continuous eigenphase sum gains angle(det U(k_i+1) / det U(k_i)) on
    a step, and the principal sum (in [0, 2 pi)) drops by 2 pi at every
    crossing (rises at a backward one).  Steps move the total phase by at
    most 0.05 rad, so no eigenphase crosses 1 and back inside one.
    """
    rate = float(np.sum(sys_.weights)) + s_phase_rate_bound(sys_, 0.0)
    grid = np.linspace(k_lo, k_hi, int(math.ceil((k_hi - k_lo) * rate / 0.05)) + 2)
    u = sys_.u_matrix(grid)
    dets = np.linalg.det(u)
    phase_sum = np.sum(np.mod(np.angle(np.linalg.eigvals(u)), 2 * math.pi), axis=-1)
    raw = (np.angle(dets[1:] / dets[:-1]) + phase_sum[:-1] - phase_sum[1:]) / (2 * math.pi)
    counts = np.rint(raw).astype(int)
    assert np.max(np.abs(raw - counts)) <= 1e-6
    return grid, np.abs(counts)


def short_robin_spec(rng, n_edges):
    """Robin on edges of log length 0.1-0.6, mixed signs: near k = 0 the
    S-part's phase velocity bound exceeds sum(w)."""
    g = xg.MetricGraph.from_intervals(
        [(1.0, math.exp(rng.uniform(0.1, 0.6))) for _ in range(n_edges)])
    rho = rng.choice([-1.0, 1.0], size=2 * n_edges) * rng.uniform(0.3, 2.0, 2 * n_edges)
    return g, xg.standard_bc("robin", g, rho=rho)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_edges=st.integers(1, 2),
       family=st.sampled_from(("short_robin",) + KDEP_FAMILIES))
def test_scan_matches_dense_eigenphase_oracle(seed, n_edges, family):
    rng = np.random.default_rng(seed)
    if family == "short_robin":
        g, spec = short_robin_spec(rng, n_edges)
    else:
        g = random_graph(rng, n_edges)
        spec = random_kdep_spec(rng, g, family)
    sys_ = xg.SecularSystem.bk2(xg.decompose(spec, xg.DilationMatrices.from_graph(g)), g)
    sp = xg.find_spectrum(sys_, (0.0, 12.0), tol=1e-10)

    d = sp.diagnostics
    assert d["matrix_evals"] == d["grid_evals"] + d["refine_evals"]
    for k, mult in sp.eigenvalues:
        sv = np.linalg.svd(np.eye(sys_.dim) - sys_.u_matrix(k), compute_uv=False)
        assert sv[-mult] <= 1e-8, (k, mult, sv)
    grid, counts = dense_crossings(sys_, *sp.k_window)
    found = np.zeros(len(counts), dtype=int)
    if sp.eigenvalues:
        steps = np.searchsorted(grid, sp.wavenumbers, side="left") - 1
        np.add.at(found, np.clip(steps, 0, len(counts) - 1), sp.multiplicities)
    np.testing.assert_array_equal(found, counts)
