"""The scan's closed-form lift of arg det U(k), at fixed seeds.

S''(k) has eigenvalue -1 on ker B' and -(lam - ik)/(lam + ik) for every
nonzero eigenvalue lam of L'', so arg det U(k) = theta0 + k sum(w)
- 2 sum arctan(k / lam).  The reference here is the continuous phase of
det U(k) accumulated step by step on a fine grid, with no knowledge of the
formula.
"""

import math

import numpy as np
import pytest

import xpgraphs as xg
from xpgraphs import spectra

from util import random_graph, random_unitary

BASE_SEED = 20261018
FAMILIES = ("robin", "robin_with_neumann_end", "hermitian_full", "hermitian_partial")
N_PER_FAMILY = 6


def random_spec(rng, g, family):
    """Boundary pair with mixed-sign L'' eigenvalues of magnitude >= 0.3."""
    dim = 2 * g.n_edges
    if family.startswith("robin"):
        rho = rng.choice([-1.0, 1.0], size=dim) * rng.uniform(0.3, 2.0, size=dim)
        if family == "robin_with_neumann_end":
            rho[0] = 0.0    # a zero eigenvalue of L'': no pole there
        return xg.standard_bc("robin", g, rho=rho)
    q = random_unitary(rng, dim)
    rank = dim if family == "hermitian_full" else int(rng.integers(1, dim))
    qr = q[:, :rank]
    lam = rng.choice([-1.0, 1.0], size=rank) * rng.uniform(0.3, 3.0, size=rank)
    p_perp = qr @ qr.conj().T
    a_t = np.eye(dim) - p_perp + (qr * lam) @ qr.conj().T
    return xg.from_interval_conditions(a_t, p_perp, g)


def continuous_phase(sys_, ks):
    """arg det U(k) on ks, lifted by summing angle(det U(k_i+1) / det U(k_i))."""
    dets = np.array([np.linalg.det(sys_.u_matrix(k)) for k in ks])
    return np.angle(dets[0]) + np.concatenate(
        [[0.0], np.cumsum(np.angle(dets[1:] / dets[:-1]))])


@pytest.mark.parametrize("case", range(len(FAMILIES) * N_PER_FAMILY))
def test_closed_form_phase_is_continuous_phase(case):
    family = FAMILIES[case % len(FAMILIES)]
    rng = np.random.default_rng(BASE_SEED + case)
    g = random_graph(rng, int(rng.integers(1, 3)))
    dec = xg.decompose(random_spec(rng, g, family), xg.DilationMatrices.from_graph(g))
    sys_ = xg.SecularSystem.bk2(dec, g)
    assert not sys_.k_independent
    if family == "robin_with_neumann_end":
        assert len(sys_.poles) == dec.rank - 1
    if family == "hermitian_partial":
        assert dec.rank < dec.dim

    # steps of at most 0.05 rad in the total phase keep every ratio unambiguous
    rate = float(np.sum(sys_.weights)) + sys_.s_phase_rate_bound(0.0)
    ks = np.arange(-6.0, 18.0, 0.05 / rate)
    reference = continuous_phase(sys_, ks)
    theta = spectra._Scan(sys_)._theta(ks)
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
