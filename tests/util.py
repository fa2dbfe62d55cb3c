"""Shared generators for randomized suites (fixed seeds, no hypothesis)."""

from __future__ import annotations

import numpy as np

import xpgraphs as xg


def random_unitary(rng, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_invertible(rng, n: int) -> np.ndarray:
    while True:
        c = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if np.linalg.cond(c) < 1e3:
            return c


def random_graph(rng, n_edges: int, directed: bool = False) -> xg.MetricGraph:
    intervals = [(0.5 + rng.random(), 2.0 + 3.0 * rng.random())
                 for _ in range(n_edges)]
    return xg.MetricGraph.from_intervals(intervals, directed=directed)


def random_bk_spec(rng, n_edges: int):
    """Random first-order boundary pair via its unitary scattering matrix."""
    return xg.extension_from_smatrix(random_unitary(rng, n_edges))


def random_bk2_spec(rng, graph: xg.MetricGraph):
    """Random second-order boundary pair through interval conditions."""
    dim = 2 * graph.n_edges
    v = random_unitary(rng, dim)
    eye = np.eye(dim)
    a_t = (eye - 1j * v) / 2.0
    b_t = (v - 1j * eye) / 2.0
    return xg.from_interval_conditions(a_t, b_t, graph)


#: k-dependent boundary families: mixed-sign Robin, Robin with one Neumann
#: end (a zero eigenvalue of L''), random Hermitian L'' at full and partial rank
KDEP_FAMILIES = ("robin", "robin_with_neumann_end", "hermitian_full", "hermitian_partial")


def random_kdep_spec(rng, g, family):
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
