"""Shared generators for randomized suites, the walk-based orbit
enumeration kept as an oracle, and the orbit-by-orbit trace sum."""

from __future__ import annotations

import numpy as np

import xpgraphs as xg
from xpgraphs.graph import LENGTH_TOL, PATTERN_TOL


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


def _min_rotation(seq: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically smallest cyclic rotation (canonical representative)."""
    n = len(seq)
    doubled = seq + seq
    return min(tuple(doubled[i:i + n]) for i in range(n))


def _primitive_period(seq: tuple[int, ...]) -> int:
    """Smallest p dividing len(seq) with seq equal to its own p-rotation."""
    n = len(seq)
    for p in range(1, n + 1):
        if n % p:
            continue
        if all(seq[i] == seq[i % p] for i in range(n)):
            return p
    return n


def _make_orbit(seq: tuple[int, ...], weights: np.ndarray) -> xg.PeriodicOrbit:
    canon = _min_rotation(seq)
    p = _primitive_period(canon)
    prim = float(sum(weights[b] for b in canon[:p]))
    total = float(sum(weights[b] for b in canon))
    return xg.PeriodicOrbit(bonds=canon, length=total, primitive_length=prim,
                            repetition=len(canon) // p)


def reference_orbits(pattern, weights, max_length: float,
                     pattern_tol: float = PATTERN_TOL) -> list:
    """Oracle for ``enumerate_orbits`` on valid input: walk every closed
    bond sequence rooted at its smallest bond, canonicalise each to its
    minimal rotation and keep one orbit per rotation class."""
    pattern = np.asarray(pattern)
    weights = np.asarray(weights, dtype=float)
    d = pattern.shape[0]
    scale = float(np.max(np.abs(pattern))) if pattern.size else 0.0
    if scale == 0.0:
        return []
    allowed = [
        [i for i in range(d) if abs(pattern[i, j]) > pattern_tol * scale]
        for j in range(d)
    ]

    found = {}
    budget = max_length + LENGTH_TOL

    def grow(start: int, seq: list, acc: float):
        cur = seq[-1]
        if start in allowed[cur]:
            orbit = _make_orbit(tuple(seq), weights)
            found.setdefault(orbit.bonds, orbit)
        for nxt in allowed[cur]:
            # restrict to bonds >= start so each class is rooted at its
            # minimal bond exactly once
            if nxt < start:
                continue
            w = weights[nxt]
            if acc + w <= budget:
                seq.append(nxt)
                grow(start, seq, acc + w)
                seq.pop()

    for s in range(d):
        if weights[s] <= budget:
            grow(s, [s], float(weights[s]))

    return sorted(found.values(), key=lambda o: (o.length, o.bonds))


def reference_orbit_sum(bond, weights, h, cutoff: float) -> float:
    """Orbit sum orbit by orbit: Re(A) hhat(l) over every orbit class up to
    the cutoff, with A from ``orbit_amplitude``; the oracle of the
    power-trace sum of a constant bond matrix."""
    return sum(float(np.real(xg.orbit_amplitude(orb, bond))) * float(h.hat(orb.length))
               for orb in xg.enumerate_orbits(bond, weights, cutoff))
