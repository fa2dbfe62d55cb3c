"""The squared-operator count by elimination over a forest (``_TreeCount``).

A pair that couples only the ends at one vertex, with rank at most one
there, on a graph without cycles gives the bordered count matrix the
pattern of a forest, and N(k) is read off the signs of its pivots.  The
checks: the count against the dense ``_PositiveCount`` on stars, paths
and random trees under Kirchhoff, Neumann, Dirichlet, Robin of either
sign and mixed vertex conditions, at random points and next to roots and
Dirichlet points, and against the count of M(0) above the window floor;
spectra root by root against the dense path; a 50-digit mpmath count at
fixed points; which systems take the elimination; and no eigensolve,
det or solve on its path.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xpgraphs as xg
from xpgraphs import spectra

from util import (assert_stacks_do_not_leak, dense_count, random_graph, random_kdep_spec,
                  random_unitary)

TOL = 1e-10
K_MAX = 12.0

EXAMPLES = settings(max_examples=40, deadline=None, derandomize=True, database=None)

#: conditions at one vertex for ``vertex_pair``
VERTEX_KINDS = ("kirchhoff", "neumann", "dirichlet", "robin", "delta")

#: distances from a root and from a Dirichlet point at which the counts are compared
NEAR_ROOT = (5e-11, 1e-10, 1e-7)
NEAR_POLE = (1e-12, 1e-9)


def system_of(spec, g):
    return xg.SecularSystem.bk2(xg.decompose(spec, xg.DilationMatrices.from_graph(g)), g)


def tree_graph(rng, shape, n_edges):
    """A star, a path or a random tree with log lengths in [0.5, 2), each
    edge in a random direction."""
    if shape == "star":
        pairs = [(0, i + 1) for i in range(n_edges)]
    elif shape == "path":
        pairs = [(i, i + 1) for i in range(n_edges)]
    else:
        pairs = [(int(rng.integers(0, i + 1)), i + 1) for i in range(n_edges)]
    pairs = [p if rng.random() < 0.5 else p[::-1] for p in pairs]
    return xg.MetricGraph.from_intervals(
        [(1.0, math.exp(rng.uniform(0.5, 2.0))) for _ in pairs],
        vertices=[(f"v{a}", f"v{b}") for a, b in pairs])


def signed(rng):
    return float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0))


def vertex_pair(rng, g):
    """Interval conditions drawn vertex by vertex from VERTEX_KINDS:
    Kirchhoff; Neumann, Dirichlet or Robin (a rho of random sign) at each
    end; or a delta coupling, continuity and the sum of the inward
    derivatives equal to -alpha u, alpha of random sign."""
    e = g.n_edges
    ends: dict = {}
    for i, edge in enumerate(g.edges):
        ends.setdefault(edge.start, []).append(i)
        ends.setdefault(edge.end, []).append(i + e)
    a_t, b_t = np.zeros((2 * e, 2 * e)), np.zeros((2 * e, 2 * e))
    row = 0
    for vertex in sorted(ends):
        chans, kind = ends[vertex], VERTEX_KINDS[int(rng.integers(len(VERTEX_KINDS)))]
        if kind in ("kirchhoff", "delta"):
            for first, second in zip(chans, chans[1:]):
                a_t[row, first], a_t[row, second] = 1.0, -1.0
                row += 1
            b_t[row, chans] = 1.0
            if kind == "delta":
                a_t[row, chans[0]] = signed(rng)
            row += 1
            continue
        for c in chans:
            if kind == "dirichlet":
                a_t[row, c] = 1.0
            else:
                b_t[row, c] = 1.0
                a_t[row, c] = signed(rng) if kind == "robin" else 0.0
            row += 1
    return xg.from_interval_conditions(a_t, b_t, g)


def drawn_system(seed, shape, n_edges, family):
    rng = np.random.default_rng(seed)
    g = tree_graph(rng, shape, n_edges)
    if family == "mixed":
        return system_of(vertex_pair(rng, g), g)
    rho = [signed(rng) for _ in range(2 * n_edges)] if family == "robin" else None
    return system_of(xg.standard_bc(family, g, rho=rho), g)


def near(points, distances):
    points = np.asarray(points, dtype=float)
    return np.concatenate([points + s * d for d in distances for s in (-1.0, 1.0)])


@EXAMPLES
@given(seed=st.integers(0, 2 ** 32 - 1), shape=st.sampled_from(("star", "path", "tree")),
       n_edges=st.integers(1, 6),
       family=st.sampled_from(("kirchhoff", "neumann", "dirichlet", "robin", "mixed")))
def test_count_equals_dense_count(seed, shape, n_edges, family):
    sys_ = drawn_system(seed, shape, n_edges, family)
    assert sys_.forest is not None
    tree, dense = spectra._TreeCount(sys_), spectra._PositiveCount(sys_)
    with dense_count():
        roots = xg.find_spectrum(sys_, (0.0, K_MAX), tol=TOL).wavenumbers
    poles = spectra._dirichlet_points(sys_.lengths, 0.05, K_MAX, 1e-6)
    ks = np.concatenate([np.random.default_rng(seed).uniform(0.05, K_MAX, 60),
                         near(roots, NEAR_ROOT), near(poles, NEAR_POLE)])
    counts = tree.m_many(ks)[0]
    np.testing.assert_array_equal(counts, dense.m_many(ks)[0])
    np.testing.assert_array_equal(tree.parity(ks), 1 - 2 * (counts % 2))
    _, steps, _ = tree.newton_steps(ks)
    np.testing.assert_array_equal(tree.newton_steps(ks)[0], counts)
    assert not np.any(np.isinf(steps))

    # above the window floor N is the count of M(0): the eigenvalues <= 0
    floor = spectra._window_floor(K_MAX)
    small = np.geomspace(1.01 * floor, 1e-6, 12)
    below = spectra._zero_modes(sys_)[2]
    np.testing.assert_array_equal(tree.m_many(small)[0], below)


@EXAMPLES
@given(seed=st.integers(0, 2 ** 32 - 1), shape=st.sampled_from(("star", "path", "tree")),
       n_edges=st.integers(1, 6),
       family=st.sampled_from(("kirchhoff", "neumann", "dirichlet", "robin", "mixed")))
def test_spectrum_equals_dense_path(seed, shape, n_edges, family):
    sys_ = drawn_system(seed, shape, n_edges, family)
    sp = xg.find_spectrum(sys_, (0.0, K_MAX), tol=TOL)
    with dense_count():
        ref = xg.find_spectrum(sys_, (0.0, K_MAX), tol=TOL)
    assert (sp.diagnostics["count"], ref.diagnostics["count"]) == ("elimination", "dense")
    assert sp.k_window == ref.k_window and sp.zero_mode == ref.zero_mode
    assert [g for _, g in sp.eigenvalues] == [g for _, g in ref.eigenvalues]
    if sp.eigenvalues:
        assert np.max(np.abs(sp.wavenumbers - ref.wavenumbers)) <= TOL


@pytest.mark.parametrize("n_edges", [3, 4, 10])
@pytest.mark.parametrize("seed", range(3))
def test_equal_length_star_degenerate_levels(n_edges, seed):
    # log length 1: pi (m + 1/2) is an (E - 1)-fold level, pi m a simple one
    # at a Dirichlet point; N next to each, and the spectrum of the dense path
    g = xg.MetricGraph.from_intervals([(1.0 + seed, (1.0 + seed) * math.e)] * n_edges,
                                      vertices=[("c", f"t{i}") for i in range(n_edges)])
    sys_ = system_of(xg.standard_bc("kirchhoff", g), g)
    tree, dense = spectra._TreeCount(sys_), spectra._PositiveCount(sys_)
    levels = 0.5 * math.pi * np.arange(1, 8)
    ks = np.concatenate([near(levels, NEAR_ROOT + NEAR_POLE),
                         np.random.default_rng(seed).uniform(0.05, K_MAX, 40)])
    np.testing.assert_array_equal(tree.m_many(ks)[0], dense.m_many(ks)[0])
    sp = xg.find_spectrum(sys_, (0.0, K_MAX), tol=TOL)
    with dense_count():
        ref = xg.find_spectrum(sys_, (0.0, K_MAX), tol=TOL)
    assert [g for _, g in sp.eigenvalues] == [g for _, g in ref.eigenvalues]
    assert np.max(np.abs(sp.wavenumbers - ref.wavenumbers)) <= TOL
    assert {g for _, g in sp.eigenvalues} == {1, n_edges - 1} - {0}


def mp_count(sys_, k):
    """N(k) = sum_e floor(k l_e / pi) + n_-(Q+ Lambda(k) Q - diag(sigma)) at
    50 digits, from the float Q and sigma of ``decompose`` and the plain
    Dirichlet-to-Neumann map, k [[cot kl, -csc kl], [-csc kl, cot kl]]."""
    q, sigma = sys_.dec.ran_vectors.real, sys_.dec.sigma_l
    e, rank = len(sys_.lengths), q.shape[1]
    with mp.workdps(50):
        k = mp.mpf(float(k))
        lam = mp.zeros(2 * e, 2 * e)
        floors = 0
        for i, ell in enumerate(sys_.lengths.tolist()):
            x = k * mp.mpf(ell)
            floors += int(mp.floor(x / mp.pi))
            lam[i, i] = lam[i + e, i + e] = k * mp.cot(x)
            lam[i, i + e] = lam[i + e, i] = -k * mp.csc(x)
        if not rank:
            return floors
        qm = mp.matrix(q.tolist())
        plain = qm.T * lam * qm - mp.diag([mp.mpf(float(s)) for s in sigma])
        return floors + sum(1 for mu in mp.eigsy(plain, eigvals_only=True) if mu < 0)


def referee_systems():
    """A Kirchhoff 4-star, a mixed-sign Robin 3-path, a mixed-vertex tree
    and a single Robin edge whose dense count is off at very small k."""
    rng = np.random.default_rng(106450128)
    g = random_graph(rng, 1)
    return {"star": drawn_system(11, "star", 4, "kirchhoff"),
            "path": drawn_system(12, "path", 3, "robin"),
            "mixed": drawn_system(13, "tree", 5, "mixed"),
            "edge": system_of(random_kdep_spec(rng, g, "robin"), g)}


def referee_points(sys_):
    """Three roots +- 5e-11, two Dirichlet points +- 1e-12 and two points
    above the window floor: 12 points."""
    with dense_count():
        roots = xg.find_spectrum(sys_, (0.0, 6.0), tol=TOL).wavenumbers
    poles = spectra._dirichlet_points(sys_.lengths, 0.5, 6.0, 1e-6)
    floor = spectra._window_floor(6.0)
    return np.concatenate([near(roots[:3], (5e-11,)), near(poles[:2], (1e-12,)),
                           [1.5 * floor, 1e-7]])


@pytest.mark.parametrize("name", ["star", "path", "mixed", "edge"])
def test_count_against_mpmath_referee(name):
    sys_ = referee_systems()[name]
    ks = referee_points(sys_)
    assert len(ks) == 12
    expected = [mp_count(sys_, k) for k in ks.tolist()]
    np.testing.assert_array_equal(spectra._TreeCount(sys_).m_many(ks)[0], expected)


def star(kind, n_edges=3, **kwargs):
    g = xg.MetricGraph.from_intervals([(1.0, math.exp(1.0 + 0.2 * i)) for i in range(n_edges)],
                                      vertices=[("c", f"t{i}") for i in range(n_edges)])
    return system_of(xg.standard_bc(kind, g, **kwargs), g)


def ring(kind, n_edges):
    """Kirchhoff or Neumann on n_edges bonds around a cycle; one bond is a loop."""
    g = xg.MetricGraph.from_intervals(
        [(1.0, math.exp(1.0 + 0.3 * i)) for i in range(n_edges)],
        vertices=[(f"v{i}", f"v{(i + 1) % n_edges}") for i in range(n_edges)])
    return system_of(xg.standard_bc(kind, g), g)


def non_local(family):
    rng = np.random.default_rng(5)
    g = random_graph(rng, 2)
    if family == "squared_unitary":
        return system_of(xg.squared_extension(random_unitary(rng, 2), g)[0], g)
    return system_of(random_kdep_spec(rng, g, family), g)


@pytest.mark.parametrize("make, count", [
    (lambda: star("kirchhoff"), "elimination"),
    (lambda: star("neumann"), "elimination"),
    (lambda: star("dirichlet"), "elimination"),
    (lambda: star("robin", rho=0.7), "elimination"),
    (lambda: star("robin", rho=-0.4), "elimination"),
    (lambda: drawn_system(3, "path", 4, "kirchhoff"), "elimination"),
    (lambda: drawn_system(4, "tree", 6, "mixed"), "elimination"),
    (lambda: ring("neumann", 3), "elimination"),
    (lambda: ring("kirchhoff", 3), "dense"),
    (lambda: ring("kirchhoff", 2), "dense"),
    (lambda: ring("kirchhoff", 1), "dense"),
    (lambda: non_local("hermitian_full"), "dense"),
    (lambda: non_local("hermitian_partial"), "dense"),
    (lambda: non_local("squared_unitary"), "dense"),
], ids=["kirchhoff", "neumann", "dirichlet", "robin", "robin-negative", "path", "mixed-tree",
        "neumann-ring", "kirchhoff-ring3", "kirchhoff-ring2", "kirchhoff-loop",
        "hermitian-full", "hermitian-partial", "squared-unitary"])
def test_routing(make, count):
    # every named condition on a forest is eliminated; Neumann and Dirichlet
    # decouple the ends, so a ring with them is a forest of sets; a
    # Kirchhoff cycle and a pair that couples ends of different vertices
    # keep the dense count
    sys_ = make()
    assert (sys_.forest is not None) == (count == "elimination")
    sp = xg.find_spectrum(sys_, (0.0, 6.0), tol=TOL)
    assert sp.diagnostics["count"] == count
    with dense_count():
        ref = xg.find_spectrum(sys_, (0.0, 6.0), tol=TOL)
    assert [g for _, g in sp.eigenvalues] == [g for _, g in ref.eigenvalues]
    if sp.eigenvalues:
        assert np.max(np.abs(sp.wavenumbers - ref.wavenumbers)) <= TOL


def test_first_order_count_is_named():
    g = xg.MetricGraph.from_intervals([(1.0, math.e)], directed=True)
    sys_ = xg.SecularSystem.bk(xg.s_matrix_bk(xg.standard_bc("ring_phase", g, c=0.3)), g)
    assert sys_.forest is None
    assert xg.find_spectrum(sys_, (-6.0, 6.0)).diagnostics["count"] == "cayley"


def test_elimination_path_calls_no_eigensolve_det_or_solve(monkeypatch):
    systems = [star("kirchhoff", 10), drawn_system(7, "path", 4, "robin"),
               drawn_system(8, "tree", 6, "mixed"), star("dirichlet", 1)]
    # the layout and the count of M(0) (one eigvalsh) are taken beforehand
    assert all(sys_.forest is not None for sys_ in systems)
    starts = [spectra._zero_modes(sys_)[2] for sys_ in systems]

    def refuse(*args, **kwargs):
        raise AssertionError("a dense linear-algebra call ran")

    for name in ("eigvalsh", "eigh", "eig", "eigvals", "det", "solve", "inv", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for sys_, m_lo in zip(systems, starts):
        roots, stats = spectra._scan(sys_, spectra._window_floor(K_MAX), K_MAX, TOL, m_lo)
        assert stats["count"] == "elimination"
        count = spectra._TreeCount(sys_)
        ks = np.linspace(0.3, K_MAX, 50)
        counts, blocks = count.m_many(ks)
        count.gaps(blocks)
        count.parity(ks)
        count.newton_steps(ks)
    assert len(roots) > 0


@pytest.mark.parametrize("seed, shape, n_edges, family", [
    (1, "path", 1, "robin"), (2, "star", 3, "kirchhoff"), (3, "tree", 6, "mixed"),
    (4, "path", 5, "neumann"), (5, "star", 10, "kirchhoff"),
])
def test_stacks_do_not_leak(monkeypatch, seed, shape, n_edges, family):
    # a point's count, pivots, parity, Newton step and gaps do not depend
    # on the points beside it in its elimination
    count = spectra._TreeCount(drawn_system(seed, shape, n_edges, family))
    ks = np.random.default_rng(seed).uniform(0.01, 20.0, 25)
    assert_stacks_do_not_leak(monkeypatch, count, ks, len(count.forest.sigma))
