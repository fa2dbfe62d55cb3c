"""The first-order count from a Hermitian Cayley matrix against the
eigenphase winding count kept in ``util``.

``spectra._CayleyCount`` reads M(k) off the negative index of
D_i(k) - K_i, with the rotation i picked per point; ``util.WindingScan``
reads it off the principal eigenphases of U(k) from eigvals.  The two have
to agree, in the same absolute convention, at random k, next to roots, at
and next to the poles of D_i, and for every kept rotation on its own (the
closed-form c_i), for d = 1-8 with random, permutation and diagonal S, S
with an eigenvalue -1, equal lengths, and for the constant bk2 systems of
Kirchhoff stars.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xpgraphs as xg
from xpgraphs import spectra

from util import WindingScan, assert_stacks_do_not_leak, random_graph, random_unitary

EXAMPLES = settings(max_examples=30, deadline=None, derandomize=True, database=None)

#: S-matrix families of the first-order systems
FAMILIES = ("random", "minus_one", "permutation", "diagonal")

#: distances from a root at which the counts are compared
NEAR = (1e-13, 1e-11, 1e-9, 1e-7)


def first_order(seed, d, family, equal):
    """First-order system with a drawn S of the given family on d bonds,
    of random or equal (log length 1) lengths."""
    rng = np.random.default_rng(seed)
    if family == "permutation":
        s = np.eye(d)[rng.permutation(d)].astype(complex)
    elif family == "diagonal":
        s = np.diag(np.exp(2j * math.pi * rng.random(d)))
    else:
        q = random_unitary(rng, d)
        phases = 2.0 * math.pi * rng.random(d)
        if family == "minus_one":
            phases[0] = math.pi
        s = (q * np.exp(1j * phases)) @ q.conj().T
    g = xg.MetricGraph.from_intervals([(1.0, math.e)] * d) if equal else random_graph(rng, d)
    return xg.SecularSystem.bk(s, g)


def kirchhoff_star(n_edges, equal):
    logs = np.ones(n_edges) if equal else 1.0 + 0.1 * np.sqrt(np.arange(2.0, n_edges + 2.0))
    g = xg.MetricGraph.from_intervals([(1.0, math.exp(ell)) for ell in logs],
                                      vertices=[("c", f"t{i}") for i in range(n_edges)])
    dec = xg.decompose(xg.standard_bc("kirchhoff", g), xg.DilationMatrices.from_graph(g))
    return xg.SecularSystem.bk2(dec, g)


def assert_counts_match(sys_, ks):
    ks = np.asarray(ks, dtype=float)
    np.testing.assert_array_equal(spectra._CayleyCount(sys_).m_many(ks)[0],
                                  WindingScan(sys_).m_many(ks)[0])


def near(points):
    return np.concatenate([np.asarray(points) + s * d for d in NEAR for s in (-1.0, 1.0)])


def pole_points(sys_, k_max=12.0):
    """Every k in (-k_max, k_max) at which some kept rotation has a pole of
    D_i, k w_b - alpha_i = pi mod 2 pi, and its float neighbours."""
    cay, w = sys_.cayley, sys_.weights
    base = (math.pi + cay.alpha[:, None]) / w                      # (rotation, bond)
    period = 2.0 * math.pi / w
    n = np.arange(-math.ceil(k_max * w.max() / (2 * math.pi)) - 1,
                  math.ceil(k_max * w.max() / (2 * math.pi)) + 1)
    ks = (base[..., None] + n * period[:, None]).ravel()
    ks = ks[np.abs(ks) < k_max]
    return np.concatenate([ks, np.nextafter(ks, np.inf), np.nextafter(ks, -np.inf),
                           ks * (1.0 + 1e-13), ks * (1.0 - 1e-13)])


@EXAMPLES
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 8),
       family=st.sampled_from(FAMILIES), equal=st.booleans())
def test_count_matches_winding_count(seed, d, family, equal):
    sys_ = first_order(seed, d, family, equal)
    assert_counts_match(sys_, np.random.default_rng(seed).uniform(-40.0, 40.0, 60))
    assert_counts_match(sys_, pole_points(sys_))
    roots = xg.find_spectrum(sys_, (-6.0, 6.0), tol=1e-12).wavenumbers
    assert_counts_match(sys_, near(roots))


@pytest.mark.parametrize("equal", [False, True])
@pytest.mark.parametrize("n_edges", range(1, 7))
def test_star_count_matches_winding_count(n_edges, equal):
    # U(k) of size 2E through the constant-S count; equal lengths give
    # (E - 1)-fold levels
    sys_ = kirchhoff_star(n_edges, equal)
    assert_counts_match(sys_, np.random.default_rng(n_edges).uniform(0.0, 20.0, 200))
    assert_counts_match(sys_, pole_points(sys_))
    roots = xg.find_spectrum(sys_, (0.0, 8.0), tol=1e-12).wavenumbers
    assert_counts_match(sys_, near(roots))


def rotation_count(sys_, k, i):
    """M(k) from rotation i alone, with its closed-form c_i."""
    cay = sys_.cayley
    phase = k * sys_.weights - cay.alpha[i]
    turns = np.floor((phase + math.pi) / (2.0 * math.pi))
    h = cay.minus_kay[i] + np.diag(np.tan(0.5 * (phase - 2.0 * math.pi * turns)))
    return int(turns.sum()) + int(cay.const[i]) - int(np.sum(np.linalg.eigvalsh(h) < 0.0))


@EXAMPLES
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 8),
       family=st.sampled_from(FAMILIES), equal=st.booleans())
def test_every_kept_rotation_gives_the_winding_count(seed, d, family, equal):
    sys_ = first_order(seed, d, family, equal)
    cay, n_rot = sys_.cayley, 2 * d + 1
    # d excluded angles leave d + 1 of the 2d + 1 rotations clear, and a
    # kept K_i is Hermitian with the eigenvalues tan(psi_i / 2)
    assert len(cay.alpha) >= d + 1
    bound = 1.0 / math.tan(0.25 * math.pi / n_rot)
    for i in range(len(cay.alpha)):
        np.testing.assert_allclose(cay.minus_kay[i], cay.minus_kay[i].conj().T, atol=1e-14)
        np.testing.assert_allclose(np.linalg.eigvalsh(-cay.minus_kay[i]),
                                   np.sort(np.tan(0.5 * cay.psi[i])), atol=1e-12 * bound)
        assert np.max(np.abs(cay.psi[i])) <= math.pi - 0.5 * math.pi / n_rot
    ks = np.random.default_rng(seed).uniform(-30.0, 30.0, 40)
    oracle = WindingScan(sys_).m_many(ks)[0]
    for k, m in zip(ks, oracle):
        for i in range(len(cay.alpha)):
            reduced = np.angle(np.exp(1j * (k * sys_.weights - cay.alpha[i])))
            if np.max(np.abs(reduced)) <= math.pi - 0.5 * math.pi / n_rot:
                assert rotation_count(sys_, k, i) == m, (k, i)


@EXAMPLES
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(2, 8),
       family=st.sampled_from(FAMILIES), equal=st.booleans())
def test_picked_rotation_bounds_every_entry(seed, d, family, equal):
    # every point is pi / (2d + 1) clear of the poles of D_i and of the
    # eigenvalues -1 of V_i, so no entry of D_i - K_i exceeds twice
    # cot(pi / (2 (2d + 1))); a one-bond count is in closed form
    sys_ = first_order(seed, d, family, equal)
    bound = 1.0 / math.tan(0.5 * math.pi / (2 * d + 1)) * (1.0 + 1e-12)
    ks = np.concatenate([np.random.default_rng(seed).uniform(-40.0, 40.0, 50),
                         pole_points(sys_)])
    h, tan, _ = spectra._CayleyCount(sys_)._matrices(ks)
    assert np.max(np.abs(tan)) <= bound
    assert np.max(np.linalg.norm(h, ord=2, axis=(1, 2))) <= 2.0 * bound


def test_first_order_solve_jumps_are_winding_count_jumps():
    # every root of a first-order solve is a jump of the winding count of
    # its multiplicity, and the solve finds the whole jump of the window
    sys_ = first_order(41, 4, "random", False)
    sp = xg.find_spectrum(sys_, (-60.0, 60.0), tol=1e-10)
    oracle = WindingScan(sys_)
    lo, hi = sp.wavenumbers - 5e-11, sp.wavenumbers + 5e-11
    jumps = oracle.m_many(hi)[0] - oracle.m_many(lo)[0]
    np.testing.assert_array_equal(jumps, sp.multiplicities)
    total = oracle.m_many([60.0])[0][0] - oracle.m_many([-60.0])[0][0]
    assert sp.total_count == total


@pytest.mark.parametrize("d, family", [(1, "random"), (2, "random"), (3, "minus_one"),
                                       (4, "random"), (8, "permutation"), (20, "random")])
def test_stacks_do_not_leak(monkeypatch, d, family):
    # a point's count, eigenphases, parity, Newton step and gaps do not
    # depend on the points beside it in its stacked call
    count = spectra._CayleyCount(first_order(d, d, family, False))
    ks = np.random.default_rng(d).uniform(-30.0, 30.0, 25)
    assert_stacks_do_not_leak(monkeypatch, count, ks, d * d)
