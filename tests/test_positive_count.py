"""The squared operator's spectrum from the count N(k) of eigenvalues below k^2.

N(k) = sum_e floor(k l_e / pi) + n_-(Q+ Lambda(k) Q - diag(sigma)), with
Lambda the edge Dirichlet-to-Neumann map, evaluated in a bordered form
that holds next to the Dirichlet points k l_e in pi Z.  The checks: the
count and the roots against the eigenphase scan kept in ``util`` as the
oracle, for k-dependent and constant S-parts; the plain matrix and its
monotone eigenvalues between poles; exact counts at and next to
Dirichlet points on graphs with known levels; the slot border of graphs
with more than BORDER_SLOTS edges against the full border; the Newton
vectors of a shifted solve; a near-degenerate zero mode counted once;
and no eig, eigvals or eigh in a squared-operator solve.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xpgraphs as xg
from xpgraphs import spectra

from util import (KDEP_FAMILIES, eigenphase_roots, random_graph, random_kdep_spec,
                  random_unitary)

TOL = 1e-10
K_MAX = 12.0
FAMILIES = KDEP_FAMILIES + ("squared_unitary", "kirchhoff")

EXAMPLES = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def system_of(spec, g):
    return xg.SecularSystem.bk2(xg.decompose(spec, xg.DilationMatrices.from_graph(g)), g)


def drawn_system(seed, n_edges, family):
    """A k-dependent family of ``util``, the square of a random first-order
    realization, or Kirchhoff on a star: the last two have a constant S-part."""
    rng = np.random.default_rng(seed)
    if family == "kirchhoff":
        g = xg.MetricGraph.from_intervals(
            [(1.0, math.exp(rng.uniform(0.5, 2.5))) for _ in range(n_edges)],
            vertices=[("c", f"t{i}") for i in range(n_edges)])
        return system_of(xg.standard_bc("kirchhoff", g), g)
    g = random_graph(rng, n_edges)
    if family == "squared_unitary":
        return system_of(xg.squared_extension(random_unitary(rng, n_edges), g)[0], g)
    return system_of(random_kdep_spec(rng, g, family), g)


def start_count(sys_, k):
    """N(k) for k below rounding of a zero mode: negative eigenvalues plus g0."""
    return int(spectra._NegativeCount(sys_).m_many([k])[0][0]) + xg.zero_mode_test(sys_)[0]


def plain_matrix(sys_, k):
    """Q+ Lambda(k) Q - diag(sigma) with Lambda = k [[cot kl, -csc kl], [-csc kl, cot kl]]."""
    x = k * sys_.lengths
    lam = spectra._end_pair(k / np.tan(x), -k / np.sin(x))
    q = sys_.dec.ran_vectors
    return q.conj().T @ lam @ q - np.diag(sys_.dec.sigma_l)


@EXAMPLES
@given(seed=st.integers(0, 2 ** 32 - 1), n_edges=st.integers(1, 3),
       family=st.sampled_from(FAMILIES))
def test_count_and_roots_match_eigenphase_oracle(seed, n_edges, family):
    sys_ = drawn_system(seed, n_edges, family)
    sp = xg.find_spectrum(sys_, (0.0, K_MAX), tol=TOL)
    k_lo = sp.k_window[0]
    oracle = eigenphase_roots(sys_, k_lo, K_MAX, TOL)

    assert [g for _, g in sp.eigenvalues] == [g for _, g in oracle]
    for (k, _), (k_ref, _) in zip(sp.eigenvalues, oracle):
        assert abs(k - k_ref) <= TOL, (k, k_ref)

    # N at the window ends and between consecutive roots
    ks = [k for k, _ in oracle]
    mids = np.array([0.5 * (a + b) for a, b in zip([k_lo] + ks, ks + [K_MAX])])
    expected = start_count(sys_, k_lo) + np.cumsum([0] + [g for _, g in oracle])
    np.testing.assert_array_equal(spectra._PositiveCount(sys_).m_many(mids)[0], expected)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", range(3))
def test_plain_matrix_decreases_between_poles_and_gives_the_count(family, seed):
    sys_ = drawn_system(seed, 2, family)
    poles = np.concatenate([math.pi * np.arange(1, math.floor(K_MAX * ell / math.pi) + 1) / ell
                            for ell in sys_.lengths])
    cuts = np.sort(np.concatenate([[0.05, K_MAX], poles]))
    count = spectra._PositiveCount(sys_)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi - lo < 1e-3:
            continue
        ks = np.linspace(lo, hi, 42)[1:-1]
        mu = np.linalg.eigvalsh(np.array([plain_matrix(sys_, k) for k in ks]))
        scale = np.max(np.abs(mu), axis=-1)
        # each sorted eigenvalue is nonincreasing in k between two poles
        assert np.all(np.diff(mu, axis=0) <= 1e-10 * np.maximum(scale[1:], scale[:-1])[:, None])
        clear = np.min(np.abs(mu), axis=-1) > 1e-8 * scale
        floors = np.sum(np.floor(np.multiply.outer(ks, sys_.lengths) / math.pi), axis=-1)
        plain = floors + np.sum(mu < 0, axis=-1)
        np.testing.assert_array_equal(count.m_many(ks)[0][clear], plain[clear])


def kirchhoff_star(n_edges, equal=False, seed=0):
    """Kirchhoff star with log lengths in [1, 2), or all of log length 1."""
    logs = np.ones(n_edges) if equal else np.random.default_rng(seed).uniform(1.0, 2.0, n_edges)
    g = xg.MetricGraph.from_intervals([(1.0, math.exp(ell)) for ell in logs],
                                      vertices=[("c", f"t{i}") for i in range(n_edges)])
    return system_of(xg.standard_bc("kirchhoff", g), g)


def reduced_sizes(sys_, ks):
    """|delta_e| = |k l_e - n pi| per point and edge, sorted along the edges."""
    x = np.multiply.outer(np.asarray(ks, dtype=float), sys_.lengths)
    return np.sort(np.abs(x - np.rint(x / math.pi) * math.pi), axis=-1)


@EXAMPLES
@given(seed=st.integers(0, 2 ** 32 - 1), n_edges=st.integers(5, 12),
       family=st.sampled_from(FAMILIES + ("equal_star",)))
def test_slot_count_equals_full_border_count(seed, n_edges, family):
    # random k, k exactly at Dirichlet points, k next to the window floor;
    # on an equal-length star every pole of the plain matrix coincides
    if family == "equal_star":
        sys_ = kirchhoff_star(n_edges, equal=True)
    else:
        sys_ = drawn_system(seed, n_edges, family)
    rng = np.random.default_rng(seed)
    poles = np.concatenate([math.pi * np.arange(1, math.floor(K_MAX * ell / math.pi) + 1) / ell
                            for ell in sys_.lengths])
    ks = np.concatenate([rng.uniform(0.05, K_MAX, 60), rng.choice(poles, 12),
                         [1e-9, 1.5e-9, 1e-8, 1e-3, 0.3]])
    slots = spectra._PositiveCount(sys_).m_many(ks)[0]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectra, "BORDER_SLOTS", n_edges)
        full = spectra._PositiveCount(sys_).m_many(ks)[0]
    np.testing.assert_array_equal(slots, full)
    # the slot path ran: some points keep BORDER_SLOTS border rows
    assert np.any(reduced_sizes(sys_, ks)[:, spectra.BORDER_SLOTS] >= spectra.SLOT_DELTA_MIN)


def test_slot_newton_step_matches_the_eigenvalue_slope():
    # the step -mu / slope against a central difference of the eigenvalue of
    # H nearest 0, at points whose border set holds on k +- 1e-6
    sys_ = kirchhoff_star(10)
    ks = np.linspace(1.0, 12.0, 400)
    sizes = reduced_sizes(sys_, ks)
    slots = spectra.BORDER_SLOTS
    ks = ks[(sizes[:, slots] > spectra.SLOT_DELTA_MIN + 1e-3)
            & (sizes[:, slots] - sizes[:, slots - 1] > 1e-3)][::10]
    assert len(ks) >= 8
    count = spectra._PositiveCount(sys_)
    _, steps = count.newton_steps(ks)
    vals = count.m_many(ks)[1]
    rows, j = np.arange(len(ks)), np.argmin(np.abs(vals), axis=-1)
    delta = 1e-6
    slope = (count.m_many(ks + delta)[1][rows, j]
             - count.m_many(ks - delta)[1][rows, j]) / (2.0 * delta)
    np.testing.assert_allclose(steps, -vals[rows, j] / slope, rtol=1e-6)


@pytest.mark.parametrize("mats, nearest", [
    (np.zeros((2, 3, 3)), None),
    (np.array([np.diag([1.0, 2.0, 3.0]), np.diag([0.0, -1.0, 5.0]),
               np.diag([-2.0, 2.0, 2.0])]), [0, 0, 0])])
def test_nearest_vector_is_a_finite_unit_vector(mats, nearest):
    vals = np.linalg.eigvalsh(mats)
    j = np.argmin(np.abs(vals), axis=-1)
    v = spectra._nearest_vector(mats, vals, j)
    assert np.all(np.isfinite(v))
    np.testing.assert_allclose(np.linalg.norm(v, axis=-1), 1.0, rtol=1e-14)
    if nearest is not None:
        np.testing.assert_allclose(np.abs(v[np.arange(len(v)), nearest]), 1.0, rtol=1e-10)


@pytest.mark.parametrize("n_edges", [6, 10])
def test_kirchhoff_star_spectrum_matches_eigenphase_oracle(n_edges):
    sys_ = kirchhoff_star(n_edges, seed=n_edges)
    sp = xg.find_spectrum(sys_, (0.0, 10.0), tol=TOL)
    oracle = eigenphase_roots(sys_, sp.k_window[0], 10.0, TOL)
    assert sp.total_count > 4 * n_edges
    assert [g for _, g in sp.eigenvalues] == [g for _, g in oracle]
    for (k, _), (k_ref, _) in zip(sp.eigenvalues, oracle):
        assert abs(k - k_ref) <= TOL, (k, k_ref)


@pytest.mark.parametrize("rho", [1e-9, -1e-9])
def test_near_zero_mode_is_counted_once(rho):
    # Robin ends rho = +-1e-9 on one edge: the Neumann zero mode moves to
    # -kappa^2 or to a small k^2, below MULT_TOL in eigenphase.  M(0) has no
    # kernel then, and the eigenvalue is found once, at its place.
    ell, k_max = 1.7, 12.0
    sys_ = edge("robin", ell, rho=rho)
    sp = xg.find_spectrum(sys_, (0.0, k_max), tol=TOL)
    negative = xg.find_negative_eigenvalues(sys_, k_max)
    oracle = eigenphase_roots(sys_, sp.k_window[0], k_max, TOL)
    assert sp.zero_mode[0] == 0
    assert [g for _, g in sp.eigenvalues] == [g for _, g in oracle]
    for (k, _), (k_ref, _) in zip(sp.eigenvalues, oracle):
        assert abs(k - k_ref) <= TOL, (k, k_ref)
    # the Neumann edge has the levels n pi / l, n = 0, 1, ...
    assert len(negative) + sp.total_count == 1 + math.floor(k_max * ell / math.pi)
    assert len(negative) == (rho > 0) or len(negative) == (rho < 0)


def star3():
    g = xg.MetricGraph.from_intervals([(1.0, math.e)] * 3,
                                      vertices=[("c", f"t{i}") for i in range(3)])
    return system_of(xg.standard_bc("kirchhoff", g), g)


def edge(kind, ell, **kwargs):
    g = xg.MetricGraph.from_intervals([(1.0, math.exp(ell))])
    return system_of(xg.standard_bc(kind, g, **kwargs), g)


def star4():
    g = xg.MetricGraph.from_intervals([(1.0, math.exp(ell)) for ell in (1.0, 1.2, 1.45, 1.7)],
                                      vertices=[("c", f"t{i}") for i in range(4)])
    return system_of(xg.standard_bc("kirchhoff", g), g)


# (system, log lengths of the Dirichlet points, #eigenvalues below (n pi / l)^2
# and multiplicity of (n pi / l)^2 as functions of n, or None for the oracle)
POLE_CASES = {
    # levels pi m simple, pi (m + 1/2) double, and the constant zero mode
    "star3": (star3, [1.0], lambda n: 3 * n, lambda n: 1),
    "neumann": (lambda: edge("neumann", 1.7), [1.7], lambda n: n, lambda n: 1),
    "dirichlet": (lambda: edge("dirichlet", 2.3), [2.3], lambda n: n - 1, lambda n: 1),
    "robin": (lambda: edge("robin", 2.0, rho=0.8), [2.0], None, None),
    "star4": (star4, [1.0, 1.2, 1.45, 1.7], None, None),
}


@pytest.mark.parametrize("case", sorted(POLE_CASES))
def test_count_at_and_next_to_dirichlet_points(case):
    make, lengths, below_of, mult_of = POLE_CASES[case]
    sys_ = make()
    count = spectra._PositiveCount(sys_)
    ns = np.arange(1, 9)
    poles = np.concatenate([ns * (math.pi / ell) for ell in lengths])
    if below_of is None:
        # no level at a Dirichlet point: the oracle's count holds on both sides
        levels = np.array([k for k, g in eigenphase_roots(sys_, 1e-9, poles.max() + 1.0, 1e-12)
                           for _ in range(g)])
        assert np.min(np.abs(np.subtract.outer(poles, levels))) > 1e-6
        below = start_count(sys_, 1e-9) + np.sum(levels < poles[:, None], axis=-1)
        above = below
    else:
        below = np.array([below_of(n) for n in ns])
        above = below + np.array([mult_of(n) for n in ns])

    half = 0.5 * TOL
    np.testing.assert_array_equal(count.m_many(poles - half)[0], below)
    np.testing.assert_array_equal(count.m_many(poles + half)[0], above)
    # within 1e-15 of a level the sign of its eigenvalue is below rounding:
    # either side's count, in order
    near = [count.m_many(poles * f)[0] for f in (1 - 1e-15, 1.0, 1 + 1e-15)]
    for n_at in near:
        assert np.all((n_at == below) | (n_at == above))
    assert np.all(near[0] <= near[1]) and np.all(near[1] <= near[2])


@pytest.mark.parametrize("case", ["star3", "neumann", "dirichlet"])
def test_levels_at_dirichlet_points_are_exact(case):
    make, (ell,), _, _ = POLE_CASES[case]
    # the window ends inside the bracket of the last level: (p - tol/2, k_max]
    top = 9 * (math.pi / ell)
    sp = xg.find_spectrum(make(), (0.0, top + 0.25 * TOL), tol=TOL)
    assert sp.wavenumbers[-1] == top
    at_poles = [(k, g) for k, g in sp.eigenvalues
                if abs(k * ell / math.pi - round(k * ell / math.pi)) < 1e-6]
    assert at_poles
    for k, _ in at_poles:
        assert k == round(k * ell / math.pi) * (math.pi / ell)
    assert sp.diagnostics["pole_roots"] == len(at_poles)


def test_incommensurate_star_has_no_pole_roots():
    sp = xg.find_spectrum(star4(), (0.0, 20.0), tol=TOL)
    assert sp.total_count > 20
    assert sp.diagnostics["pole_roots"] == 0
    # the constant zero mode gives no phantom root at the window floor
    assert sp.wavenumbers[0] > 0.1


@pytest.mark.parametrize("make", [star4, lambda: edge("robin", 2.0, rho=0.8),
                                  lambda: drawn_system(1, 3, "hermitian_full")])
def test_newton_refinement_budget(make):
    # Newton steps on the eigenvalue of H nearest 0: about four evals per
    # simple root, certificates included; bisection to 1e-10 takes 30 or more
    sp = xg.find_spectrum(make(), (0.0, 30.0), tol=TOL)
    assert sp.total_count >= 15
    assert sp.diagnostics["refine_evals"] <= 6 * sp.total_count


def test_degenerate_levels_take_newton_steps():
    # equal-length Kirchhoff 3-star: pi (m + 1/2) is a double level, pi m a
    # simple one.  A bracket around a double level is certified 2-fold by
    # Newton steps; one holding 4 pi and 4.5 pi splits at an iterate or a
    # probe.  Bisection to 1e-10 takes about 33 evals per bracket.
    count = spectra._PositiveCount(star3())
    pi = math.pi
    brackets = [(lo, hi, *count.m_many([lo, hi])[0].tolist(), None)
                for lo, hi in ((2.5 * pi - 0.4, 2.5 * pi + 0.3), (4 * pi - 0.3, 4.5 * pi + 0.2))]
    assert [mhi - mlo for _, _, mlo, mhi, _ in brackets] == [2, 3]
    evals = count.evals
    roots, rounds = spectra._refine_brackets(count, brackets, TOL)
    assert [g for _, g in roots] == [2, 1, 2]
    for (k, _), exact in zip(roots, (2.5 * pi, 4 * pi, 4.5 * pi)):
        assert abs(k - exact) <= 0.5 * TOL + 1e-15 * exact
    assert count.evals - evals <= 24
    assert rounds <= 10


def test_star3_spectrum_refines_with_few_evals():
    # the double levels of the equal-length 3-star cost about as much as
    # simple ones; the simple levels sit at Dirichlet points
    sp = xg.find_spectrum(star3(), (0.0, 30.0), tol=TOL)
    doubles = [k for k, g in sp.eigenvalues if g == 2]
    assert len(doubles) == 10
    assert sp.diagnostics["refine_evals"] <= 4 * len(doubles)


def test_squared_solve_uses_no_eig_and_first_order_does(monkeypatch):
    # Newton vectors come from a shifted solve: a squared-operator solve
    # calls no eig, eigvals or eigh, and a first-order one eigvals only
    def refuse(*args, **kwargs):
        raise AssertionError("eig, eigvals or eigh called")

    squared = [star3(), edge("robin", 2.0, rho=0.8), edge("dirichlet", 1.0),
               drawn_system(3, 2, "hermitian_partial"), kirchhoff_star(6)]
    with monkeypatch.context() as patch:
        for name in ("eig", "eigvals", "eigh"):
            patch.setattr(np.linalg, name, refuse)
        for sys_ in squared:
            assert xg.find_spectrum(sys_, (0.0, 10.0), workers=2).total_count > 0

    calls = []
    for name in ("eig", "eigvals"):
        def record(u, fn=getattr(np.linalg, name), name=name):
            calls.append(name)
            return fn(u)
        monkeypatch.setattr(np.linalg, name, record)
    g = xg.MetricGraph.from_intervals([(1.0, math.e)], directed=True)
    first_order = xg.SecularSystem.bk(xg.s_matrix_bk(xg.standard_bc("ring_phase", g, c=0.3)), g)
    assert xg.find_spectrum(first_order, (-10.0, 10.0)).total_count > 0
    assert set(calls) == {"eigvals"}
