"""The array rounds of ``spectra._refine_brackets`` against the list-based
rounds they replaced (``util.reference_refine_brackets``): every bracket list
that a solve hands to the refinement is refined by both, each with its own
copy of the count, and the two must return the same roots to the bit
(``float.hex``), the same number of rounds and the same ``evals`` and
``lu_evals`` tallies.  All four counts are covered (Cayley at d = 1 and
d >= 2, elimination, dense, bound-state), with brackets that split, double
levels, brackets at Dirichlet points, the seeded bound-state search and an
empty bracket list.
"""

import contextlib
import copy
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xpgraphs as xg
from xpgraphs import spectra

from util import (KDEP_FAMILIES, dense_count, random_bk2_spec, random_graph, random_kdep_spec,
                  random_unitary, reference_refine_brackets)

EXAMPLES = settings(max_examples=40, deadline=None, derandomize=True, database=None)

TOL = 1e-10


def listed(brackets) -> list:
    """brackets as the list of (lo, hi, M(lo), M(hi), guess) tuples of
    Python numbers that the list-based rounds were given."""
    if isinstance(brackets, list):
        return brackets
    return [(lo, hi, int(mlo), int(mhi), guess)
            for lo, hi, mlo, mhi, guess in np.asarray(brackets).tolist()]


def assert_same_rounds(count, brackets, tol) -> list:
    """Both refinements agree on brackets, each from its own copy of count;
    returns the roots."""
    twin = copy.deepcopy(count)
    got, rounds = spectra._refine_brackets(count, brackets, tol)
    want, want_rounds = reference_refine_brackets(twin, listed(brackets), tol)
    assert [(k.hex(), g) for k, g in got] == [(float(k).hex(), g) for k, g in want]
    assert all(type(k) is float and type(g) is int for k, g in got)
    assert rounds == want_rounds
    assert (count.evals, count.lu_evals) == (twin.evals, twin.lu_evals)
    return got


def recorded(solve) -> list:
    """(count before the call, brackets, tol) of every refinement that
    solve() runs, in order."""
    calls = []
    real = spectra._refine_brackets

    def record(count, brackets, tol):
        calls.append((copy.deepcopy(count), brackets, tol))
        return real(count, brackets, tol)

    with mock.patch.object(spectra, "_refine_brackets", record):
        solve()
    return calls


def assert_solve_matches(solve) -> int:
    """Every refinement of solve() agrees; returns the number of roots."""
    return sum(len(assert_same_rounds(*call)) for call in recorded(solve))


def star(lengths, kind="kirchhoff", **kw):
    g = xg.MetricGraph.from_intervals([(1.0, math.exp(ell)) for ell in lengths],
                                      vertices=[("c", f"t{i}") for i in range(len(lengths))])
    dec = xg.decompose(xg.standard_bc(kind, g, **kw), xg.DilationMatrices.from_graph(g))
    return xg.SecularSystem.bk2(dec, g)


def kirchhoff_ring(lengths):
    n = len(lengths)
    g = xg.MetricGraph.from_intervals([(1.0, math.exp(ell)) for ell in lengths],
                                      vertices=[(f"v{i}", f"v{(i + 1) % n}") for i in range(n)])
    dec = xg.decompose(xg.standard_bc("kirchhoff", g), xg.DilationMatrices.from_graph(g))
    return xg.SecularSystem.bk2(dec, g)


def phase_ring(ell, c):
    g = xg.MetricGraph.from_intervals([(1.0, math.exp(ell))], directed=True)
    return xg.SecularSystem.bk(xg.s_matrix_bk(xg.standard_bc("ring_phase", g, c=c)), g)


def drawn_solve(rng, family):
    """A solve of one drawn system: a first-order scan (Cayley count at d = 1
    or d >= 2), a squared-operator scan by elimination or by the dense
    count, or a bound-state search."""
    if family == "cayley-1":
        sys_ = phase_ring(rng.uniform(0.5, 3.0), rng.random())
        return lambda: xg.find_spectrum(sys_, (-40.0, 40.0), TOL)
    if family == "cayley":
        d = int(rng.integers(2, 5))
        sys_ = xg.SecularSystem.bk(random_unitary(rng, d), random_graph(rng, d))
        half = 30.0 * math.pi / float(np.sum(sys_.weights))
        return lambda: xg.find_spectrum(sys_, (-half, half), TOL)
    if family in ("elimination", "dense"):
        kind = str(rng.choice(["kirchhoff", "neumann", "robin"]))
        kw = {"rho": rng.uniform(-1.0, 2.0, size=2 * 3)} if kind == "robin" else {}
        sys_ = star(rng.uniform(0.3, 2.5, size=3), kind, **kw)
        assert sys_.forest is not None
        if family == "elimination":
            return lambda: xg.find_spectrum(sys_, (0.0, 12.0), TOL)

        def dense():
            with dense_count():
                xg.find_spectrum(sys_, (0.0, 12.0), TOL)
        return dense
    if family == "nonlocal":
        g = random_graph(rng, int(rng.integers(1, 4)))
        sys_ = xg.SecularSystem.bk2(xg.decompose(random_bk2_spec(rng, g),
                                                 xg.DilationMatrices.from_graph(g)), g)
        return lambda: xg.find_spectrum(sys_, (0.0, 10.0), TOL)
    g = random_graph(rng, int(rng.integers(1, 4)))
    spec = random_kdep_spec(rng, g, str(rng.choice(KDEP_FAMILIES)))
    sys_ = xg.SecularSystem.bk2(xg.decompose(spec, xg.DilationMatrices.from_graph(g)), g)
    return lambda: xg.find_negative_eigenvalues(sys_, 10.0)


@EXAMPLES
@given(seed=st.integers(0, 2 ** 32 - 1),
       family=st.sampled_from(["cayley-1", "cayley", "elimination", "dense", "nonlocal",
                               "negative"]))
def test_drawn_solves_refine_as_the_list_rounds(seed, family):
    assert_solve_matches(drawn_solve(np.random.default_rng(seed), family))


@pytest.mark.parametrize("n_edges", [3, 4, 5])
@pytest.mark.parametrize("dense", [False, True])
def test_equal_length_stars(n_edges, dense):
    # Kirchhoff: levels of multiplicity n_edges - 1 at pi (n + 1/2) / l
    sys_ = star([1.0] * n_edges)
    with dense_count() if dense else contextlib.nullcontext():
        spectrum = xg.find_spectrum(sys_, (0.0, 20.0), TOL)
        assert max(g for _, g in spectrum.eigenvalues) == n_edges - 1
        assert assert_solve_matches(lambda: xg.find_spectrum(sys_, (0.0, 20.0), TOL)) > 0


def test_kirchhoff_ring():
    # a cycle of three equal edges: double levels at 2 pi n / 3.6, two of
    # every three away from the Dirichlet points; dense count
    sys_ = kirchhoff_ring([1.2, 1.2, 1.2])
    assert sys_.forest is None
    spectrum = xg.find_spectrum(sys_, (0.0, 20.0), TOL)
    assert 2 in [g for _, g in spectrum.eigenvalues]
    assert assert_solve_matches(lambda: xg.find_spectrum(sys_, (0.0, 20.0), TOL)) > 0


@pytest.mark.parametrize("dense", [False, True])
def test_brackets_at_dirichlet_points(dense):
    # each Dirichlet point p = pi n / l_e as the centre of a bracket, as
    # narrow as tol (a root at its midpoint) and wider, and the solves of a
    # Dirichlet star, whose levels all sit at Dirichlet points
    sys_ = star([1.0, 1.7, 2.3])
    with dense_count() if dense else contextlib.nullcontext():
        count = spectra._PositiveCount(sys_) if dense else spectra._TreeCount(sys_)
        points = np.sort(np.concatenate([np.arange(1, 4) * math.pi / ell
                                         for ell in sys_.lengths]))
        brackets = []
        for p in points.tolist():
            for width in (TOL, 1e-3, 0.2):
                lo, hi = p - 0.5 * width, p + 0.5 * width
                brackets.append((lo, hi, *count.m_many([lo, hi])[0].tolist(), None))
        assert assert_same_rounds(count, brackets, TOL)
        box = star([1.0, 1.7, 2.3], "dirichlet")
        assert_solve_matches(lambda: xg.find_spectrum(box, (0.0, 15.0), TOL))


@pytest.mark.parametrize("ells, rho", [([4.0], 1.0), ([3.0, 3.0], [1.2, 1.2, 0.9, 0.9]),
                                       ([4.0, 3.0], [1.0, 0.8, -0.5, 1.5])])
def test_bound_state_seeds(ells, rho):
    # sigma l > SEED_BINDING: the search starts at a half-line bound state and
    # its count splits the bracket; each part takes the step from its side of 0
    g = xg.MetricGraph.from_intervals([(1.0, math.exp(ell)) for ell in ells])
    dec = xg.decompose(xg.standard_bc("robin", g, rho=rho), xg.DilationMatrices.from_graph(g))
    sys_ = xg.SecularSystem.bk2(dec, g)
    calls = recorded(lambda: xg.find_negative_eigenvalues(sys_, 10.0))
    assert len(calls) == 1 and listed(calls[0][1])[0][4] is not None
    roots = assert_same_rounds(*calls[0])
    assert len(roots) > 1


def test_brackets_that_split():
    # brackets over several levels, from their midpoints: d = 1 and d = 3
    # first-order counts, the elimination count and the bound-state count
    rng = np.random.default_rng(5)
    first_order = xg.SecularSystem.bk(random_unitary(rng, 3), random_graph(rng, 3))
    cases = [(spectra._CayleyCount(phase_ring(1.0, 0.3)), 3.0, 40.0),
             (spectra._CayleyCount(first_order), -9.0, 9.0),
             (spectra._TreeCount(star([0.7, 1.3, 2.1])), 0.5, 9.0)]
    for count, lo, hi in cases:
        grid = np.linspace(lo, hi, 4)
        m = count.m_many(grid)[0].tolist()
        brackets = [(a, b, ma, mb, None) for a, b, ma, mb in zip(grid, grid[1:], m, m[1:])]
        assert any(abs(mb - ma) > 1 for _, _, ma, mb, _ in brackets)
        assert len(assert_same_rounds(count, brackets, TOL)) > len(brackets)


@pytest.mark.parametrize("tol", [1e-15, 1e-17])
def test_tol_below_the_float_spacing(tol):
    # a bracket may have no float inside, and k* -+ tol/2 may round to k*
    for count, lo, hi in [(spectra._CayleyCount(phase_ring(1.0, 0.3)), 3.0, 12.0),
                          (spectra._TreeCount(star([0.7, 1.3, 2.1])), 0.5, 6.0)]:
        grid = np.linspace(lo, hi, 4)
        m = count.m_many(grid)[0].tolist()
        brackets = [(a, b, ma, mb, None) for a, b, ma, mb in zip(grid, grid[1:], m, m[1:])]
        assert assert_same_rounds(count, brackets, tol)


def adjacent_floats(count, lo, hi):
    """Adjacent floats a < b with a jump of the count between them, by
    bisection of the bracket (lo, hi] of one jump."""
    m_lo = count.m_many([lo])[0][0]
    while math.nextafter(lo, math.inf) < hi:
        mid = 0.5 * (lo + hi)
        if count.m_many([mid])[0][0] == m_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def test_brackets_at_the_edges_of_the_rules():
    # a bracket exactly tol wide is a root at its midpoint, and one of two
    # adjacent floats, wider than a tiny tol, is one once its midpoint
    # cannot lie inside
    for count, lo, hi in [(spectra._CayleyCount(phase_ring(1.3, 0.37)), 1.0, 4.0),
                          (spectra._TreeCount(star([0.7, 1.3, 2.1])), 2.0, 2.3)]:
        a, b = adjacent_floats(count, lo, hi)
        for tol, edge in [(2.0 ** -20, (a, a + 2.0 ** -20)), (1e-300, (a, b))]:
            counts = count.m_many(list(edge))[0].tolist()
            assert counts[0] != counts[1] and edge[1] - edge[0] >= tol
            assert len(assert_same_rounds(count, [(*edge, *counts, None)], tol)) == 1


class ScriptedCount:
    """A count with one root at 1: M(k) = 1 for k >= 1, else 0, and the
    Newton step 1 - k, or the step that ``script`` holds for k."""

    def __init__(self, script):
        self.script, self.evals, self.lu_evals = script, 0, 0

    def m_many(self, ks):
        self.evals += len(ks)
        return (np.asarray(ks) >= 1.0).astype(int), None

    def parity(self, ks):
        self.lu_evals += len(ks)
        return 1 - 2 * (np.asarray(ks) >= 1.0)

    def newton_steps(self, ks):
        self.evals += len(ks)
        steps = [self.script.get(k, 1.0 - k) for k in ks.tolist()]
        return self.m_many(ks)[0], np.array(steps), None


@pytest.mark.parametrize("first, second", [(-0.16765124752497262, -1.7986392490110449e-06),
                                           (-0.049177986456499255, -8.263619108679792e-07)])
def test_a_stop_at_its_bound_is_decided_on_python_floats(first, second):
    # steps s' = first from 1.1, then s = second, with |s|^3 = eps |k| s'^2
    # to the last bit: numpy's products and Python's pow decide the stop
    # differently, and Python's decides it
    x2 = 1.1 + first
    size, last, k = np.array([abs(second)]), np.array([abs(first)]), np.array([x2])
    products = bool(size * size * size - spectra.EPS * abs(k) * (last * last) <= 0.0)
    assert products != (abs(second) ** 3 <= spectra.EPS * abs(x2) * abs(first) ** 2)
    count = ScriptedCount({1.1: first, x2: second})
    assert assert_same_rounds(count, [(0.5, 1.5, 0, 1, 1.1)], TOL)


def test_empty_bracket_list():
    count = spectra._CayleyCount(phase_ring(1.0, 0.3))
    twin = copy.deepcopy(count)
    assert spectra._refine_brackets(count, [], TOL) == reference_refine_brackets(twin, [], TOL) \
        == ([], 0)
    assert (count.evals, count.lu_evals) == (twin.evals, twin.lu_evals) == (0, 0)
