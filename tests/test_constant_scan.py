"""Constant-S solver against a dense eigenphase reference, at fixed seeds.

With a k-independent S-part, det U(k) = det S exp(ik sum(w)), so the sum
of the continuous eigenphases grows by sum(w) dk on a step and the sum of
principal eigenphases (in [0, 2 pi)) loses 2 pi at each crossing of 1.  A
dense grid of eigvals calls therefore gives the crossing count of every
grid step without going through ``find_spectrum``.  Each solve has to
reproduce those counts, give every root its multiplicity g, and leave
I - U(k) with a g-th smallest singular value of at most 1e-8 at the root.
"""

import math

import numpy as np
import pytest

import xpgraphs as xg
from xpgraphs import spectra

from util import random_graph, random_unitary

N_CASES = 40
BASE_SEED = 20261017
ROOT_TOL = 1e-10
SV_TOL = 1e-8
#: reference samples per mean level spacing; not the solver's grid
REF_DENSITY = 6


def rng_for(case: int) -> np.random.Generator:
    return np.random.default_rng(BASE_SEED + case)


def u_of(bond, weights, k):
    return bond * np.exp(1j * k * weights)


def reference_counts(bond, weights, k_lo, k_hi):
    """(grid, counts): counts[i] crossings of 1 on (grid[i], grid[i + 1]]."""
    rate = float(np.sum(weights))
    n = int(math.ceil((k_hi - k_lo) * REF_DENSITY * rate / (2 * math.pi))) + 1
    grid = np.linspace(k_lo, k_hi, max(n, 2))
    phase_sum = np.array([
        np.sum(np.mod(np.angle(np.linalg.eigvals(u_of(bond, weights, k))), 2 * math.pi))
        for k in grid])
    raw = (rate * np.diff(grid) + phase_sum[:-1] - phase_sum[1:]) / (2 * math.pi)
    counts = np.rint(raw).astype(int)
    assert np.max(np.abs(raw - counts)) <= 1e-6
    return grid, counts


def check_spectrum(sys_, spectrum):
    bond, weights = sys_.bond_matrix(1.0), sys_.weights
    eye = np.eye(len(weights))
    for k, g in spectrum.eigenvalues:
        sv = np.linalg.svd(eye - u_of(bond, weights, k), compute_uv=False)
        assert sv[-g] <= SV_TOL, (k, g, sv[-g])
        if g < len(sv):
            # no further unit eigenvalue hides behind the reported multiplicity
            assert sv[-g - 1] > 1e3 * SV_TOL, (k, g, sv[-g - 1])
    grid, counts = reference_counts(bond, weights, *spectrum.k_window)
    found = np.zeros(len(counts), dtype=int)
    if spectrum.eigenvalues:
        steps = np.searchsorted(grid, spectrum.wavenumbers, side="left") - 1
        np.add.at(found, np.clip(steps, 0, len(counts) - 1), spectrum.multiplicities)
    np.testing.assert_array_equal(found, counts)


@pytest.mark.parametrize("case", range(N_CASES))
def test_random_first_order(case):
    rng = rng_for(case)
    n = int(rng.integers(1, 5))
    g = random_graph(rng, n)
    sys_ = xg.SecularSystem.bk(random_unitary(rng, n), g)
    # about 40 levels, window ends off any symmetric position
    half = 40.0 * math.pi / g.total_length
    window = (-half * rng.uniform(0.8, 1.2), half * rng.uniform(0.8, 1.2))
    sp = xg.find_spectrum(sys_, window, tol=ROOT_TOL)
    assert sp.total_count >= 30
    check_spectrum(sys_, sp)


def test_commensurate_star():
    for n_edges in (3, 4, 5):
        g = xg.MetricGraph.from_intervals([(1.0, math.e)] * n_edges,
                                          vertices=[("c", f"t{i}") for i in range(n_edges)])
        dec = xg.decompose(xg.standard_bc("kirchhoff", g), xg.DilationMatrices.from_graph(g))
        sys_ = xg.SecularSystem.bk2(dec, g)
        sp = xg.find_spectrum(sys_, (0.0, 30.0), tol=ROOT_TOL)
        check_spectrum(sys_, sp)
        # symmetric modes at pi n are simple, difference modes at pi (n + 1/2)
        # of multiplicity E - 1, and each level is listed once
        n2 = np.rint(2 * sp.wavenumbers / math.pi).astype(int)
        assert n2.tolist() == list(range(1, 20))
        assert np.max(np.abs(sp.wavenumbers - n2 * math.pi / 2)) <= ROOT_TOL
        assert sp.multiplicities.tolist() == [1 if n % 2 == 0 else n_edges - 1 for n in n2]


def test_close_simple_levels_stay_apart():
    # two loops of log length 1 and phases c_j hold simple levels at
    # 2 pi (1 - c_j), 1.5 tol apart: each is certified within tol/2
    c = np.array([0.3, 0.3 + 1.5 * ROOT_TOL / (2 * math.pi)])
    g = xg.MetricGraph.from_intervals([(1.0, math.e)] * 2, directed=True)
    sys_ = xg.SecularSystem.bk(np.diag(np.exp(2j * math.pi * c)), g)
    sp = xg.find_spectrum(sys_, (4.0, 5.0), tol=ROOT_TOL)
    exact = np.sort(2 * math.pi * (1 - c))
    assert sp.multiplicities.tolist() == [1, 1]
    assert np.all(np.abs(sp.wavenumbers - exact) <= 0.5 * ROOT_TOL)


def test_degenerate_ring():
    # the square of a zero-phase ring: every level 2 pi n is double
    g = xg.MetricGraph.from_intervals([(1.0, math.e)])
    spec, _ = xg.squared_extension(np.array([[1.0 + 0j]]), g)
    sys_ = xg.SecularSystem.bk2(xg.decompose(spec, xg.DilationMatrices.from_graph(g)), g)
    sp = xg.find_spectrum(sys_, (0.0, 2 * math.pi * 20.5), tol=ROOT_TOL)
    check_spectrum(sys_, sp)
    assert [g for _, g in sp.eigenvalues] == [2] * 20
    for n, (k, _) in enumerate(sp.eigenvalues, start=1):
        assert abs(k - 2 * math.pi * n) <= ROOT_TOL


@pytest.mark.parametrize("case", range(10))
def test_ring_levels_within_half_tol(case):
    rng = rng_for(1000 + case)
    c, ell, tol = float(rng.random()), float(rng.uniform(0.5, 3.0)), 1e-12
    g = xg.MetricGraph.from_intervals([(1.0, math.exp(ell))], directed=True)
    sys_ = xg.SecularSystem.bk(xg.s_matrix_bk(xg.standard_bc("ring_phase", g, c=c)), g)
    sp = xg.find_spectrum(sys_, (-60.0, 60.0), tol=tol)
    n = np.arange(math.ceil(-60.0 * ell / (2 * math.pi) - c),
                  math.floor(60.0 * ell / (2 * math.pi) - c) + 1)
    exact = 2 * math.pi * (n + c) / ell
    assert len(sp.eigenvalues) == len(exact)
    assert np.all(np.abs(sp.wavenumbers - exact) <= 0.5 * tol + 4e-16 * np.abs(exact))


def test_matrix_evals_per_root():
    rng = np.random.default_rng(4)
    g = random_graph(rng, 4)
    sys_ = xg.SecularSystem.bk(random_unitary(rng, 4), g)
    half = 200.0 * math.pi / g.total_length
    sp = xg.find_spectrum(sys_, (-half, half), tol=ROOT_TOL)
    check_spectrum(sys_, sp)
    assert sp.total_count >= 190
    assert sp.diagnostics["matrix_evals"] <= 15 * sp.total_count


@pytest.mark.parametrize("guess", [
    2 * math.pi + 2e-13,    # nearest eigenphase is the level just below the bracket
    2 * math.pi + 2.0,      # raw Newton step jumps back out of the bracket
])
def test_newton_root_stays_in_certified_bracket(guess):
    # zero-phase ring of log length 1: levels at 2 pi n; the bracket holds 4 pi only
    g = xg.MetricGraph.from_intervals([(1.0, math.e)], directed=True)
    sys_ = xg.SecularSystem.bk(xg.s_matrix_bk(xg.standard_bc("ring_phase", g, c=0.0)), g)
    scan = spectra._CayleyCount(sys_)
    lo, hi, tol = 2 * math.pi + 1e-13, 2 * math.pi + 6.5, 1e-12
    mlo, mhi = scan.m_many([lo, hi])[0].tolist()
    assert mhi == mlo + 1
    roots, _ = spectra._refine_brackets(scan, [(lo, hi, mlo, mhi, guess)], tol)
    k = roots[0][0]
    assert abs(k - 4 * math.pi) <= 0.5 * tol


def test_coarse_grid_eval_budget():
    # the test_matrix_evals_per_root graph: two grid points per mean spacing
    rng = np.random.default_rng(4)
    g = random_graph(rng, 4)
    sys_ = xg.SecularSystem.bk(random_unitary(rng, 4), g)
    half = 200.0 * math.pi / g.total_length
    sp = xg.find_spectrum(sys_, (-half, half), tol=ROOT_TOL)
    check_spectrum(sys_, sp)
    d = sp.diagnostics
    assert d["matrix_evals"] <= 7 * sp.total_count
    assert d["matrix_evals"] == d["grid_evals"] + d["refine_evals"]
    assert d["scan_step"] == math.pi / float(np.sum(sys_.weights))
    assert d["grid_evals"] == math.ceil(2 * half / d["scan_step"]) + 1
    assert 0 < d["refine_rounds"] <= spectra.NEWTON_BUDGET


def test_mixed_batch_in_one_round(monkeypatch):
    # commensurate Kirchhoff 3-star: simple levels at pi n, double ones at pi (n + 1/2)
    g = xg.MetricGraph.from_intervals([(1.0, math.e)] * 3,
                                      vertices=[("c", f"t{i}") for i in range(3)])
    dec = xg.decompose(xg.standard_bc("kirchhoff", g), xg.DilationMatrices.from_graph(g))
    scan = spectra._CayleyCount(xg.SecularSystem.bk2(dec, g))
    pi, tol = math.pi, 1e-12
    windows = [(2 * pi - 0.3, 2 * pi + 0.3, 2 * pi + 1e-3),   # Newton converges
               (3 * pi - 0.05, 3 * pi + 1.45, 3 * pi + 1.4),  # step to 3.5 pi leaves
               (2.5 * pi - 0.2, 2.5 * pi + 0.2, None)]        # double level: Newton too
    brackets = []
    for lo, hi, guess in windows:
        brackets.append((lo, hi, *scan.m_many([lo, hi])[0].tolist(), guess))
    assert [b[3] - b[2] for b in brackets] == [1, 1, 2]

    stacks = []
    for name in ("eigvals", "eigh", "eigvalsh", "inv", "det"):
        def record(u, *args, fn=getattr(np.linalg, name), name=name):
            stacks.append((name, np.shape(u)[0]))
            return fn(u, *args)
        monkeypatch.setattr(np.linalg, name, record)
    evals, lu_evals = scan.evals, scan.lu_evals
    roots, rounds = spectra._refine_brackets(scan, brackets, tol)
    monkeypatch.undo()

    # round one: the three Newton iterates in one inv stack, the counts at
    # the two simple iterates in one det stack, and the certificate points
    # of the double level (its first step from the midpoint, 2.5 pi itself,
    # has converged) in one eigh stack.  Every round makes one inv of all
    # its iterates and at most one det and one eigh; no eigvals or eigvalsh
    # run
    names = [name for name, _ in stacks]
    assert stacks[:3] == [("inv", 3), ("det", 2), ("eigh", 2)]
    assert "eigvals" not in names and "eigvalsh" not in names
    assert names.count("inv") == rounds
    assert 0 < names.count("det") <= rounds and names.count("eigh") <= rounds
    assert sum(n for name, n in stacks if name == "eigh") == scan.evals - evals == 2
    assert sum(n for name, n in stacks if name == "det") == scan.lu_evals - lu_evals
    # no bisection: the double level takes as few rounds as the simple ones
    assert rounds <= 4
    assert [g for _, g in roots] == [1, 2, 1]
    for (k, _), exact in zip(roots, (2 * pi, 2.5 * pi, 3 * pi)):
        assert abs(k - exact) <= 0.5 * tol + 1e-15 * exact


def test_newton_budget_raises(monkeypatch):
    # zero-phase ring of log length 1: one step from the midpoint 4.1 pi
    # does not certify the level at 4 pi
    g = xg.MetricGraph.from_intervals([(1.0, math.e)], directed=True)
    scan = spectra._CayleyCount(
        xg.SecularSystem.bk(xg.s_matrix_bk(xg.standard_bc("ring_phase", g, c=0.0)), g))
    monkeypatch.setattr(spectra, "NEWTON_BUDGET", 1)
    lo, hi = 3.5 * math.pi, 4.7 * math.pi
    with pytest.raises(xg.ToleranceTooCoarse, match="Newton refinement budget"):
        spectra._refine_brackets(scan, [(lo, hi, *scan.m_many([lo, hi])[0].tolist(), None)],
                                 1e-12)

