"""Shared generators for randomized suites, and the oracles kept for
them: the raw S''(k) formula, the eigenphase winding count of a constant
bond matrix, the eigenphase scan of the positive axis and its bisection,
the eigensolve-only spectrum solve, the switch to the dense squared-operator
count, the stack-size check of a count's outputs, the phase and end-swap
matrices T(k) and J0, the sign-change search of the negative axis, the
two-probe zero-mode count, the walk-based orbit enumeration, the
orbit-by-orbit trace sums, a test function tabulated on a grid, the
scalar critical-line zeta series, the csv.writer form of the CLI's CSV
artifact writer and the np.block form of the dilation matrices."""

from __future__ import annotations

import cmath
import csv
import math
from unittest import mock

import numpy as np

import xpgraphs as xg
from xpgraphs import spectra
from xpgraphs.halfline import ALPHA
from xpgraphs.extensions import s_matrix_bk2_derivative
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


def s_matrix_bk2_direct(dec, k: complex) -> np.ndarray:
    """Raw formula -(A'' - ikB'')(A'' + ikB'')^-1; cross-check path, k != 0."""
    a, b = dec.a_dprime, dec.b_dprime
    return -(a - 1j * k * b) @ np.linalg.inv(a + 1j * k * b)


def s_phase_rate_bound(sys, kappa: float) -> float:
    """Upper bound on |d/dk arg det S(k)| near |k| = kappa."""
    lam = np.abs(sys.poles)
    if lam.size == 0:
        return 0.0
    return float(np.sum(2.0 * lam / (lam ** 2 + kappa ** 2)))


class EigenphaseScan:
    """The winding count M(k) of U(k) for any S-part, constant or not.

    S''(k) has eigenvalue -1 on ker B' and -(lam - ik)/(lam + ik) for each
    nonzero eigenvalue lam of L'', so arg det U(k) = theta0 + k sum(w)
    - 2 sum_lam arctan(k / lam) in closed form, and M(k) is that lift minus
    the principal eigenphases over 2 pi.  Refined by ``bisect_brackets``.
    """

    def __init__(self, sys):
        self.sys = sys
        self.weights = sys.weights
        self.rate = float(np.sum(self.weights))
        self.poles = sys.poles
        self.theta0 = float(np.angle(np.linalg.det(sys.bond_matrix(0.0))))
        self.evals = 0

    def theta(self, k):
        """Continuous arg det U(k); vectorised over k."""
        return (self.theta0 + k * self.rate
                - 2.0 * np.sum(np.arctan(np.divide.outer(k, self.poles)), axis=-1))

    def m_many(self, ks):
        """(M(k), principal eigenphases) over ks."""
        ks = np.asarray(ks, dtype=float)
        self.evals += len(ks)
        angles = np.mod(np.angle(np.linalg.eigvals(self.sys.u_matrix(ks))), 2 * math.pi)
        m = np.rint((self.theta(ks) - np.sum(angles, axis=-1)) / (2 * math.pi)).astype(int)
        return m, angles


class WindingScan:
    """The winding count M(k) of a constant bond matrix B from eigvals of
    U(k) = B exp(ikw): arg det U(k) = arg det B + k sum(w), so M(k) =
    (arg det B + k sum(w) - sum_j theta_j(k)) / (2 pi) over the principal
    eigenphases theta_j in [0, 2 pi).  The oracle of ``spectra._CayleyCount``,
    whose count is this one in the same absolute convention."""

    def __init__(self, sys):
        self.bond = sys.bond_matrix(0.0)
        self.weights = sys.weights
        self.theta0 = float(np.angle(np.linalg.det(self.bond)))

    def m_many(self, ks):
        """(M(k), principal eigenphases) over ks."""
        ks = np.asarray(ks, dtype=float)
        u = self.bond * np.exp(1j * np.multiply.outer(ks, self.weights))[:, None, :]
        angles = np.mod(np.angle(np.linalg.eigvals(u)), 2 * math.pi)
        m = np.rint((self.theta0 + ks * np.sum(self.weights) - np.sum(angles, axis=-1))
                    / (2 * math.pi)).astype(int)
        return m, angles


def bisect_brackets(scan, brackets, tol: float) -> list:
    """Sorted (k, g) from count-carrying brackets (lo, hi, M(lo), M(hi)),
    each halved until it is no wider than tol, with one ``scan.m_many`` per
    round; a bracket no wider than tol is a root at its midpoint, of
    multiplicity |M(hi) - M(lo)|."""
    roots, open_ = [], brackets
    while open_:
        halving = []
        for lo, hi, mlo, mhi in open_:
            if mhi == mlo:
                continue
            if hi - lo <= tol:
                roots.append((0.5 * (lo + hi), abs(mhi - mlo)))
            else:
                halving.append((lo, hi, mlo, mhi))
        if not halving:
            break
        mids = [0.5 * (lo + hi) for lo, hi, _, _ in halving]
        counts = scan.m_many(np.array(mids))[0].tolist()
        open_ = [part for (lo, hi, mlo, mhi), x, m in zip(halving, mids, counts)
                 for part in ((lo, x, mlo, m), (x, hi, m, mhi))]
    return sorted(roots)


def eigenphase_roots(sys, k_lo: float, k_hi: float, tol: float) -> list:
    """Sorted (k, g) over (k_lo, k_hi] from ``EigenphaseScan``: eight grid
    points per mean spacing of sum(w) plus the S-matrix phase velocity
    bound, a nine-point re-check of every step with an eigenphase within
    the step's phase motion of 1 at both ends, and ``bisect_brackets`` to
    width tol.
    """
    scan = EigenphaseScan(sys)
    points = [k_lo]
    while points[-1] < k_hi:
        k = points[-1]
        rate = scan.rate + s_phase_rate_bound(sys, min(abs(k), abs(k_hi)) if k * k_hi > 0 else 0.0)
        points.append(min(k + 2 * math.pi / (8 * rate), k_hi))
    grid = np.array(points)
    m_vals, angles = scan.m_many(grid)
    near = np.minimum(np.min(angles, axis=-1), 2 * math.pi - np.max(angles, axis=-1))
    brackets = []
    for i in range(len(grid) - 1):
        lo, hi = float(grid[i]), float(grid[i + 1])
        if m_vals[i + 1] != m_vals[i]:
            brackets.append((lo, hi, int(m_vals[i]), int(m_vals[i + 1])))
            continue
        motion = (scan.rate + s_phase_rate_bound(sys, min(abs(lo), abs(hi)))) * (hi - lo)
        if max(near[i], near[i + 1]) <= motion:
            sub = np.linspace(lo, hi, 9)
            sub_m = np.concatenate([m_vals[i:i + 1], scan.m_many(sub[1:-1])[0],
                                    m_vals[i + 1:i + 2]])
            for j in np.flatnonzero(np.diff(sub_m)):
                brackets.append((float(sub[j]), float(sub[j + 1]),
                                 int(sub_m[j]), int(sub_m[j + 1])))
    return bisect_brackets(scan, brackets, tol)


def _unresolved_parity(self, ks):
    """A ``parity`` that resolves no sign, so every count takes ``m_many``."""
    return np.zeros(len(ks), dtype=int)


def eigensolve_spectrum(sys, k_range, tol: float):
    """``find_spectrum`` with every refinement count from an eigensolve:
    the determinant-sign (parity) counts are replaced by ones that resolve
    nothing, so this is their oracle."""
    with mock.patch.object(spectra._CayleyCount, "parity", _unresolved_parity), \
            mock.patch.object(spectra._HermitianCount, "parity", _unresolved_parity):
        return xg.find_spectrum(sys, k_range, tol)


def dense_count():
    """A context in which every squared-operator scan takes the dense
    ``_PositiveCount``: no system has a forest layout."""
    return mock.patch.object(spectra.SecularSystem, "forest", property(lambda self: None))


def count_outputs(count, ks) -> list:
    """Every output of a count over ks: m_many, parity, newton_steps and,
    where the count has them, the gaps of the m_many data."""
    counts, vals = count.m_many(ks)
    out = [counts, vals, count.parity(ks)]
    out += [x for x in count.newton_steps(ks) if x is not None]
    if hasattr(count, "gaps"):
        out += list(count.gaps(vals))
    return out


def assert_stacks_do_not_leak(monkeypatch, count, ks, entries: int) -> None:
    """The outputs of count over ks are the same to the bit with one and
    with two points (of the smallest per-point size, ``entries``) per
    stacked call as with all of ks in one stack."""
    assert len(ks) * entries <= spectra.STACK_ENTRIES      # the default takes one stack
    reference = count_outputs(count, ks)
    for points in (1, 2):
        monkeypatch.setattr(spectra, "STACK_ENTRIES", points * entries)
        for want, got in zip(reference, count_outputs(count, ks), strict=True):
            np.testing.assert_array_equal(got, want)


def swap_matrix(n_edges: int) -> np.ndarray:
    """J0, which exchanges the two ends (b and b + E) of every edge."""
    return spectra._end_pair(np.zeros(n_edges), np.ones(n_edges))


def t_matrix(kind: str, lengths, k: complex) -> np.ndarray:
    """Diagonal phase matrix exp(ik l) (first order) or its antidiagonal
    two-block arrangement J0 diag(exp(ik l), exp(ik l)) (second order)."""
    lengths = np.asarray(lengths, dtype=float)
    if kind == xg.BK:
        return np.diag(np.exp(1j * k * lengths))
    return swap_matrix(len(lengths)) * np.exp(1j * k * np.concatenate([lengths, lengths]))


def probe_zero_mode_count(sys, k_probe: float = 1.0) -> int:
    """g0 as the unit-eigenvalue multiplicity of S''(k') C(k') at the probe
    k' = k_probe, with C(k') = [[D, O], [O, D]], D = diag(l / (z + l)) and
    O = diag(z / (z + l)), z = 2i / k', the unitary comparison matrix of the
    lambda = 0 secular function.  The count must not depend on the probe:
    it is asserted equal at k_probe sqrt 2."""
    counts = []
    for kp in (k_probe, k_probe * math.sqrt(2.0)):
        z = 2j / kp
        c = spectra._end_pair(sys.lengths / (z + sys.lengths), z / (z + sys.lengths))
        counts.append(spectra._unit_count(sys.s_part(kp) @ c, spectra.MULT_TOL))
    assert counts[0] == counts[1], f"zero-mode count probe-dependent: {counts}"
    return counts[0]


def sign_change_negative_roots(sys, kappa_max: float) -> list:
    """kappa where det(I - U(i kappa)) changes sign in (kappa_lo, kappa_max].

    A 2,000-point grid split at the poles of S''(i kappa), padded by 1e-7,
    and a bisection of each sign change to width 1e-13 max(1, kappa); roots of
    even order leave no sign change and are not found.
    """
    def f(kappa):
        return xg.secular(sys, 1j * np.asarray(kappa)).real

    poles = sorted(lam for lam in sys.dec.poles if 0.0 < lam < kappa_max)
    cuts = [1e-9 * max(1.0, kappa_max)]
    for p in poles:
        cuts.extend([p - 1e-7 * max(1.0, p), p + 1e-7 * max(1.0, p)])
    cuts.append(kappa_max)
    roots = []
    for seg_lo, seg_hi in zip(cuts[::2], cuts[1::2]):
        if seg_hi <= seg_lo:
            continue
        grid = np.linspace(seg_lo, seg_hi, max(16, 2000 // (len(cuts) // 2)))
        vals = f(grid)
        for lo, hi, flo, fhi in zip(grid, grid[1:], vals, vals[1:]):
            if flo * fhi >= 0.0:
                continue
            while hi - lo >= 1e-13 * max(1.0, lo):
                mid = 0.5 * (lo + hi)
                fmid = f(mid)
                if flo * fmid < 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fmid
            roots.append(0.5 * (lo + hi))
    return roots


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


def reference_orbit_sum_kdep(sys, h, max_steps: int, k_probe: float = 1.0) -> float:
    """Orbit sum of a k-dependent family orbit by orbit, over every class of
    at most ``max_steps`` steps; the oracle of the power-trace sum.

    Each class contributes Re[(1/2pi) int h(k) A(k) exp(ikl) dk] with the
    k-resolved amplitude A(k) = l_p a_p(k)^r - i a_p(k)^(r-1) a_p'(k), a_p
    the product of bond-matrix entries S''(k) J0 over the primitive cycle,
    by composite Gauss-Legendre quadrature on |k| <= K for Gaussian h.
    """
    weights = sys.weights
    orbits = xg.enumerate_orbits(sys.bond_matrix(k_probe), np.ones(sys.dim), max_steps)
    big_k = math.sqrt(math.log(1e16) / h.gaussian_width)
    l_max = max(float(np.sum(weights[list(orb.bonds)])) for orb in orbits)
    n_panels = int(math.ceil(2.0 * big_k / min(0.5, math.pi / (2.0 * l_max))))
    nodes, node_weights = np.polynomial.legendre.leggauss(16)
    half = big_k / n_panels
    mids = -big_k + half * (2 * np.arange(n_panels) + 1)
    xs = (mids[:, None] + half * nodes).ravel()
    ws = np.tile(half * node_weights, n_panels)
    sig = sys.bond_matrix(xs)
    # B' = dS''/dk J0: J0 swaps the two column halves
    dsig = np.roll(s_matrix_bk2_derivative(sys.dec, xs), sys.dim // 2, axis=-1)
    h_vals = np.real(h(xs))
    total = 0.0
    for orb in orbits:
        p = orb.n_steps // orb.repetition
        prim = orb.bonds[:p]
        a_p = np.ones(len(xs), dtype=complex)
        log_deriv = np.zeros(len(xs), dtype=complex)
        for i in range(p):
            cur, nxt = prim[i], prim[(i + 1) % p]
            a_p *= sig[:, nxt, cur]
            log_deriv += dsig[:, nxt, cur] / sig[:, nxt, cur]
        r = orb.repetition
        l_p = float(np.sum(weights[list(prim)]))
        amp = l_p * a_p ** r - 1j * a_p ** r * log_deriv
        integrand = h_vals * amp * np.exp(1j * xs * r * l_p)
        total += float(np.sum(ws * integrand.real)) / (2.0 * math.pi)
    return total


def converged_orbit_sum_kdep(sys, h, n_start: int, eps: float = 1e-13,
                             max_doublings: int = 7) -> float:
    """``reference_orbit_sum_kdep`` over at most n steps, n doubling from
    ``n_start`` until two successive sums differ by less than ``eps``."""
    n, value = n_start, reference_orbit_sum_kdep(sys, h, n_start)
    for _ in range(max_doublings):
        n *= 2
        previous, value = value, reference_orbit_sum_kdep(sys, h, n)
        if abs(value - previous) < eps:
            return value
    raise AssertionError(f"orbit-by-orbit sum still moving at {n} steps")


def tabulated(h_callable, k_max: float = 60.0, n: int = 6001,
              label: str = "tabulated") -> xg.TestFunction:
    """Wrap an even h given only as a callable; the transform is computed by
    quadrature on [0, k_max].  Nothing is known of h off the real axis, so
    the trace sums refuse it."""
    ks = np.linspace(0.0, k_max, n)
    hs = np.asarray(h_callable(ks), dtype=float)

    def hat(y):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        # (1/pi) int_0^inf h(k) cos(ky) dk for even h
        out = np.trapezoid(hs[None, :] * np.cos(np.outer(y, ks)), ks, axis=1) / math.pi
        return out if out.size > 1 else float(out[0])

    def tail(big_k):
        mask = ks >= big_k
        if not np.any(mask):
            return float(abs(hs[-1]) * k_max)
        return float(np.trapezoid(np.abs(hs[mask]), ks[mask]))

    return xg.TestFunction(h=h_callable, hat=hat, tail=tail, label=label)


def reference_zeta_critical(s: complex) -> complex:
    """zeta(s) = eta(s) / (1 - 2^(1-s)) point by point in Python complex
    arithmetic, with 25 + ceil(0.95 |Im s|) terms of the Cohen-Villegas-
    Zagier eta series; the oracle of the array series in
    ``halfline.zeta_critical``."""
    s = complex(s)
    n_terms = 25 + int(math.ceil(0.95 * abs(s.imag)))
    d = (3.0 + math.sqrt(8.0)) ** n_terms
    d = (d + 1.0 / d) / 2.0
    b = -1.0
    c = -d
    total = 0.0 + 0.0j
    for j in range(n_terms):
        c = b - c
        total += c * cmath.exp(-s * math.log(j + 1))
        b *= (j + n_terms) * (j - n_terms) / ((j + 0.5) * (j + 1.0))
    return total / d / (1.0 - cmath.exp((1.0 - s) * math.log(2.0)))


def amplitude_envelope_sq(k: float) -> float:
    """Large-|k| asymptotic envelope of |A(k)|^2 for the reference packet:

        alpha^2 (3 - 2 sqrt(2) cos(k ln 2)) exp(-pi |k|) |zeta(1/2 - ik)|^2.
    """
    z = xg.zeta_critical(0.5 - 1j * k)
    return ALPHA ** 2 * (3.0 - 2.0 * math.sqrt(2.0) * math.cos(k * math.log(2.0))) \
        * math.exp(-math.pi * abs(k)) * abs(z) ** 2


def csv_writer_artifact(path, header, rows) -> None:
    """The CLI's CSV artifact through csv.writer: floats to 17 significant
    digits, every other value through str."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{x:.17g}" if isinstance(x, float) else str(x) for x in row])


def dilation_blocks(e: int):
    """(U, J) of ``DilationMatrices`` for E edges, built with np.block."""
    eye = np.eye(e)
    u = np.block([[1j * eye, eye], [-eye, -1j * eye]]) / np.sqrt(2.0)
    j = np.block([[np.zeros((e, e)), eye], [-eye, np.zeros((e, e))]])
    return u, j
