"""Secular functions, eigenvalue location with multiplicities, Weyl fits.

The spectrum of either operator on a graph is the set of real k where the
unitary family U(k) = S(k) T(k) has eigenvalue one.  We count those
crossings with an integer-valued winding function

    M(k) = (Theta(k) - sum_j theta_j(k)) / (2 pi),

where Theta is a continuous lift of arg det U and theta_j are principal
eigenphases in [0, 2 pi).  M(k2) - M(k1) equals the net number of
eigenphase crossings through 1 on (k1, k2].

With a k-independent S-part, Theta(k) = arg det S + k sum(w) in closed
form and every eigenphase is strictly increasing (rate between the
smallest and largest bond length), so the count is exact.  The scan grid
is evaluated in stacked blocks; a bracket holding one crossing is refined
by Newton steps on the crossing eigenphase, with its velocity from
Hellmann-Feynman, inside a bracket that M certifies at every step.
Brackets holding several crossings (degenerate levels) are bisected.

For k-dependent S-parts the lift is carried numerically along the scan
with steps bounded by the phase-velocity of the S-matrix family, and
brackets are bisected.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ComputeError,
    InsufficientData,
    RangeExceeded,
    ToleranceTooCoarse,
    ValidationError,
)
from .extensions import BK, BK2, Decomposition, s_matrix_bk2
from .graph import MetricGraph

TWO_PI = 2.0 * math.pi

#: eigenphase distance (mod 2 pi) that counts as a unit eigenvalue
MULT_TOL = 1e-8

#: eigenvalues of L'' below this magnitude are treated as exact zeros
LAMBDA_FLOOR = 1e-11

#: grid points whose U(k) go into one stacked eigvals call (constant S-part)
SCAN_BLOCK = 64

#: Newton steps one bracket may take before refinement gives up
NEWTON_BUDGET = 100


# ---------------------------------------------------------------------------
# Secular systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SecularSystem:
    """Bundle of the S-part and the bond lengths entering U(k) = S T(k)."""

    kind: str
    lengths: np.ndarray                  # per-edge log lengths, shape (E,)
    s_bk: np.ndarray | None = None       # constant S for the first-order case
    dec: Decomposition | None = None     # normal form for the squared case

    @classmethod
    def bk(cls, s_matrix: np.ndarray, graph: MetricGraph) -> "SecularSystem":
        s = np.atleast_2d(np.asarray(s_matrix, dtype=complex))
        if s.shape[0] != graph.n_edges:
            raise ValidationError("S-matrix size must equal the edge count")
        return cls(kind=BK, lengths=graph.log_lengths, s_bk=s)

    @classmethod
    def bk2(cls, dec: Decomposition, graph: MetricGraph) -> "SecularSystem":
        if dec.dim != 2 * graph.n_edges:
            raise ValidationError("decomposition size must equal twice the edge count")
        return cls(kind=BK2, lengths=graph.log_lengths, dec=dec)

    @property
    def dim(self) -> int:
        return len(self.lengths) if self.kind == BK else 2 * len(self.lengths)

    @property
    def weights(self) -> np.ndarray:
        """Per-bond lengths: the phase velocity of T(k) channel by channel."""
        if self.kind == BK:
            return self.lengths
        return np.concatenate([self.lengths, self.lengths])

    @property
    def k_independent(self) -> bool:
        return True if self.kind == BK else self.dec.k_independent

    def s_part(self, k: complex) -> np.ndarray:
        return self.s_bk if self.kind == BK else s_matrix_bk2(self.dec, k)

    def bond_matrix(self, k: complex) -> np.ndarray:
        """Step amplitudes: U(k) = bond_matrix(k) @ diag(exp(i k w))."""
        if self.kind == BK:
            return self.s_bk
        return self.s_part(k) @ swap_matrix(len(self.lengths))

    def u_matrix(self, k: complex) -> np.ndarray:
        return self.bond_matrix(k) * np.exp(1j * k * self.weights)

    def _pole_magnitudes(self) -> np.ndarray:
        """Nonzero |sigma(L'')| entries driving the S-matrix phase velocity."""
        if self.kind == BK or self.dec.rank == 0:
            return np.zeros(0)
        lam = np.abs(self.dec.sigma_l)
        return lam[lam > LAMBDA_FLOOR]

    def s_phase_rate_bound(self, kappa: float) -> float:
        """Upper bound on |d/dk arg det S(k)| near |k| = kappa."""
        lam = self._pole_magnitudes()
        if lam.size == 0:
            return 0.0
        return float(np.sum(2.0 * lam / (lam ** 2 + kappa ** 2)))


def swap_matrix(n_edges: int) -> np.ndarray:
    """J0, which exchanges the two ends (b and b + E) of every edge."""
    j0 = np.zeros((2 * n_edges, 2 * n_edges))
    j0[:n_edges, n_edges:] = j0[n_edges:, :n_edges] = np.eye(n_edges)
    return j0


def t_matrix(kind: str, lengths, k: complex) -> np.ndarray:
    """Diagonal phase matrix exp(ik l) (first order) or its antidiagonal
    two-block arrangement J0 diag(exp(ik l), exp(ik l)) (second order)."""
    lengths = np.asarray(lengths, dtype=float)
    if kind == BK:
        return np.diag(np.exp(1j * k * lengths))
    return swap_matrix(len(lengths)) * np.exp(1j * k * np.concatenate([lengths, lengths]))


def secular(sys: SecularSystem, k: complex) -> complex:
    """det(I - S(k) T(k)); real zeros are the spectrum."""
    return complex(np.linalg.det(np.eye(sys.dim) - sys.u_matrix(k)))


def secular_bk(sys: SecularSystem, k: complex) -> complex:
    if sys.kind != BK:
        raise ValidationError("secular_bk needs a first-order system")
    return secular(sys, k)


def secular_bk2(sys: SecularSystem, k: complex) -> complex:
    if sys.kind != BK2:
        raise ValidationError("secular_bk2 needs a second-order system")
    return secular(sys, k)


# ---------------------------------------------------------------------------
# Winding-number machinery
# ---------------------------------------------------------------------------

def _principal_angles(u: np.ndarray) -> np.ndarray:
    """Eigenphases of a unitary matrix (or a stack of them) mapped to [0, 2 pi)."""
    ang = np.angle(np.linalg.eigvals(u))
    return np.mod(ang, TWO_PI)


def _unit_count(m: np.ndarray, tol: float) -> int:
    """Eigenvalues of a unitary matrix within eigenphase distance tol of 1."""
    ang = _principal_angles(m)
    dist = np.minimum(ang, TWO_PI - ang)
    return int(np.sum(dist <= tol))


class _WindingCounter:
    """Evaluates M(k) for a k-dependent secular system, lifting arg det U."""

    def __init__(self, sys: SecularSystem, k_anchor: float):
        self.sys = sys
        self.rate = float(np.sum(sys.weights))
        u = sys.u_matrix(k_anchor)
        self.evals = 1
        self._ks = [k_anchor]
        self._thetas = [float(np.angle(np.linalg.det(u)))]

    # -- lifted total phase ------------------------------------------------

    def _step_bound(self, kappa: float) -> float:
        rate = self.rate + self.sys.s_phase_rate_bound(kappa)
        return 0.5 * math.pi / rate

    def _lift_theta(self, k: float) -> float:
        idx = bisect.bisect_left(self._ks, k)
        best = None
        for j in (idx - 1, idx):
            if 0 <= j < len(self._ks):
                if best is None or abs(self._ks[j] - k) < abs(self._ks[best] - k):
                    best = j
        k_cur, theta = self._ks[best], self._thetas[best]
        det_cur = None
        while k_cur != k:
            kappa = min(abs(k_cur), abs(k)) if (k_cur * k > 0) else 0.0
            h = self._step_bound(kappa)
            remaining = k - k_cur
            # land exactly on k for the final step so the loop terminates
            k_next = k if abs(remaining) <= h else k_cur + math.copysign(h, remaining)
            if det_cur is None:
                det_cur = np.linalg.det(self.sys.u_matrix(k_cur))
                self.evals += 1
            det_next = np.linalg.det(self.sys.u_matrix(k_next))
            self.evals += 1
            theta += float(np.angle(det_next / det_cur))
            det_cur, k_cur = det_next, k_next
        pos = bisect.bisect_left(self._ks, k)
        if pos == len(self._ks) or self._ks[pos] != k:
            self._ks.insert(pos, k)
            self._thetas.insert(pos, theta)
        return theta

    # -- integer winding ----------------------------------------------------

    def m(self, k: float) -> int:
        u = self.sys.u_matrix(k)
        self.evals += 1
        ang_sum = float(np.sum(_principal_angles(u)))
        return int(round((self._lift_theta(k) - ang_sum) / TWO_PI))

    def unit_eigenvalue_count(self, k: float, tol: float = MULT_TOL) -> int:
        self.evals += 1
        return _unit_count(self.sys.u_matrix(k), tol)


class _ConstantScan:
    """M(k) and root refinement for a k-independent S-part.

    U(k) = B exp(ikw) with the bond matrix B built once, and
    arg det U(k) = arg det B + k sum(w) exactly, so M needs no lift.
    ``evals`` counts every U(k) whose eigenvalues are computed.
    """

    def __init__(self, sys: SecularSystem):
        self.bond = sys.bond_matrix(0.0)
        self.weights = sys.weights
        self.rate = float(np.sum(self.weights))
        self.theta0 = float(np.angle(np.linalg.det(self.bond)))
        self.evals = 0

    def _m(self, k, angles):
        """M from principal eigenphases; vectorised over leading axes."""
        return np.rint((self.theta0 + k * self.rate - np.sum(angles, axis=-1))
                       / TWO_PI).astype(int)

    def m_many(self, ks: np.ndarray):
        """(M(k), principal eigenphases) over ks, from one stacked eigvals call."""
        ks = np.asarray(ks, dtype=float)
        stack = self.bond * np.exp(1j * np.multiply.outer(ks, self.weights))[:, None, :]
        angles = _principal_angles(stack)
        self.evals += len(ks)
        return self._m(ks, angles), angles

    def m(self, k: float) -> int:
        return int(self.m_many([k])[0][0])

    def newton_root(self, lo: float, hi: float, mlo: int, guess: float | None,
                    tol: float) -> float:
        """The single crossing in (lo, hi], where M(hi) = M(lo) + 1 = mlo + 1.

        Each step diagonalises U(k) once: its eigenvalues give M(k), which
        shrinks the bracket, and the eigenphase theta nearest 0 gives the
        Newton step -theta / (v+ diag(w) v).  A step that leaves the bracket
        is replaced by bisection.  Once the step is below tol/4, M at
        k* -+ tol/2 must bracket the count; the root then lies within tol/2
        of k*, and k* is returned clamped into the certified bracket.
        """
        half = 0.5 * tol
        k = guess if guess is not None and lo < guess < hi else 0.5 * (lo + hi)
        for _ in range(NEWTON_BUDGET):
            vals, vecs = np.linalg.eig(self.bond * np.exp(1j * k * self.weights))
            self.evals += 1
            phase = np.angle(vals)
            if self._m(k, np.mod(phase, TWO_PI)) <= mlo:
                lo = k
            else:
                hi = k
            j = int(np.argmin(np.abs(phase)))
            step = -float(phase[j]) / float(self.weights @ np.abs(vecs[:, j]) ** 2)
            k += step
            if abs(step) <= 0.25 * tol:
                k = min(max(k, lo), hi)
                probes = [x for x in (k - half, k + half) if lo < x < hi]
                if probes:
                    for x, mx in zip(probes, self.m_many(probes)[0]):
                        if lo < x < hi:
                            lo, hi = (x, hi) if mx <= mlo else (lo, x)
                if lo >= k - half and hi <= k + half:
                    return min(max(k, lo), hi)
            mid = 0.5 * (lo + hi)
            if hi - lo <= tol or not lo < mid < hi:
                return mid
            if not lo < k < hi:
                k = mid
        raise ToleranceTooCoarse("Newton refinement budget exhausted")


# ---------------------------------------------------------------------------
# Spectrum container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Spectrum:
    """Sorted eigenvalues with multiplicities plus zero-mode bookkeeping."""

    kind: str
    eigenvalues: tuple                  # ((k_n, g_n), ...) ascending in k_n
    k_window: tuple                     # (k_lo, k_hi) actually searched
    zero_mode: tuple | None = None      # (g0, N) for the squared operator
    negative: tuple = ()                # ((kappa, mult), ...) for lambda = -kappa^2
    diagnostics: dict = field(default_factory=dict)

    @property
    def wavenumbers(self) -> np.ndarray:
        return np.array([k for k, _ in self.eigenvalues])

    @property
    def multiplicities(self) -> np.ndarray:
        return np.array([g for _, g in self.eigenvalues], dtype=int)

    @property
    def total_count(self) -> int:
        return int(np.sum(self.multiplicities)) if self.eigenvalues else 0

    def counting(self, k: float) -> int:
        lo, hi = self.k_window
        if not (lo <= k <= hi):
            raise RangeExceeded(f"k={k} outside computed window [{lo}, {hi}]")
        return int(sum(g for kn, g in self.eigenvalues if kn <= k))


def counting_function(spectrum: Spectrum, k: float) -> int:
    """Number of eigenvalues (with multiplicity) at or below k."""
    return spectrum.counting(k)


# ---------------------------------------------------------------------------
# Root search
# ---------------------------------------------------------------------------

def _refine_brackets(m_at, brackets, tol: float, newton=None,
                     max_splits: int = 200000):
    """Split count-carrying brackets (lo, hi, M(lo), M(hi), guess) into roots.

    With ``newton``, a bracket holding one crossing goes to
    ``newton(lo, hi, M(lo), guess, tol)``; every other bracket is bisected
    (M evaluated by ``m_at``) down to width tol.  Returns sorted (k, g).
    """
    roots = []
    work = list(brackets)
    splits = 0
    while work:
        lo, hi, mlo, mhi, guess = work.pop()
        if mhi == mlo:
            continue
        if newton is not None and abs(mhi - mlo) == 1:
            roots.append((newton(lo, hi, mlo, guess, tol), 1))
            continue
        if hi - lo <= tol:
            roots.append((0.5 * (lo + hi), abs(mhi - mlo)))
            continue
        splits += 1
        if splits > max_splits:
            raise ToleranceTooCoarse("bisection budget exhausted")
        mid = 0.5 * (lo + hi)
        mm = m_at(mid)
        work.append((lo, mid, mlo, mm, None))
        work.append((mid, hi, mm, mhi, None))
    return sorted(roots)


def _scan_constant(sys: SecularSystem, k_lo: float, k_hi: float, tol: float):
    """Locate all crossings in (k_lo, k_hi] for a k-independent S-part.

    The grid gives four samples per mean level spacing (step pi / (4 rate)),
    evaluated SCAN_BLOCK points per stacked eigvals call.  A step with one
    crossing is refined by Newton steps from the secant estimate of where
    the crossing eigenphase reaches 2 pi; steps with more are bisected.
    """
    scan = _ConstantScan(sys)
    step = 0.25 * math.pi / scan.rate
    n = max(1, math.ceil((k_hi - k_lo) / step))
    grid = np.minimum(k_lo + step * np.arange(n + 1), k_hi)
    grid[-1] = k_hi
    m_vals = np.empty(len(grid), dtype=int)
    top = np.empty(len(grid))       # largest principal eigenphase
    bottom = np.empty(len(grid))    # smallest principal eigenphase
    for start in range(0, len(grid), SCAN_BLOCK):
        block = slice(start, start + SCAN_BLOCK)
        m_vals[block], angles = scan.m_many(grid[block])
        top[block] = np.max(angles, axis=-1)
        bottom[block] = np.min(angles, axis=-1)

    brackets = []
    for i in np.flatnonzero(np.diff(m_vals)):
        lo, hi = float(grid[i]), float(grid[i + 1])
        gap_lo, gap_hi = TWO_PI - top[i], bottom[i + 1]
        guess = lo + (hi - lo) * float(gap_lo / (gap_lo + gap_hi))
        brackets.append((lo, hi, int(m_vals[i]), int(m_vals[i + 1]), guess))
    roots = _refine_brackets(scan.m, brackets, tol, newton=scan.newton_root)
    return roots, scan.evals


def _scan_lifted(sys: SecularSystem, k_lo: float, k_hi: float, tol: float):
    """Locate all crossings in (k_lo, k_hi] for a k-dependent S-part.

    The grid gives four samples per mean level spacing (step pi / (4 rate)
    with rate the total phase velocity bound), then count-carrying steps
    are bisected.
    """
    counter = _WindingCounter(sys, k_lo)
    grid = [k_lo]
    k = k_lo
    while k < k_hi:
        kappa = min(abs(k), abs(k_hi)) if k * k_hi > 0 else 0.0
        rate = counter.rate + sys.s_phase_rate_bound(kappa)
        k = min(k + 0.25 * math.pi / rate, k_hi)
        grid.append(k)
    m_vals = [counter.m(g) for g in grid]

    brackets = []
    suspects = []
    for i in range(len(grid) - 1):
        if m_vals[i + 1] != m_vals[i]:
            brackets.append((grid[i], grid[i + 1], m_vals[i], m_vals[i + 1], None))
        else:
            suspects.append((grid[i], grid[i + 1]))

    # net-count scanning can miss an eigenphase that dips through one full
    # turn and back inside a single step; only possible with a k-dependent
    # S-part, so re-check those steps on a finer grid when a phase was close
    # to a crossing at either end
    for lo, hi in suspects:
        motion = (counter.rate + sys.s_phase_rate_bound(min(abs(lo), abs(hi)))) \
            * (hi - lo)
        near = min(counter.unit_eigenvalue_count(x, tol=motion) for x in (lo, hi))
        if near == 0:
            continue
        sub = np.linspace(lo, hi, 9)
        sub_m = [counter.m(x) for x in sub]
        for j in range(8):
            if sub_m[j + 1] != sub_m[j]:
                brackets.append((sub[j], sub[j + 1], sub_m[j], sub_m[j + 1], None))

    roots = _refine_brackets(counter.m, brackets, tol)
    return roots, counter.evals


def find_spectrum(sys: SecularSystem, k_range, tol: float = 1e-10,
                  workers: int = 1, k_probe: float = 1.0) -> Spectrum:
    """All real eigenvalues in k_range with multiplicities.

    For the squared operator only positive wave numbers are reported
    (lambda = k^2); the zero eigenvalue is characterized separately by
    :func:`zero_mode_test` and attached as ``zero_mode``.

    With a k-independent S-part the scan grid is evaluated in stacked
    blocks, and each grid step holding one crossing is refined by Newton
    steps inside a bracket certified by M(k); steps holding several
    crossings (degenerate levels) are bisected.  A k-dependent S-part uses
    the lifted scan and bisection throughout.

    Args:
        sys: secular system.
        k_range: (k_min, k_max) search window.
        tol: certified bracket width; located roots are accurate to tol/2.
        workers: number of threads; the window is split into independent
            chunks whose results are merged in sorted order.
        k_probe: probe wave number for the zero-mode test (squared case).

    ``diagnostics["matrix_evals"]`` counts the U(k) whose eigenvalues were
    computed: grid points, Newton and bisection steps, and certificates.
    """
    k_lo, k_hi = float(k_range[0]), float(k_range[1])
    if not (k_lo < k_hi):
        raise ValidationError("need k_min < k_max")
    if tol <= 0:
        raise ValidationError("tol must be positive")

    zero_mode = None
    if sys.kind == BK2:
        zero_mode = zero_mode_test(sys, k_probe=k_probe)
        k_lo = max(k_lo, 1e-9 * max(1.0, abs(k_hi)))
        if k_lo >= k_hi:
            return Spectrum(kind=sys.kind, eigenvalues=(), k_window=(k_lo, k_hi),
                            zero_mode=zero_mode)

    scan = _scan_constant if sys.k_independent else _scan_lifted
    workers = max(1, int(workers))
    edges = np.linspace(k_lo, k_hi, workers + 1)
    chunks = list(zip(edges[:-1], edges[1:]))
    if workers == 1:
        results = [scan(sys, lo, hi, tol) for lo, hi in chunks]
    else:
        from concurrent.futures import ThreadPoolExecutor  # only the pool needs it

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda c: scan(sys, c[0], c[1], tol), chunks))

    roots: list = []
    evals = 0
    for rs, ev in results:
        roots.extend(rs)
        evals += ev
    roots.sort()

    merged = []
    for k, g in roots:
        if merged and abs(k - merged[-1][0]) <= 2 * tol:
            merged[-1] = (merged[-1][0], merged[-1][1] + g)
        else:
            merged.append((k, g))

    rate = float(np.sum(sys.weights))
    diag = {
        "scan_step": 0.25 * math.pi / rate,
        "matrix_evals": evals,
        "n_roots": len(merged),
        "bracket_tol": tol,
        "workers": workers,
    }
    return Spectrum(kind=sys.kind, eigenvalues=tuple(merged),
                    k_window=(k_lo, k_hi), zero_mode=zero_mode,
                    diagnostics=diag)


# ---------------------------------------------------------------------------
# Zero modes and negative spectrum (squared operator)
# ---------------------------------------------------------------------------

def _zero_mode_c_matrix(lengths: np.ndarray, k_probe: float) -> np.ndarray:
    """Unitary comparison matrix entering the lambda = 0 secular function."""
    z = 2j / k_probe
    diag = lengths / (z + lengths)
    off = z / (z + lengths)
    e = len(lengths)
    c = np.zeros((2 * e, 2 * e), dtype=complex)
    c[:e, :e] = np.diag(diag)
    c[e:, e:] = np.diag(diag)
    c[:e, e:] = np.diag(off)
    c[e:, :e] = np.diag(off)
    return c


def zero_mode_test(sys: SecularSystem, k_probe: float = 1.0,
                   mult_tol: float = MULT_TOL) -> tuple:
    """Multiplicity data (g0, N) of the zero eigenvalue.

    g0 is the dimension of the lambda = 0 eigenspace, read off as the
    unit-eigenvalue multiplicity of S''(k') C(k') at a nonzero probe k';
    the result is probe-independent and is asserted at a second probe.
    N is the order of the k = 0 zero of the secular function, the
    unit-eigenvalue multiplicity of S''(0) T(0).
    """
    if sys.kind != BK2:
        raise ValidationError("zero_mode_test applies to the squared operator")
    if k_probe == 0.0:
        raise ValidationError("probe wave number must be nonzero")
    counts = []
    for kp in (k_probe, k_probe * math.sqrt(2.0)):
        s = sys.s_part(kp)
        c = _zero_mode_c_matrix(sys.lengths, kp)
        counts.append(_unit_count(s @ c, mult_tol))
    if counts[0] != counts[1]:
        raise ComputeError(
            f"zero-mode multiplicity probe-dependent: {counts}; "
            "probe likely degenerate, try another k_probe"
        )
    g0 = counts[0]
    n_zero = _unit_count(sys.u_matrix(0.0), mult_tol)
    return g0, n_zero


def find_negative_eigenvalues(sys: SecularSystem, kappa_max: float,
                              n_grid: int = 2000, mult_tol: float = 1e-6):
    """Zeros of the secular function on the positive imaginary axis.

    Returns a list of (kappa, multiplicity) with eigenvalue lambda = -kappa^2,
    excluding the poles at kappa in sigma(L'').
    """
    if sys.kind != BK2:
        raise ValidationError("negative eigenvalues exist only for the squared operator")
    if kappa_max <= 0:
        raise ValidationError("kappa_max must be positive")

    def f(kappa: float) -> float:
        val = secular(sys, 1j * kappa)
        if abs(val.imag) > 1e-6 * max(1.0, abs(val.real)):
            raise ComputeError(f"secular function not real on imaginary axis: {val}")
        return val.real

    poles = sorted(lam for lam in np.real(sys.dec.sigma_l)
                   if lam > LAMBDA_FLOOR and lam < kappa_max)
    cuts = [1e-9 * max(1.0, kappa_max)]
    for p in poles:
        pad = 1e-7 * max(1.0, p)
        cuts.extend([p - pad, p + pad])
    cuts.append(kappa_max)

    roots = []
    for seg_lo, seg_hi in zip(cuts[::2], cuts[1::2]):
        if seg_hi <= seg_lo:
            continue
        grid = np.linspace(seg_lo, seg_hi, max(16, n_grid // max(1, len(cuts) // 2)))
        vals = [f(g) for g in grid]
        for i in range(len(grid) - 1):
            if vals[i] == 0.0:
                roots.append(grid[i])
            if vals[i] * vals[i + 1] < 0.0:
                lo, hi = grid[i], grid[i + 1]
                flo = vals[i]
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    fm = f(mid)
                    if fm == 0.0 or hi - lo < 1e-13 * max(1.0, mid):
                        break
                    if flo * fm < 0.0:
                        hi = mid
                    else:
                        lo, flo = mid, fm
                roots.append(0.5 * (lo + hi))

    out = []
    for kappa in roots:
        mu = np.linalg.eigvals(sys.u_matrix(1j * kappa))
        mult = int(np.sum(np.abs(mu - 1.0) <= mult_tol))
        out.append((float(kappa), max(1, mult)))
    return sorted(out)


# ---------------------------------------------------------------------------
# Weyl law
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeylFit:
    """Least-squares slope of the counting staircase against k."""

    slope: float
    intercept: float
    side: str
    expected_slope: float       # theoretical slope for the chosen counting
    rel_error_vs_weyl: float    # |slope - L/pi| / (L/pi)
    n_points: int


def weyl_fit(spectrum: Spectrum, graph: MetricGraph,
             side: str = "positive") -> WeylFit:
    """Fit N(k) ~ slope * k over the computed window.

    ``side='positive'`` counts 0 < k_n <= k; ``side='two_sided'`` counts
    |k_n| <= k (only meaningful for the first-order operator, whose
    spectrum is genuinely two-sided).  The asymptotic slope is L/pi for
    two-sided first-order counting and for positive squared-operator
    counting, and L/(2 pi) per branch of the first-order spectrum.
    """
    total = graph.total_length
    weyl_slope = total / math.pi
    if side == "positive":
        pairs = [(k, g) for k, g in spectrum.eigenvalues if k > 0]
        expected = weyl_slope if spectrum.kind == BK2 else total / TWO_PI
    elif side == "two_sided":
        if spectrum.kind == BK2:
            raise ValidationError("two_sided counting applies to the first-order operator")
        pairs = sorted((abs(k), g) for k, g in spectrum.eigenvalues)
        expected = weyl_slope
    else:
        raise ValidationError(f"unknown side {side!r}")
    if sum(g for _, g in pairs) < 20:
        raise InsufficientData("need at least 20 eigenvalues for a Weyl fit")

    ks = np.array([k for k, _ in pairs])
    ns = np.cumsum([g for _, g in pairs])
    slope, intercept = np.polyfit(ks, ns, 1)
    return WeylFit(slope=float(slope), intercept=float(intercept), side=side,
                   expected_slope=float(expected),
                   rel_error_vs_weyl=float(abs(slope - weyl_slope) / weyl_slope),
                   n_points=len(ks))
