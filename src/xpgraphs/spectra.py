"""Secular functions, eigenvalue location with multiplicities, Weyl fits.

The spectrum of either operator on a graph is the set of real k where the
unitary family U(k) = S(k) T(k) has eigenvalue one.  We count those
crossings with an integer-valued winding function

    M(k) = (Theta(k) - sum_j theta_j(k)) / (2 pi),

where Theta is a continuous lift of arg det U and theta_j are principal
eigenphases in [0, 2 pi).  M(k2) - M(k1) equals the net number of
eigenphase crossings through 1 on (k1, k2].

The lift is known in closed form.  S''(k) has eigenvalue -1 on ker B' and
-(lam - ik)/(lam + ik) for each nonzero eigenvalue lam of L'' (a pole of
the family), so

    Theta(k) = arg det U(0) + k sum(w) - 2 sum_lam arctan(k / lam),

and a constant S-part (no poles) keeps only the first two terms.  One
scan serves both cases: the grid is evaluated in stacked blocks of U(k).

With a constant S-part every eigenphase is strictly increasing (rate
between the smallest and largest bond length), so the count is exact at
any k and the grid, two points per mean crossing spacing 2 pi / sum(w),
only seeds brackets.  A bracket holding one crossing is refined by Newton
steps on the crossing eigenphase, with its velocity from Hellmann-Feynman,
inside a bracket that M certifies at every step.  Brackets holding
several crossings (degenerate levels) are bisected.

With a k-dependent S-part the grid takes eight points per mean spacing of
sum(w) plus the phase-velocity bound of the S-matrix family, grid steps
where an eigenphase sat near 1 at both ends are re-checked on a finer
grid, and every bracket is bisected.

Refinement runs in rounds: each round takes one Newton step or one split
in every open bracket, with all iterates in stacked eig calls and all
certificate probes and midpoints in stacked eigvals calls.

The negative spectrum -kappa^2 of the squared operator has its own
integer count: N(kappa), the number of eigenvalues below -kappa^2, is the
negative index of a Hermitian boundary matrix built from L'' and the edge
Dirichlet-to-Neumann maps.  N is nonincreasing, and the same bracket
refinement bisects it, so its jumps give the roots with multiplicities.
"""

from __future__ import annotations

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

#: grid points whose U(k) go into one stacked eigvals call
SCAN_BLOCK = 64

#: Newton steps one bracket may take before refinement gives up
NEWTON_BUDGET = 100

#: scan grid points per mean crossing spacing 2 pi / sum(w) with a constant
#: S-part, where M is exact at every k and the grid only seeds brackets
GRID_DENSITY = 2

#: grid points per mean crossing spacing with a k-dependent S-part, whose
#: suspect-step re-check relies on steps this short
KDEP_GRID_DENSITY = 8


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

    def s_part(self, k) -> np.ndarray:
        """S(k); an array of k gives a stack when S depends on k."""
        return self.s_bk if self.kind == BK else s_matrix_bk2(self.dec, k)

    def bond_matrix(self, k) -> np.ndarray:
        """Step amplitudes: U(k) = bond_matrix(k) @ diag(exp(i k w)).

        In the squared case this is S''(k) J0, with J0 applied as a swap of
        the two column halves; an array of k gives the stack of shape
        k.shape + (d, d).  A constant first-order S is returned as is.
        """
        if self.kind == BK:
            return self.s_bk
        return _swap_halves(self.s_part(k))

    def u_matrix(self, k) -> np.ndarray:
        """U(k), or the stack of U(k) over an array of k."""
        phases = np.exp(1j * np.multiply.outer(k, self.weights))
        return self.bond_matrix(k) * phases[..., None, :]

    @property
    def poles(self) -> np.ndarray:
        """Nonzero eigenvalues of L'': S(k) has poles at k = +- i poles."""
        return np.zeros(0) if self.kind == BK else self.dec.poles

    def s_phase_rate_bound(self, kappa: float) -> float:
        """Upper bound on |d/dk arg det S(k)| near |k| = kappa."""
        lam = np.abs(self.poles)
        if lam.size == 0:
            return 0.0
        return float(np.sum(2.0 * lam / (lam ** 2 + kappa ** 2)))


def _swap_halves(m: np.ndarray) -> np.ndarray:
    """m J0 for a matrix or a stack: the two column halves exchanged."""
    e = m.shape[-1] // 2
    return np.concatenate([m[..., e:], m[..., :e]], axis=-1)


def _end_pair(diag, off) -> np.ndarray:
    """[[D, O], [O, D]] with D = diag(diag) and O = diag(off): a map that
    couples only the two ends (b and b + E) of each edge.  Leading axes of
    diag and off give a stack."""
    diag, off = np.broadcast_arrays(diag, off)
    e = diag.shape[-1]
    out = np.zeros(diag.shape[:-1] + (2 * e, 2 * e), dtype=np.result_type(diag, off))
    a, b = np.arange(e), np.arange(e, 2 * e)
    out[..., a, a] = out[..., b, b] = diag
    out[..., a, b] = out[..., b, a] = off
    return out


def swap_matrix(n_edges: int) -> np.ndarray:
    """J0, which exchanges the two ends (b and b + E) of every edge."""
    return _end_pair(np.zeros(n_edges), np.ones(n_edges))


def t_matrix(kind: str, lengths, k: complex) -> np.ndarray:
    """Diagonal phase matrix exp(ik l) (first order) or its antidiagonal
    two-block arrangement J0 diag(exp(ik l), exp(ik l)) (second order)."""
    lengths = np.asarray(lengths, dtype=float)
    if kind == BK:
        return np.diag(np.exp(1j * k * lengths))
    return swap_matrix(len(lengths)) * np.exp(1j * k * np.concatenate([lengths, lengths]))


def secular(sys: SecularSystem, k):
    """det(I - S(k) T(k)); real zeros are the spectrum.

    A scalar k gives a complex number, an array of k the array of values
    from one stacked det.
    """
    return np.linalg.det(np.eye(sys.dim) - sys.u_matrix(k))


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


class _Scan:
    """M(k) for one secular system, evaluated on stacks of U(k).

    U(k) = B(k) exp(ikw) with bond matrix B(k); a constant S-part builds B
    once, and a k-dependent one builds the stack of B(k) over each block of
    k in one broadcast.  ``_theta`` is the closed-form lift of arg det U(k),
    anchored at arg det B(0), so M needs no lift along the scan.  Every
    stack holds at most SCAN_BLOCK matrices.  ``evals`` counts every U(k)
    whose eigenvalues are computed.
    """

    def __init__(self, sys: SecularSystem):
        self.sys = sys
        self.weights = sys.weights
        self.rate = float(np.sum(self.weights))
        self.poles = sys.poles
        bond = sys.bond_matrix(0.0)
        self.theta0 = float(np.angle(np.linalg.det(bond)))
        self.bond = bond if self.poles.size == 0 else None
        self.evals = 0

    def _theta(self, k):
        """Continuous arg det U(k); vectorised over k."""
        return (self.theta0 + k * self.rate
                - 2.0 * np.sum(np.arctan(np.divide.outer(k, self.poles)), axis=-1))

    def _m(self, k, angles):
        """M from principal eigenphases; vectorised over leading axes."""
        return np.rint((self._theta(k) - np.sum(angles, axis=-1)) / TWO_PI).astype(int)

    def _blocks(self, ks):
        """(slice, stack of U(k)) over ks, SCAN_BLOCK points at a time."""
        self.evals += len(ks)
        for start in range(0, len(ks), SCAN_BLOCK):
            block = slice(start, start + SCAN_BLOCK)
            kb = ks[block]
            bond = self.sys.bond_matrix(kb) if self.bond is None else self.bond
            yield block, bond * np.exp(1j * np.multiply.outer(kb, self.weights))[:, None, :]

    def m_many(self, ks):
        """(M(k), principal eigenphases) over ks, from stacked eigvals calls."""
        ks = np.asarray(ks, dtype=float)
        angles = np.empty((len(ks), len(self.weights)))
        for block, stack in self._blocks(ks):
            angles[block] = _principal_angles(stack)
        return self._m(ks, angles), angles

    def newton_steps(self, ks):
        """(eigenphases in (-pi, pi], Newton step) over ks, from stacked eig calls.

        The step -theta / (v+ diag(w) v) moves the eigenphase theta nearest
        0 to 0 at its Hellmann-Feynman velocity, v its unit eigenvector.
        """
        ks = np.asarray(ks, dtype=float)
        phases = np.empty((len(ks), len(self.weights)))
        steps = np.empty(len(ks))
        for block, stack in self._blocks(ks):
            vals, vecs = np.linalg.eig(stack)
            phase = np.angle(vals)
            j = np.argmin(np.abs(phase), axis=-1)[:, None]
            v = np.take_along_axis(vecs, j[:, None, :], axis=-1)[..., 0]
            phases[block] = phase
            steps[block] = -np.take_along_axis(phase, j, axis=-1)[:, 0] \
                / (np.abs(v) ** 2 @ self.weights)
        return phases, steps


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


# ---------------------------------------------------------------------------
# Root search
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class _Newton:
    """A bracket (lo, hi] holding one crossing, M(lo) = mlo, under Newton steps."""

    lo: float
    hi: float
    mlo: int
    k: float                        # current iterate, inside (lo, hi)
    steps: int = 0
    probes: list | None = None      # certificate points of the current round


def _refine_brackets(scan, brackets, tol: float, max_splits: int = 200000):
    """Split count-carrying brackets (lo, hi, M(lo), M(hi), guess) into roots.

    Refinement runs in rounds, and each round advances every open bracket
    by one step.  With a constant S-part a bracket holding one crossing
    takes a Newton step from its guess (or midpoint): U(k) is diagonalised,
    its eigenvalues give M(k), which shrinks the bracket, and the
    eigenphase theta nearest 0 gives the step -theta / (v+ diag(w) v), with
    the velocity from Hellmann-Feynman.  A step that leaves the bracket is
    replaced by bisection.  Once a step is below tol/4, M at k* -+ tol/2
    must bracket the count; the root then lies within tol/2 of k*, and k*
    is returned clamped into the certified bracket.  Every other bracket
    (several crossings, or a k-dependent S-part) is split at its midpoint
    down to width tol, and its halves join the next round.  ``scan`` may
    also be a ``_NegativeCount``, whose ``bond`` is None: it is only split,
    and a count that falls across a bracket gives its size as the
    multiplicity.

    The Newton iterates of a round share stacked eig calls; the
    certificate probes and midpoints of a round share stacked eigvals
    calls.  Returns (sorted (k, g) list, number of rounds).
    """
    newton = scan.bond is not None
    half = 0.5 * tol
    roots: list = []
    iterates: list = []     # _Newton states for the next round
    halves: list = []       # (lo, hi, M(lo), M(hi)) to split in the next round

    def admit(lo, hi, mlo, mhi, guess):
        if mhi == mlo:
            return
        if newton and abs(mhi - mlo) == 1:
            k = guess if guess is not None and lo < guess < hi else 0.5 * (lo + hi)
            iterates.append(_Newton(lo, hi, mlo, k))
        elif hi - lo <= tol:
            roots.append((0.5 * (lo + hi), abs(mhi - mlo)))
        else:
            halves.append((lo, hi, mlo, mhi))

    for bracket in brackets:
        admit(*bracket)
    rounds = splits = 0
    while iterates or halves:
        rounds += 1
        stepping, splitting = iterates[:], halves[:]
        iterates.clear()
        halves.clear()
        splits += len(splitting)
        if splits > max_splits:
            raise ToleranceTooCoarse("bisection budget exhausted")

        probes = []
        if stepping:
            ks = np.array([it.k for it in stepping])
            phases, steps = scan.newton_steps(ks)
            m_k = scan._m(ks, np.mod(phases, TWO_PI)).tolist()
            for it, m, step in zip(stepping, m_k, steps.tolist()):
                if m <= it.mlo:
                    it.lo = it.k
                else:
                    it.hi = it.k
                it.k += step
                it.steps += 1
                if abs(step) <= 0.25 * tol:
                    it.k = min(max(it.k, it.lo), it.hi)
                    it.probes = [x for x in (it.k - half, it.k + half) if it.lo < x < it.hi]
                    probes.extend(it.probes)
        mids = [0.5 * (lo + hi) for lo, hi, _, _ in splitting]
        m_at = scan.m_many(probes + mids)[0].tolist()

        pos = 0
        for it in stepping:
            if it.probes is not None:
                for x, mx in zip(it.probes, m_at[pos:pos + len(it.probes)]):
                    if it.lo < x < it.hi:
                        if mx <= it.mlo:
                            it.lo = x
                        else:
                            it.hi = x
                pos += len(it.probes)
                it.probes = None
                if it.lo >= it.k - half and it.hi <= it.k + half:
                    roots.append((min(max(it.k, it.lo), it.hi), 1))
                    continue
            mid = 0.5 * (it.lo + it.hi)
            if it.hi - it.lo <= tol or not it.lo < mid < it.hi:
                roots.append((mid, 1))
                continue
            if not it.lo < it.k < it.hi:
                it.k = mid
            if it.steps >= NEWTON_BUDGET:
                raise ToleranceTooCoarse("Newton refinement budget exhausted")
            iterates.append(it)
        for (lo, hi, mlo, mhi), mid, mm in zip(splitting, mids, m_at[pos:]):
            admit(lo, mid, mlo, mm, None)
            admit(mid, hi, mm, mhi, None)
    return sorted(roots), rounds


def _scan_step(rate: float, density: int) -> float:
    """Grid step with ``density`` points per mean crossing spacing 2 pi / rate."""
    return TWO_PI / (density * rate)


def _scan(sys: SecularSystem, k_lo: float, k_hi: float, tol: float):
    """Locate all crossings in (k_lo, k_hi].

    With a constant S-part M is exact at every k, so the grid only seeds
    brackets: GRID_DENSITY points per mean crossing spacing 2 pi / sum(w).
    A step with one crossing is refined by Newton steps from the secant
    estimate of where the crossing eigenphase reaches 2 pi.  With a
    k-dependent S-part the grid takes KDEP_GRID_DENSITY points per mean
    spacing of sum(w) plus the S-matrix phase velocity bound, and steps
    where an eigenphase sat near 1 at both ends are re-checked on a finer
    grid.  M and the eigenphases are computed on stacks of SCAN_BLOCK grid
    points; every count-carrying step goes to ``_refine_brackets``.

    Returns:
        (sorted (k, g) list, stats) with stats the eval counts per stage
        (grid, re-check, refinement), the refinement rounds and the
        smallest grid step.
    """
    scan = _Scan(sys)
    constant = scan.bond is not None
    if constant:
        step = _scan_step(scan.rate, GRID_DENSITY)
        n = max(1, math.ceil((k_hi - k_lo) / step))
        grid = np.minimum(k_lo + step * np.arange(n + 1), k_hi)
        grid[-1] = k_hi
    else:
        points, step = [k_lo], math.inf
        while points[-1] < k_hi:
            k = points[-1]
            kappa = min(abs(k), abs(k_hi)) if k * k_hi > 0 else 0.0
            dk = _scan_step(scan.rate + sys.s_phase_rate_bound(kappa), KDEP_GRID_DENSITY)
            step = min(step, dk)
            points.append(min(k + dk, k_hi))
        grid = np.array(points)
    m_vals, angles = scan.m_many(grid)
    top = np.max(angles, axis=-1)       # largest principal eigenphase
    bottom = np.min(angles, axis=-1)    # smallest principal eigenphase
    grid_evals = scan.evals

    brackets = []
    for i in np.flatnonzero(np.diff(m_vals)):
        lo, hi = float(grid[i]), float(grid[i + 1])
        gap_lo, gap_hi = TWO_PI - top[i], bottom[i + 1]
        guess = lo + (hi - lo) * float(gap_lo / (gap_lo + gap_hi))
        brackets.append((lo, hi, int(m_vals[i]), int(m_vals[i + 1]), guess))

    if not constant:
        # net-count scanning can miss an eigenphase that dips through one
        # full turn and back inside a single step; only possible with a
        # k-dependent S-part, so re-check those steps on a finer grid when
        # an eigenphase was within the step's phase motion of 0 at both ends
        near = np.minimum(bottom, TWO_PI - top)
        subs = []
        for i in np.flatnonzero(np.diff(m_vals) == 0):
            lo, hi = float(grid[i]), float(grid[i + 1])
            motion = (scan.rate + sys.s_phase_rate_bound(min(abs(lo), abs(hi)))) \
                * (hi - lo)
            if max(near[i], near[i + 1]) <= motion:
                subs.append((i, np.linspace(lo, hi, 9)))
        if subs:
            inner = scan.m_many(np.concatenate([sub[1:-1] for _, sub in subs]))[0]
            for (i, sub), sub_inner in zip(subs, inner.reshape(len(subs), 7)):
                sub_m = np.concatenate([m_vals[i:i + 1], sub_inner, m_vals[i + 1:i + 2]])
                for j in np.flatnonzero(np.diff(sub_m)):
                    brackets.append((float(sub[j]), float(sub[j + 1]),
                                     int(sub_m[j]), int(sub_m[j + 1]), None))
    recheck_evals = scan.evals - grid_evals

    roots, rounds = _refine_brackets(scan, brackets, tol)
    return roots, {"grid_evals": grid_evals, "recheck_evals": recheck_evals,
                   "refine_evals": scan.evals - grid_evals - recheck_evals,
                   "refine_rounds": rounds, "scan_step": step}


def find_spectrum(sys: SecularSystem, k_range, tol: float = 1e-10,
                  workers: int = 1, k_probe: float = 1.0) -> Spectrum:
    """All real eigenvalues in k_range with multiplicities.

    For the squared operator only positive wave numbers are reported
    (lambda = k^2); the zero eigenvalue is characterized separately by
    :func:`zero_mode_test` and attached as ``zero_mode``.

    The scan grid is evaluated in stacked blocks, and M(k) uses the
    closed-form lift theta0 + k sum(w) - 2 sum arctan(k / lam) over the
    nonzero eigenvalues lam of L''.  With a k-independent S-part the grid
    takes two points per mean crossing spacing 2 pi / sum(w), and each
    grid step holding one crossing is refined by Newton steps inside a
    bracket certified by M(k); steps holding several crossings (degenerate
    levels) are bisected.  With a k-dependent S-part the grid takes eight
    points per mean spacing and every bracket is bisected.  Refinement
    runs in rounds that advance every bracket at once, on stacked
    eigensolves.

    Args:
        sys: secular system.
        k_range: (k_min, k_max) search window.
        tol: certified bracket width; located roots are accurate to tol/2.
        workers: number of threads; the window is split into independent
            chunks whose results are merged in sorted order.
        k_probe: probe wave number for the zero-mode test (squared case).

    ``diagnostics["matrix_evals"]`` counts the U(k) whose eigenvalues were
    computed: grid points, Newton and bisection steps, and certificates.
    It is the sum of ``grid_evals``, ``recheck_evals`` (the finer grid of
    the k-dependent re-check) and ``refine_evals``; ``refine_rounds``
    counts refinement rounds, and ``scan_step`` is the grid step used (the
    smallest one with a k-dependent S-part).
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

    workers = max(1, int(workers))
    edges = np.linspace(k_lo, k_hi, workers + 1)
    chunks = list(zip(edges[:-1], edges[1:]))
    if workers == 1:
        results = [_scan(sys, lo, hi, tol) for lo, hi in chunks]
    else:
        from concurrent.futures import ThreadPoolExecutor  # only the pool needs it

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda c: _scan(sys, c[0], c[1], tol), chunks))

    roots: list = []
    stats = dict.fromkeys(("grid_evals", "recheck_evals", "refine_evals", "refine_rounds"), 0)
    step = math.inf
    for rs, st in results:
        roots.extend(rs)
        step = min(step, st["scan_step"])
        for key in stats:
            stats[key] += st[key]
    roots.sort()

    merged = []
    for k, g in roots:
        if merged and abs(k - merged[-1][0]) <= 2 * tol:
            merged[-1] = (merged[-1][0], merged[-1][1] + g)
        else:
            merged.append((k, g))

    diag = {
        "scan_step": step,
        "matrix_evals": stats["grid_evals"] + stats["recheck_evals"] + stats["refine_evals"],
        "n_roots": len(merged),
        "bracket_tol": tol,
        "workers": workers,
        **stats,
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
    return _end_pair(lengths / (z + lengths), z / (z + lengths))


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


class _NegativeCount:
    """N(kappa), the number of eigenvalues of the squared operator below -kappa^2.

    The substitution y = ln x maps the operator onto -d^2/dy^2 on edges of
    log length l, with the boundary form -<L'' u, u> on ran B'+ and
    Dirichlet conditions on ker B'.  The Dirichlet-decoupled operator has
    no negative spectrum, so N(kappa) is the negative index of

        M(kappa) = Q+ Lambda(kappa) Q - diag(sigma),

    Q = dec.ran_vectors and sigma = dec.sigma_l, where Lambda(kappa) is the
    per-edge Dirichlet-to-Neumann map of kappa-harmonic functions,
    kappa [[coth kappa l, -csch kappa l], [-csch kappa l, coth kappa l]].
    Lambda is positive definite and increasing in kappa, so N is
    nonincreasing, at most #{sigma > 0}, and drops at each root by its
    multiplicity.  ``bond`` is None: ``_refine_brackets`` bisects N.
    """

    bond = None

    def __init__(self, sys: SecularSystem):
        self.lengths = sys.lengths
        self.q = sys.dec.ran_vectors
        self.sigma = np.diag(sys.dec.sigma_l)

    def m_many(self, kappas):
        """(N(kappa), eigenvalues of M(kappa)) over kappas > 0, from one
        stacked eigvalsh call."""
        kappa = np.asarray(kappas, dtype=float)[:, None]
        x = kappa * self.lengths
        den = -np.expm1(-2.0 * x)                  # 1 - exp(-2 kappa l)
        lam = _end_pair(kappa * (2.0 - den) / den, -2.0 * kappa * np.exp(-x) / den)
        vals = np.linalg.eigvalsh(self.q.conj().T @ lam @ self.q - self.sigma)
        # a zero mode of the operator leaves M(kappa) an eigenvalue of order
        # kappa^2 l, below rounding at small kappa: eigenvalues within the
        # eigvalsh error bound 4 r eps max|mu| of 0 count as nonnegative
        bound = 4 * len(self.sigma) * np.finfo(float).eps \
            * np.max(np.abs(vals), axis=-1, initial=0.0)
        return np.sum(vals < -bound[:, None], axis=-1), vals


def find_negative_eigenvalues(sys: SecularSystem, kappa_max: float):
    """Eigenvalues lambda = -kappa^2 of the squared operator, kappa <= kappa_max.

    Returns the sorted list of (kappa, multiplicity) over kappa in
    (kappa_lo, kappa_max], kappa_lo = 1e-9 max(1, kappa_max).  They are the
    jumps of the integer count N(kappa) of eigenvalues below -kappa^2 (see
    ``_NegativeCount``), located by ``_refine_brackets`` bisecting the one
    bracket (kappa_lo, kappa_max] down to width 1e-13 max(1, kappa_max);
    the size of a jump is the multiplicity, so roots of even order are
    found like simple ones.
    """
    if sys.kind != BK2:
        raise ValidationError("negative eigenvalues exist only for the squared operator")
    if kappa_max <= 0:
        raise ValidationError("kappa_max must be positive")
    scale = max(1.0, kappa_max)
    lo = 1e-9 * scale
    if lo >= kappa_max:
        return []
    count = _NegativeCount(sys)
    n_lo, n_hi = count.m_many([lo, kappa_max])[0].tolist()
    roots, _ = _refine_brackets(count, [(lo, kappa_max, n_lo, n_hi, None)], 1e-13 * scale)
    return roots


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
