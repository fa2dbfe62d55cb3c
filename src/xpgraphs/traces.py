"""Trace-formula verification, heat traces, and counting comparisons.

The spectral sum sum_n g_n h(k_n) of either operator equals a geometric
side: a Weyl term L hhat(0), a zero-mode boundary term (squared case), an
integral over the k-dependent part of the S-matrix trace, and a sum over
periodic orbits.  Everything here is itemized so each term can be checked
against independently computed references.

The orbit sum comes from traces of powers of U(k) = B(k) diag(exp(ikw)),
with no orbit list: summed over the orbit classes of n steps, the
amplitudes times exp(ikl) give tr(W U(k)^n) - i tr(U(k)^(n-1) B'(k) E(k)),
W = diag(w), E = diag(exp(ikw)) (Kottos & Smilansky, Ann. Phys. 274,
1999); B' = 0 for a constant S-part.  No quadrature here needs scipy.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ComputeError,
    ConditionViolated,
    TailBoundExceeded,
    ValidationError,
)
from .extensions import BK2, Decomposition, s_matrix_bk2_derivative
from .graph import PATTERN_TOL, MetricGraph
from .spectra import SecularSystem, Spectrum, _swap_halves, zero_mode_test

# ---------------------------------------------------------------------------
# Test functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunction:
    """Even analytic test function with its Fourier transform.

    ``hat`` uses the convention hhat(y) = (1/2pi) int h(k) exp(iky) dk.
    ``tail`` bounds int_K^inf |h(k)| dk for the spectral-sum remainder.
    ``gaussian_width`` is set for the pure Gaussian family, unlocking
    closed-form cutoff choices.
    """

    h: callable
    hat: callable
    tail: callable
    label: str
    gaussian_width: float | None = None

    def __call__(self, k):
        return self.h(k)


def gaussian(t: float) -> TestFunction:
    """h(k) = exp(-k^2 t); hhat(y) = exp(-y^2/4t) / (2 sqrt(pi t))."""
    if t <= 0:
        raise ValidationError("gaussian width t must be positive")

    def h(k):
        return np.exp(-(np.asarray(k) ** 2) * t)

    def hat(y):
        y = np.asarray(y)
        return np.exp(-(y ** 2) / (4.0 * t)) / (2.0 * math.sqrt(math.pi * t))

    def tail(big_k):
        return 0.5 * math.sqrt(math.pi / t) * math.erfc(big_k * math.sqrt(t))

    return TestFunction(h=h, hat=hat, tail=tail, label=f"gaussian(t={t})",
                        gaussian_width=t)


def gaussian_shifted(t: float, k0: float) -> TestFunction:
    """Symmetric pair of shifted Gaussians centred at +-k0 (still even)."""
    if t <= 0:
        raise ValidationError("gaussian width t must be positive")

    def h(k):
        k = np.asarray(k)
        return 0.5 * (np.exp(-((k - k0) ** 2) * t) + np.exp(-((k + k0) ** 2) * t))

    def hat(y):
        y = np.asarray(y)
        return np.cos(k0 * y) * np.exp(-(y ** 2) / (4.0 * t)) / (2.0 * math.sqrt(math.pi * t))

    def tail(big_k):
        # both humps bounded by the wider centred Gaussian envelope
        shift = max(big_k - abs(k0), 0.0)
        return 0.5 * math.sqrt(math.pi / t) * math.erfc(shift * math.sqrt(t))

    return TestFunction(h=h, hat=hat, tail=tail, label=f"gaussian(t={t},k0={k0})")


def tabulated(h_callable, k_max: float = 60.0, n: int = 6001,
              label: str = "tabulated") -> TestFunction:
    """Wrap a user-supplied even h; the transform is computed by quadrature."""
    ks = np.linspace(0.0, k_max, n)
    hs = np.asarray(h_callable(ks), dtype=float)

    def h(k):
        return h_callable(k)

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

    return TestFunction(h=h, hat=hat, tail=tail, label=label)


# ---------------------------------------------------------------------------
# Report container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceReport:
    """Itemized two-sided trace-formula evaluation.

    ``orbit_sum`` holds every orbit class of at most ``max_steps`` = N
    steps, N = floor(cutoff / w_min) + 1 for a constant S-part and the N
    at which doubling it stopped changing the sum for a k-dependent one;
    ``n_orbits`` counts those classes exactly, by Burnside's lemma.
    ``n_nodes`` counts the trapezoid nodes of the (last) evaluation.
    """

    lhs: float
    lhs_tail_bound: float
    weyl_term: float
    boundary_term: float
    s_matrix_integral: float
    orbit_sum: float
    orbit_tail_bound: float
    rhs_total: float
    discrepancy: float
    n_orbits: int
    max_steps: int
    n_nodes: int
    label: str = ""

    def with_lhs(self, lhs: float, lhs_tail_bound: float) -> "TraceReport":
        return dataclasses.replace(
            self, lhs=lhs, lhs_tail_bound=lhs_tail_bound,
            discrepancy=abs(lhs - self.rhs_total))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


# ---------------------------------------------------------------------------
# Spectral side
# ---------------------------------------------------------------------------

def trace_lhs(spectrum: Spectrum, h: TestFunction, total_length: float,
              include_zero_mode: bool = True, include_imaginary: bool = False,
              tail_budget: float | None = None):
    """Spectral sum sum_n g_n h(k_n) with an explicit truncation bound.

    The first-order operator sums over its two-sided real spectrum.  The
    squared operator sums over nonnegative wave numbers; the k = 0 term
    enters with the zero-mode multiplicity g0.  Negative eigenvalues are
    omitted by default: the trace identity is an identity on the real
    axis, where bound states are already encoded in the S-matrix integral
    and the amplitude derivative terms of the geometric side.  Passing
    ``include_imaginary=True`` adds h(i kappa) terms anyway, for
    diagnostics.  The tail bound uses the Weyl density L/pi with a safety
    factor of two.

    Returns:
        (value, tail_bound)

    Raises:
        TailBoundExceeded: bound above ``tail_budget`` (when given).
    """
    value = 0.0
    for k, g in spectrum.eigenvalues:
        value += g * float(np.real(h(k)))
    density = total_length / math.pi
    lo, hi = spectrum.k_window
    if spectrum.kind == BK2:
        if include_zero_mode and spectrum.zero_mode is not None:
            value += spectrum.zero_mode[0] * float(np.real(h(0.0)))
        if include_imaginary:
            for kappa, g in spectrum.negative:
                value += g * float(np.real(h(1j * kappa)))
        tail = 2.0 * density * h.tail(hi)
    else:
        tail = density * (h.tail(abs(hi)) + h.tail(abs(lo)))
    if tail_budget is not None and tail > tail_budget:
        raise TailBoundExceeded(f"spectral tail bound {tail:.3e} > {tail_budget:.3e}")
    return value, tail


# ---------------------------------------------------------------------------
# Geometric side, first-order operator
# ---------------------------------------------------------------------------

def _default_cutoff(h: TestFunction, eps: float = 1e-10) -> float:
    """Orbit-length cutoff; for Gaussians twice the radius where hhat = eps."""
    if h.gaussian_width is not None:
        return 2.0 * math.sqrt(4.0 * h.gaussian_width * math.log(1.0 / eps))
    # generic fallback: scan hhat outward until it stays below eps
    y = 1.0
    while y < 1e4 and abs(float(h.hat(y))) > eps:
        y *= 1.25
    return 2.0 * y


def _power_grid(h: TestFunction, weights: np.ndarray, n_max: int, reach: float):
    """Trapezoid step and half-width K of a power-trace sum of N steps.

    Step 2 pi / (N w_max + reach) maps a walk of length l <= N w_max onto
    aliases l + m (N w_max + reach), at least ``reach`` from the origin for
    m != 0.  K is where a Gaussian h falls to 1e-16, or ``h.tail`` does.
    """
    step = 2.0 * math.pi / (n_max * float(np.max(weights)) + reach)
    if h.gaussian_width is not None:
        big_k = math.sqrt(math.log(1e16) / h.gaussian_width)
    else:
        big_k = 1.0
        while big_k < 1e3 and h.tail(big_k) > 1e-17:
            big_k *= 1.25
    return step, big_k


def _orbit_tail_bound(h: TestFunction, bond: np.ndarray, weights: np.ndarray,
                      cutoff: float, grid) -> float:
    """Bound on the error of the power-trace orbit sum on ``grid``.

    Walks of more than N steps are dropped.  Those of n steps add at most
    d n w_max (g max|B|)^n hhat(n w_min), from d g^(n-1) closed walks (g the
    maximum out-degree) of amplitude (max entry)^n; for Gaussian h, shifting
    the contour to Im k = n w_min / 2t gives tr(W) ||B||_2^n hhat(n w_min),
    and the smaller bound is taken.  hhat decays super-exponentially.

    The quadrature adds two errors per step count n, both scaled by
    |tr(W U(k)^n)| <= tr(W) ||B||_2^n on the real axis: the nodes beyond K
    by h.tail(K) / pi, and the aliases by 2 sum_{m>=0} |hhat(cutoff + m P)|
    with P = N w_max + cutoff (for Gaussian h by shifting the contour).
    """
    scale = float(np.max(np.abs(bond)))
    if scale == 0.0:
        return 0.0
    n_cut, step, big_k = grid
    d = bond.shape[0]
    out_deg = max(int(np.sum(np.abs(bond[:, j]) > 0)) for j in range(d))
    w_min, w_max = float(np.min(weights)), float(np.max(weights))
    trace_w = float(np.sum(weights))
    norm = max(float(np.linalg.norm(bond, 2)), 1.0)
    bound = 0.0
    for n in range(n_cut, n_cut + 400):
        hat = abs(float(h.hat(n * w_min)))
        term = _times_power(d * n * w_max * hat, out_deg * max(scale, 1.0), n)
        if h.gaussian_width is not None:
            term = min(term, _times_power(trace_w * hat, norm, n))
        bound += term
        if term < 1e-30 and n > n_cut + 4:
            break

    period = 2.0 * math.pi / step
    alias = 0.0
    for m in range(64):
        term = abs(float(h.hat(cutoff + m * period)))
        alias += 2.0 * term
        if term < 1e-300:
            break
    quadrature = trace_w * n_cut * (h.tail(big_k) / math.pi + alias)
    bound += _times_power(quadrature, norm, n_cut)
    return 2.0 * bound


def _times_power(factor: float, ratio: float, n: int) -> float:
    """factor * ratio^n for ratio >= 1, inf where it leaves the float range."""
    if factor == 0.0:
        return 0.0
    exponent = math.log(factor) + n * math.log(ratio)
    return math.exp(exponent) if exponent < 709.0 else math.inf


def _orbit_count(bond: np.ndarray, n_max: int) -> int:
    """Orbit classes of at most n_max steps, by Burnside's lemma.

    With A the 0/1 pattern of allowed steps, the classes of n steps number
    (1/n) sum_{j=1}^{n} tr A^gcd(j, n), grouped here by the divisor
    m = gcd(j, n) as (1/n) sum_{m | n} phi(n/m) tr A^m.  The matrix powers
    are taken in Python ints, so the count is exact.
    """
    scale = float(np.max(np.abs(bond)))
    if scale == 0.0:
        return 0
    pattern = (np.abs(bond) > PATTERN_TOL * scale).astype(int).astype(object)
    traces_a = [0]
    power = pattern
    for _ in range(n_max):
        traces_a.append(int(power.trace()))
        power = power @ pattern
    phi = list(range(n_max + 1))        # Euler's totient, by a sieve
    for p in range(2, n_max + 1):
        if phi[p] == p:
            for n in range(p, n_max + 1, p):
                phi[n] -= phi[n] // p
    fixed = [0] * (n_max + 1)
    for m in range(1, n_max + 1):
        for n in range(m, n_max + 1, m):
            fixed[n] += phi[n // m] * traces_a[m]
    return sum(fixed[n] // n for n in range(1, n_max + 1))


def _power_sum(bond, weights: np.ndarray, h: TestFunction, n_max: int,
               step: float, big_k: float, d_bond=None):
    """Orbit sum of every orbit class of at most N = n_max steps.

    Summed over the classes of n steps, the amplitude
    A(k) = l_p a_p^r - i a_p^(r-1) a_p' times exp(ikl) is
    tr(W U^n) - i tr(U^(n-1) B'E), with U = BE, E = diag(exp(ikw)),
    W = diag(w) and a_p the product of bond-matrix entries over the
    primitive cycle: the rotations of a class start on each bond of that
    cycle once, and the second term is -i d/dk of the walk products.  The
    orbit sum Re sum_{n<=N} (1/2pi) int h [...] dk is a trapezoid rule of
    ``step`` on |k| <= K over one stack of U.  S_N = U + ... + U^N comes
    from binary doubling over the bits of N, S_(2m) = S_m + U^m S_m and
    S_(m+1) = S_m + U^(m+1), in at most 3 log2 N stacked products; the
    derivative terms add up to -i tr((I + S_N - U^N) B'E).

    ``bond`` is a constant B with ``d_bond`` None, or a callable giving the
    stack B(k) over an array of k with ``d_bond`` giving B'(k).

    Returns:
        (orbit_sum, n_nodes)
    """
    n_half = int(math.ceil(big_k / step))
    ks = step * np.arange(-n_half, n_half + 1)
    phases = np.exp(1j * np.multiply.outer(ks, weights))[:, None, :]
    u = (bond(ks) if callable(bond) else bond) * phases
    power, powers = u, u                # U^m and U + ... + U^m at every node, m = 1
    for bit in bin(n_max)[3:]:
        powers = powers + power @ powers
        power = power @ power
        if bit == "1":
            power = power @ u
            powers = powers + power
    h_vals = np.real(h(ks))
    # np.sum, not a BLAS dot, whose bits depend on the thread count
    total = float(np.sum(h_vals[:, None] * weights * np.diagonal(powers, axis1=1, axis2=2).real))
    if d_bond is not None:
        lead = powers - power + np.eye(len(weights))    # I + U + ... + U^(N-1)
        # tr(X Y) as the sum of X * Y^T; Re(-i z) = Im z
        deriv = np.sum(lead * np.swapaxes(d_bond(ks) * phases, 1, 2), axis=(1, 2))
        total += float(np.sum(h_vals * deriv.imag))
    return total * step / (2.0 * math.pi), ks.size


def _power_trace_terms(bond: np.ndarray, weights: np.ndarray, h: TestFunction,
                       cutoff: float) -> dict:
    """Orbit-sum fields of a report for a constant bond matrix B.

    N = floor(cutoff / w_min) + 1 steps hold every orbit up to the cutoff,
    and the trapezoid aliases of the walks lie beyond the cutoff.
    """
    n_max = int(cutoff / float(np.min(weights))) + 1
    grid = (n_max, *_power_grid(h, weights, n_max, cutoff))
    orbit_sum, n_nodes = _power_sum(bond, weights, h, *grid)
    tail = _orbit_tail_bound(h, bond, weights, cutoff, grid)
    return dict(orbit_sum=orbit_sum, orbit_tail_bound=tail,
                n_orbits=_orbit_count(bond, n_max), max_steps=n_max, n_nodes=n_nodes)


def trace_rhs_bk(graph: MetricGraph, s_matrix: np.ndarray, h: TestFunction,
                 orbit_cutoff: float | None = None) -> TraceReport:
    """Geometric side for the first-order operator:

        L hhat(0) + 2 sum_orbits Re(A) hhat(l).
    """
    s_matrix = np.atleast_2d(np.asarray(s_matrix, dtype=complex))
    weights = graph.log_lengths
    if s_matrix.shape != (weights.size, weights.size):
        raise ValidationError("S-matrix size must equal the edge count")
    if orbit_cutoff is None:
        orbit_cutoff = _default_cutoff(h)
    terms = _power_trace_terms(s_matrix, weights, h, orbit_cutoff)
    terms["orbit_sum"] *= 2.0
    weyl = graph.total_length * float(h.hat(0.0))
    rhs = weyl + terms["orbit_sum"]
    return TraceReport(lhs=math.nan, lhs_tail_bound=math.nan, weyl_term=weyl,
                       boundary_term=0.0, s_matrix_integral=0.0, rhs_total=rhs,
                       discrepancy=math.nan, label=h.label, **terms)


# ---------------------------------------------------------------------------
# Geometric side, squared operator
# ---------------------------------------------------------------------------

def length_condition(dec: Decomposition, graph: MetricGraph):
    """Minimum of l(kappa) = ln(2E)/kappa + (2/kappa) artanh(kappa/lam+).

    Returns (sigma, l_sigma); when L'' has no positive eigenvalue the
    condition is vacuous and (inf, 0.0) is returned.
    """
    positives = dec.poles[dec.poles > 0.0]
    if positives.size == 0:
        return math.inf, 0.0
    lam_plus = float(np.min(positives))
    dim = dec.dim
    log_dim = math.log(dim)

    def ell(kappa: float) -> float:
        return log_dim / kappa + 2.0 / kappa * math.atanh(kappa / lam_plus)

    # golden-section search on the open interval (0, lam_plus)
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 1e-9 * lam_plus, (1.0 - 1e-12) * lam_plus
    c = hi - gr * (hi - lo)
    d = lo + gr * (hi - lo)
    fc, fd = ell(c), ell(d)
    for _ in range(200):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - gr * (hi - lo)
            fc = ell(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + gr * (hi - lo)
            fd = ell(d)
        if hi - lo < 1e-13 * lam_plus:
            break
    sigma = 0.5 * (lo + hi)
    return sigma, ell(sigma)


def _s_trace_integral(dec: Decomposition, h: TestFunction) -> float:
    """-(1/4pi) int h(k) Im tr S''(k) / k dk, extended continuously to 0.

    Im tr S''(k)/k equals sum_j 2 lam_j / (lam_j^2 + k^2) over the nonzero
    eigenvalues of L'', an even smooth function of k.  16-point
    Gauss-Legendre panels (``_gl_grid``) on [0, K] resolve its Lorentzian peaks by
    grading: [0, lam_min / 2], then panels of doubling width, each at
    least its own width from the poles +-i lam.
    """
    lam = dec.poles
    if lam.size == 0:
        return 0.0
    big_k = 1.0
    while big_k < 1e6 and abs(float(h(big_k))) * float(np.sum(2.0 / np.abs(lam))) > 1e-16:
        big_k *= 1.5
    edges = [0.0, min(0.5 * float(np.min(np.abs(lam))), big_k)]
    while edges[-1] < big_k:
        edges.append(min(2.0 * edges[-1], big_k))
    xs, ws = _gl_grid(np.array(edges))
    lorentz = np.sum(2.0 * lam / (lam ** 2 + xs[:, None] ** 2), axis=1)
    # np.sum, not a BLAS dot, whose bits depend on the thread count
    value = float(np.sum(ws * np.real(h(xs)) * lorentz))
    return -2.0 * value / (4.0 * math.pi)


def _gl_grid(edges: np.ndarray, order: int = 16):
    """Gauss-Legendre nodes and weights on every panel [edges[i], edges[i + 1]]."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    halves = 0.5 * np.diff(edges)
    mids = edges[:-1] + halves
    return (mids[:, None] + halves[:, None] * nodes).ravel(), (halves[:, None] * weights).ravel()


#: doublings of the step count allowed to a k-dependent orbit sum
MAX_DOUBLINGS = 7
#: most matrix entries (nodes x d^2) in one stack of a k-dependent orbit sum
KDEP_STACK_LIMIT = 2 ** 22


def _power_trace_terms_kdep(sys: SecularSystem, h: TestFunction, cutoff: float,
                            k_probe: float, eps: float = 1e-11) -> dict:
    """Orbit-sum fields of a report for a k-dependent S-matrix family.

    ``_power_sum`` takes the stacks of S''(k) J0 and its k-derivative.
    Amplitude poles at k = +-i lam make the step-n terms decay only
    geometrically, so N starts at floor(cutoff / w_min) + 1 and doubles,
    at most ``MAX_DOUBLINGS`` times, until two successive sums differ by
    less than ``eps``; partial sums, unlike single terms, skip the exact
    zeros at odd n on a single edge.  The last difference is the tail
    bound: measured, not certified.

    Near the poles the alias of a walk decays like exp(-lam_min distance),
    not like hhat, so the period is N w_max + reach, reach at least
    max(cutoff, ln(1e16) / lam_min).  A pole -mu in the lower half plane
    lets the aliases of n-step walks grow like ((mu + kappa) / (mu -
    kappa))^n exp(-kappa distance), contour shifted down by kappa = mu / 2,
    so reach also covers (2 / mu) (N ln 3 + ln 1e16).

    Raises:
        ComputeError: the nonzero pattern of the bond matrix varies with k,
            or a pole near the real axis needs a grid beyond
            ``KDEP_STACK_LIMIT``.
    """
    bond = sys.bond_matrix(k_probe)
    if not np.array_equal(np.abs(bond) > 0, np.abs(sys.bond_matrix(2.0 * k_probe)) > 0):
        raise ComputeError("k-dependent S-matrix with varying nonzero pattern "
                           "is outside the supported orbit machinery")

    def d_bond(ks):
        return _swap_halves(s_matrix_bk2_derivative(sys.dec, ks))

    lam, log_eps = sys.poles, math.log(1e16)
    mu = float(np.min(-lam[lam < 0.0], initial=math.inf))

    def orbit_sum(n):
        reach = max(cutoff, log_eps / float(np.min(np.abs(lam))),
                    2.0 / mu * (n * math.log(3.0) + log_eps))
        step, big_k = _power_grid(h, sys.weights, n, reach)
        if 2.0 * big_k / step * sys.dim ** 2 > KDEP_STACK_LIMIT:
            raise ComputeError(f"the k-dependent orbit sum of {n} steps needs "
                               f"{2.0 * big_k / step:.3g} quadrature nodes")
        return _power_sum(sys.bond_matrix, sys.weights, h, n, step, big_k, d_bond)

    n_max = int(cutoff / float(np.min(sys.weights))) + 1
    (value, n_nodes), change = orbit_sum(n_max), math.inf
    for _ in range(MAX_DOUBLINGS):
        if change < eps:
            break
        n_max *= 2
        previous, (value, n_nodes) = value, orbit_sum(n_max)
        change = abs(value - previous)
    return dict(orbit_sum=value, orbit_tail_bound=change,
                n_orbits=_orbit_count(bond, n_max), max_steps=n_max, n_nodes=n_nodes)


def trace_rhs_bk2(graph: MetricGraph, dec: Decomposition, h: TestFunction,
                  orbit_cutoff: float | None = None,
                  k_probe: float = 1.0) -> TraceReport:
    """Geometric side for the squared operator:

        L hhat(0) + (g0 - N/2) h(0) - (1/4pi) int h Im tr S''(k)/k dk
        + orbit terms.

    With a k-dependent family the amplitudes carry poles at k = +-i lam,
    so orbit terms decay like exp(-lam l), not like hhat: the step count
    grows until the sum settles, and its tail is the last change measured.

    Raises:
        ConditionViolated: the shortest edge is not longer than l(sigma)
            for a genuinely k-dependent family.
    """
    sys = SecularSystem.bk2(dec, graph)
    if not sys.k_independent:
        _, l_sigma = length_condition(dec, graph)
        if float(np.min(graph.log_lengths)) <= l_sigma:
            raise ConditionViolated(f"need min edge length > {l_sigma:.6f} "
                                    "for this extension")
    if orbit_cutoff is None:
        orbit_cutoff = _default_cutoff(h)

    g0, n_order = zero_mode_test(sys, k_probe=k_probe)
    weyl = graph.total_length * float(h.hat(0.0))
    boundary = (g0 - 0.5 * n_order) * float(np.real(h(0.0)))
    s_integral = _s_trace_integral(dec, h)
    if sys.k_independent:
        terms = _power_trace_terms(sys.bond_matrix(k_probe), sys.weights, h, orbit_cutoff)
    else:
        terms = _power_trace_terms_kdep(sys, h, orbit_cutoff, k_probe)

    rhs = weyl + boundary + s_integral + terms["orbit_sum"]
    return TraceReport(lhs=math.nan, lhs_tail_bound=math.nan, weyl_term=weyl,
                       boundary_term=boundary, s_matrix_integral=s_integral,
                       rhs_total=rhs, discrepancy=math.nan, label=h.label, **terms)


# ---------------------------------------------------------------------------
# Heat trace on a single Dirichlet edge
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeatTracePair:
    spectral: float
    theta: float
    spectral_tail: float
    theta_tail: float

    @property
    def difference(self) -> float:
        return abs(self.spectral - self.theta)


def heat_trace_pair(graph: MetricGraph, t: float) -> HeatTracePair:
    """Two evaluations of tr exp(-t H) for the single-edge Dirichlet system.

    The spectral side sums exp(-(pi n / l)^2 t) over the exact wave
    numbers; the theta side is the modular rewrite

        l/(2 sqrt(pi t)) - 1/2 + sum_{n>=1} (l_p / (2 sqrt(pi t)))
            exp(-(n l_p)^2 / 4t),      l_p = 2 l.

    Both truncations carry explicit geometric remainder bounds.
    """
    if t <= 0:
        raise ValidationError("t must be positive")
    if graph.n_edges != 1:
        raise ValidationError("heat_trace_pair is defined on a single edge")
    ell = graph.total_length

    # spectral side
    base = (math.pi / ell) ** 2 * t
    n_max = int(math.ceil(math.sqrt(80.0 / base))) + 1
    ns = np.arange(1, n_max + 1)
    spectral = float(np.sum(np.exp(-base * ns ** 2)))
    r = math.exp(-base * (2 * n_max + 1))
    spectral_tail = math.exp(-base * (n_max + 1) ** 2) / max(1.0 - r, 0.5)

    # theta side
    lp = 2.0 * ell
    pref = lp / (2.0 * math.sqrt(math.pi * t))
    base2 = lp ** 2 / (4.0 * t)
    m_max = int(math.ceil(math.sqrt(80.0 / base2))) + 1
    ms = np.arange(1, m_max + 1)
    theta = ell / (2.0 * math.sqrt(math.pi * t)) - 0.5 \
        + float(pref * np.sum(np.exp(-base2 * ms ** 2)))
    r2 = math.exp(-base2 * (2 * m_max + 1))
    theta_tail = pref * math.exp(-base2 * (m_max + 1) ** 2) / max(1.0 - r2, 0.5)

    return HeatTracePair(spectral=spectral, theta=theta,
                         spectral_tail=spectral_tail, theta_tail=theta_tail)


# ---------------------------------------------------------------------------
# Counting comparisons
# ---------------------------------------------------------------------------

def riemann_counting(energy: float) -> float:
    """Smooth counting of zeta zeros: (E/2pi) ln(E/2pi) - E/2pi + 7/8."""
    if energy <= 0:
        raise ValidationError("energy must be positive")
    x = energy / (2.0 * math.pi)
    return x * math.log(x) - x + 0.875


def semiclassical_counts(energy: float):
    """Phase-space counting estimates for both operators at hbar = 1.

    Returns (first-order, squared): E/(2pi) (ln(E/2pi) - 1) + 1 and
    2 [ (k/2pi) ln(k/2pi) - k/2pi + 7/8 ] with k = sqrt(E).
    """
    if energy <= 0:
        raise ValidationError("energy must be positive")
    x = energy / (2.0 * math.pi)
    first = x * (math.log(x) - 1.0) + 1.0
    k = math.sqrt(energy)
    second = 2.0 * riemann_counting(k) if k > 0 else math.nan
    return first, second


def ebk_levels(log_length: float, mu: float, n_max: int, kind: str):
    """Torus/hard-wall quantization levels (2pi/l or pi/l times n + mu/4).

    Kinds: ``ring_bk`` (energies of the first-order ring), ``ring_bk2``
    (wave numbers of the squared ring), ``hard_wall`` (wave numbers with
    reflecting ends).
    """
    if n_max < 0:
        raise ValidationError("n_max must be nonnegative")
    ns = np.arange(0, n_max + 1)
    if kind in ("ring_bk", "ring_bk2"):
        return (2.0 * math.pi / log_length) * (ns + mu / 4.0)
    if kind == "hard_wall":
        return (math.pi / log_length) * (ns + mu / 4.0)
    raise ValidationError(f"unknown EBK kind {kind!r}")


def counting_comparison(spectrum: Spectrum, graph: MetricGraph,
                        k_start: float = 50.0, side: str = "positive",
                        n_samples: int = 25):
    """Ratio N_graph(k) / N_riemann(k) on a grid in the computed window.

    Samples are spaced at least ten mean level spacings apart so staircase
    fluctuations do not mask the systematic k ln k divergence.

    Returns:
        (rows, monotone) where rows are (k, n_graph, n_riemann, ratio).
    """
    if side == "two_sided":
        pairs = sorted((abs(k), g) for k, g in spectrum.eigenvalues)
    else:
        pairs = [(k, g) for k, g in spectrum.eigenvalues if k > 0]
    ks = np.array([k for k, _ in pairs])
    cum = np.cumsum([g for _, g in pairs])
    k_hi = spectrum.k_window[1]
    if k_start >= k_hi:
        raise ValidationError("computed window does not reach k_start")
    min_step = 10.0 * math.pi / graph.total_length
    n = max(2, min(n_samples, int((k_hi - k_start) / min_step)))
    grid = np.linspace(k_start, k_hi, n)
    rows = []
    for k in grid:
        n_graph = int(cum[np.searchsorted(ks, k, side="right") - 1]) if np.any(ks <= k) else 0
        n_riem = riemann_counting(k)
        rows.append((float(k), n_graph, n_riem, n_graph / n_riem))
    ratios = [r[3] for r in rows]
    monotone = all(b < a for a, b in zip(ratios, ratios[1:]))
    return rows, monotone
