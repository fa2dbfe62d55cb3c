"""Trace-formula verification, heat traces, and counting comparisons.

The spectral sum sum_n g_n h(k_n) of either operator equals a geometric
side: a Weyl term L hhat(0), a zero-mode boundary term (squared case), an
integral over the k-dependent part of the S-matrix trace, and a sum over
periodic orbits.  Everything here is itemized so each term can be checked
against independently computed references.

The orbit sum needs no orbit list and no cutoff.  With U(k) = B(k) E(k),
E = diag(exp(ikw)) and W = diag(w), the orbit classes of n steps give
tr(W U^n) - i tr(U^(n-1) B'E) (Kottos & Smilansky, Ann. Phys. 274, 1999;
B' = 0 for a constant S-part).  On a line Im k = eta where ||U|| < 1 the
series over n sums to the resolvent, tr[W U (I - U)^-1 - i (I - U)^-1 B'E],
and one trapezoid rule with an explicit strip bound integrates it.  No
quadrature here needs scipy.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
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
    ``gaussian_width`` t is set for both Gaussian families: h is entire
    with |h(x + iy)| <= exp(t y^2) h(x) and |hhat(y)| <= hhat(0)
    exp(-y^2 / 4t).  The orbit sums move their contour off the real axis
    and need it.
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

    return TestFunction(h=h, hat=hat, tail=tail, label=f"gaussian(t={t},k0={k0})",
                        gaussian_width=t)


# ---------------------------------------------------------------------------
# Report container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceReport:
    """Itemized two-sided trace-formula evaluation.

    ``orbit_sum`` holds every orbit class, of any length: it is the
    contour integral of the resolvent on the line Im k = ``eta``, by the
    trapezoid rule on ``n_nodes`` nodes.  ``orbit_tail_bound`` bounds its
    quadrature and truncation error (not rounding) from the closed-form
    strip bound.  ``max_steps`` is N = floor(cutoff / w_min) + 1 and
    ``n_orbits`` the exact Burnside count of the orbit classes of at most
    N steps; the cutoff sets only these two.
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
    eta: float
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
    """Orbit-length cutoff: twice the radius where a Gaussian hhat = eps."""
    return 2.0 * math.sqrt(4.0 * h.gaussian_width * math.log(1.0 / eps))


def _orbit_count(bond: np.ndarray, n_max: int) -> int:
    """Orbit classes of at most n_max steps, by Burnside's lemma.

    With A the 0/1 pattern of allowed steps, the classes of n steps number
    (1/n) sum_{j=1}^{n} tr A^gcd(j, n), grouped here by the divisor
    m = gcd(j, n) as (1/n) sum_{m | n} phi(n/m) tr A^m.  The matrix powers
    are taken in int64 while the largest row sum r has r^(N+1) below 2^63,
    else in Python ints, so the count is exact.
    """
    scale = float(np.max(np.abs(bond)))
    if scale == 0.0:
        return 0
    pattern = (np.abs(bond) > PATTERN_TOL * scale).astype(np.int64)
    if float(np.max(np.sum(pattern, axis=1))) ** (n_max + 1) >= 2.0 ** 63:
        pattern = pattern.astype(object)    # entries of A^m may leave int64
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


#: quadrature plus truncation error allowed to the contour integral of an
#: orbit sum, before its factor 1 / 2pi
ORBIT_SUM_TOL = 1e-13


def _resolvent_sum(bond, weights: np.ndarray, h: TestFunction, eta: float,
                   step: float, big_k: float, d_bond=None):
    """Re (1/2pi) int_{Im k = eta} h(k) tr[W U (I - U)^-1 - i (I - U)^-1 B'E] dk.

    U = B E with E = diag(exp(ikw)) and W = diag(w).  The trapezoid rule
    of ``step`` on |Re k| <= big_k takes one stacked solve of (I - U) X =
    [U | B'E] over its nodes.  ``bond`` is a constant B with ``d_bond``
    None (B' = 0), or a callable giving the stack B(k) over an array of k
    with ``d_bond`` giving B'(k).

    Returns:
        (value, n_nodes)
    """
    n_half = int(math.ceil(big_k / step))
    ks = step * np.arange(-n_half, n_half + 1) + 1j * eta
    phases = np.exp(1j * np.multiply.outer(ks, weights))[:, None, :]
    u = (bond(ks) if callable(bond) else bond) * phases
    d = len(weights)
    rhs = u if d_bond is None else np.concatenate([u, d_bond(ks) * phases], axis=-1)
    x = np.linalg.solve(np.eye(d) - u, rhs)
    # np.sum, not a BLAS dot, whose bits depend on the thread count
    trace = np.sum(weights * np.diagonal(x[..., :d], axis1=1, axis2=2), axis=-1)
    if d_bond is not None:
        trace = trace - 1j * np.trace(x[..., d:], axis1=1, axis2=2)
    return float(np.sum((h(ks) * trace).real)) * step / (2.0 * math.pi), ks.size


def _contour(h: TestFunction, weights: np.ndarray, norm_b: float, poles: np.ndarray):
    """Line Im k = eta, trapezoid step and half-width K of an orbit sum,
    with the bound on its error.

    On Im k = y the S-part has norm at most norm_b max(1, (lam + y)/(lam - y))
    over the poles lam > 0, and |exp(ikw)| <= exp(-y w_min), so ||U|| <=
    beta(y) = norm_b exp(-y w_min) max(1, ...), and ||B'|| <= max 2|lam| /
    (lam - y)^2.  A unitary B has norm 1 up to rounding, and norm_b is
    clipped to 1.  log beta is convex with beta(0) <= 1, so beta < 1 on
    (0, 1.9 eta] once it holds at 1.9 eta: I - U is invertible on the
    whole strip, no bound state lies below the line, and the series in U
    converges on it.  With a = 0.9 eta, both traces are at most
    G = d (w_max beta + ||B'|| exp(-y w_min)) / (1 - beta) on the strip
    [eta - a, eta + a], and |h(x + iy)| <= exp(t y^2) h(x) for a Gaussian
    of width t.  The trapezoid rule then errs by at most 2M / (exp(2 pi a /
    step) - 1), M the integral of the bound on |h| G along a line of the
    strip (Trefethen & Weideman, SIAM Rev. 56, 2014), and the nodes beyond
    K add at most 2 exp(t eta^2) G(eta) h.tail(K).  Each takes half of
    ORBIT_SUM_TOL.  Among 32 lines up to the first pole, the one with the
    fewest nodes is taken whose integral of |h| G stays below 0.1
    ORBIT_SUM_TOL / eps, which holds rounding near 1e-14.

    Returns:
        (eta, step, K, bound), the bound divided by 2pi like the sum.

    Raises:
        ConditionViolated: ||B|| > 1, or beta reaches 1 below every line.
    """
    t, tol = h.gaussian_width, ORBIT_SUM_TOL
    w_min, w_max, d = float(np.min(weights)), float(np.max(weights)), len(weights)
    if norm_b > 1.0 + 1e-12:
        raise ConditionViolated(f"||B|| = {norm_b:.6g} > 1: I - U may be singular "
                                "just above the real axis")
    top = float(np.min(poles[poles > 0.0], initial=math.inf))
    eta = 10.0 ** np.linspace(-3.0, 0.0, 32) * min(0.5 * top, math.sqrt(10.0 / t))
    y = np.multiply.outer((0.1, 1.0, 1.9), eta)        # strip bottom, line, strip top
    lam = poles[:, None, None]
    ratio = np.max(np.where(lam > 0.0, (lam + y) / (lam - y), 1.0), axis=0, initial=1.0)
    beta = min(norm_b, 1.0) * np.exp(-y * w_min) * ratio
    d_norm = np.max(2.0 * np.abs(lam) / (lam - y) ** 2, axis=0, initial=0.0)
    keep = beta[2] < 1.0
    if not np.any(keep):
        raise ConditionViolated("||U(k)|| < 1 holds on no strip above the real axis")
    eta, y, beta, d_norm = eta[keep], y[:, keep], beta[:, keep], d_norm[:, keep]
    # G on the strip: every factor peaks at one of its ends
    b_strip = np.maximum(beta[0], beta[2])
    g_strip = d * (w_max * b_strip + np.maximum(d_norm[0], d_norm[2])
                   * np.exp(-y[0] * w_min)) / (1.0 - b_strip)
    g_line = d * (w_max * beta[1] + d_norm[1] * np.exp(-eta * w_min)) / (1.0 - beta[1])
    mass = 2.0 * h.tail(0.0)                    # int |h(x)| dx over the real line
    strip = np.exp(t * y[2] ** 2) * mass * g_strip
    step = 2.0 * math.pi * 0.9 * eta / np.log1p(4.0 * strip / tol)
    line = np.exp(t * eta ** 2) * g_line
    # K on a ladder of ratio 1.05, from below the smallest K any line needs
    most, least = 0.25 * tol / float(np.min(line)), 0.25 * tol / float(np.max(line))
    big_k = [0.5]
    while h.tail(2.0 * big_k[0]) > most:
        big_k[0] *= 2.0
    tails = [h.tail(big_k[0])]
    while tails[-1] > least:
        big_k.append(1.05 * big_k[-1])
        tails.append(h.tail(big_k[-1]))
    j = np.searchsorted(-np.array(tails), -0.25 * tol / line)
    nodes = 2 * np.ceil(np.array(big_k)[j] / step) + 1
    rounding = np.maximum(np.finfo(float).eps * line * mass, 0.1 * tol)
    i = np.lexsort((nodes, rounding))[0]
    quadrature = 2.0 * strip[i] / math.expm1(2.0 * math.pi * 0.9 * eta[i] / step[i])
    truncation = 2.0 * line[i] * tails[j[i]]
    return (float(eta[i]), float(step[i]), big_k[j[i]],
            (quadrature + truncation) / (2.0 * math.pi))


def _orbit_terms(sys: SecularSystem, h: TestFunction, cutoff: float | None,
                 k_probe: float = 1.0) -> dict:
    """Orbit-sum fields of a report: the sum over every orbit class, of any
    length, as one contour integral of the resolvent (``_contour``,
    ``_resolvent_sum``).

    Summed over the orbit classes of n steps, the amplitudes times
    exp(ikl) give tr(W U^n) - i tr(U^(n-1) B'E) (Kottos & Smilansky, Ann.
    Phys. 274, 1999), analytic below the first pole.  On Im k = eta the
    series in n converges and sums to the resolvent.  ``n_orbits`` and
    ``max_steps`` describe the orbit classes of at most N = floor(cutoff /
    w_min) + 1 steps, on the pattern of the bond matrix at ``k_probe``;
    the sum does not depend on the cutoff (``_default_cutoff`` when None).

    Raises:
        ValidationError: h is not a Gaussian, so its growth off the real
            axis is unknown.
    """
    if h.gaussian_width is None:
        raise ValidationError("orbit sums need a Gaussian test function")
    if cutoff is None:
        cutoff = _default_cutoff(h)
    weights, probe = sys.weights, sys.bond_matrix(k_probe)
    n_max = int(cutoff / float(np.min(weights))) + 1
    counts = dict(n_orbits=_orbit_count(probe, n_max), max_steps=n_max)
    if sys.k_independent:
        if not np.any(probe):
            return dict(orbit_sum=0.0, orbit_tail_bound=0.0, n_nodes=0, eta=0.0, **counts)
        bond, d_bond, norm_b = probe, None, float(np.linalg.norm(probe, 2))
    else:
        bond, norm_b = sys.bond_matrix, 1.0

        def d_bond(ks):
            return _swap_halves(s_matrix_bk2_derivative(sys.dec, ks))

    eta, step, big_k, bound = _contour(h, weights, norm_b, sys.poles)
    orbit_sum, n_nodes = _resolvent_sum(bond, weights, h, eta, step, big_k, d_bond)
    return dict(orbit_sum=orbit_sum, orbit_tail_bound=bound, n_nodes=n_nodes, eta=eta,
                **counts)


def trace_rhs_bk(graph: MetricGraph, s_matrix: np.ndarray, h: TestFunction,
                 orbit_cutoff: float | None = None) -> TraceReport:
    """Geometric side for the first-order operator:

        L hhat(0) + 2 sum_orbits Re(A) hhat(l).
    """
    s_matrix = np.atleast_2d(np.asarray(s_matrix, dtype=complex))
    weights = graph.log_lengths
    if s_matrix.shape != (weights.size, weights.size):
        raise ValidationError("S-matrix size must equal the edge count")
    terms = _orbit_terms(SecularSystem.bk(s_matrix, graph), h, orbit_cutoff)
    terms["orbit_sum"] *= 2.0
    terms["orbit_tail_bound"] *= 2.0
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


@functools.lru_cache(maxsize=None)
def _gauss_legendre(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order."""
    return np.polynomial.legendre.leggauss(order)


def _gl_grid(edges: np.ndarray, order: int = 16):
    """Gauss-Legendre nodes and weights on every panel [edges[i], edges[i + 1]]."""
    nodes, weights = _gauss_legendre(order)
    halves = 0.5 * np.diff(edges)
    mids = edges[:-1] + halves
    return (mids[:, None] + halves[:, None] * nodes).ravel(), (halves[:, None] * weights).ravel()


def trace_rhs_bk2(graph: MetricGraph, dec: Decomposition, h: TestFunction,
                  orbit_cutoff: float | None = None,
                  k_probe: float = 1.0) -> TraceReport:
    """Geometric side for the squared operator:

        L hhat(0) + (g0 - N/2) h(0) - (1/4pi) int h Im tr S''(k)/k dk
        + orbit terms.

    With a k-dependent family the amplitudes carry poles at k = +-i lam,
    so orbit terms decay like exp(-lam l), not like hhat; the resolvent
    sums them all, on a line below the first pole with lam > 0.

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
    g0, n_order = zero_mode_test(sys)
    weyl = graph.total_length * float(h.hat(0.0))
    boundary = (g0 - 0.5 * n_order) * float(np.real(h(0.0)))
    s_integral = _s_trace_integral(dec, h)
    terms = _orbit_terms(sys, h, orbit_cutoff, k_probe)

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
