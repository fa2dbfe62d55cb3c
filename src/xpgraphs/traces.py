"""Trace-formula verification, heat traces, and counting comparisons.

The spectral sum sum_n g_n h(k_n) of either operator equals a geometric
side: a Weyl term L hhat(0), a zero-mode boundary term (squared case), an
integral over the k-dependent part of the S-matrix trace, and a sum over
periodic orbits.  Everything here is itemized so each term can be checked
against independently computed references.
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
from .extensions import BK2, Decomposition
from .graph import MetricGraph, enumerate_orbits, orbit_amplitude
from .spectra import SecularSystem, Spectrum, swap_matrix, zero_mode_test

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
    """Itemized two-sided trace-formula evaluation."""

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


def _orbit_tail_bound(h: TestFunction, pattern: np.ndarray, weights: np.ndarray,
                      cutoff: float) -> float:
    """Bound on the dropped orbit terms: walks longer than the cutoff.

    The number of closed walks of n steps is at most d g^(n-1) with g the
    maximum out-degree, each amplitude at most (max entry)^n times the
    orbit length; super-exponential decay of hhat makes the series finite.
    """
    scale = float(np.max(np.abs(pattern)))
    if scale == 0.0:
        return 0.0
    d = pattern.shape[0]
    out_deg = max(int(np.sum(np.abs(pattern[:, j]) > 0)) for j in range(d))
    w_min, w_max = float(np.min(weights)), float(np.max(weights))
    n_cut = int(cutoff / w_min) + 1
    bound = 0.0
    for n in range(n_cut, n_cut + 400):
        term = d * (out_deg * max(scale, 1.0)) ** n * (n * w_max) * abs(float(h.hat(n * w_min)))
        bound += term
        if term < 1e-30 and n > n_cut + 4:
            break
    return 2.0 * bound


def trace_rhs_bk(graph: MetricGraph, s_matrix: np.ndarray, h: TestFunction,
                 orbit_cutoff: float | None = None) -> TraceReport:
    """Geometric side for the first-order operator:

        L hhat(0) + 2 sum_orbits Re(A) hhat(l).
    """
    s_matrix = np.atleast_2d(np.asarray(s_matrix, dtype=complex))
    if orbit_cutoff is None:
        orbit_cutoff = _default_cutoff(h)
    weights = graph.log_lengths
    orbits = enumerate_orbits(s_matrix, weights, orbit_cutoff)
    orbit_sum = 0.0
    for orb in orbits:
        orbit_sum += 2.0 * float(np.real(orbit_amplitude(orb, s_matrix))) \
            * float(h.hat(orb.length))
    weyl = graph.total_length * float(h.hat(0.0))
    tail = _orbit_tail_bound(h, s_matrix, weights, orbit_cutoff)
    rhs = weyl + orbit_sum
    return TraceReport(lhs=math.nan, lhs_tail_bound=math.nan, weyl_term=weyl,
                       boundary_term=0.0, s_matrix_integral=0.0,
                       orbit_sum=orbit_sum, orbit_tail_bound=tail,
                       rhs_total=rhs, discrepancy=math.nan,
                       n_orbits=len(orbits), label=h.label)


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
    eigenvalues of L'', an even smooth function of k; adaptive quadrature
    resolves the Lorentzian peaks of small eigenvalues.
    """
    from scipy.integrate import quad

    lam = dec.poles
    if lam.size == 0:
        return 0.0

    def integrand(k):
        return float(np.real(h(k))) * float(np.sum(2.0 * lam / (lam ** 2 + k ** 2)))

    big_k = 1.0
    while big_k < 1e6 and abs(float(h(big_k))) * float(np.sum(2.0 / np.abs(lam))) > 1e-16:
        big_k *= 1.5
    value, _ = quad(integrand, 0.0, big_k, limit=400, epsabs=1e-14, epsrel=1e-12)
    return -2.0 * value / (4.0 * math.pi)


def _gl_grid(a: float, b: float, panel: float, order: int = 16):
    """Nodes and weights of composite Gauss-Legendre quadrature on [a, b]."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    n_panels = max(1, int(math.ceil((b - a) / panel)))
    edges = np.linspace(a, b, n_panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * np.diff(edges)
    xs = (mids[:, None] + halves[:, None] * nodes[None, :]).ravel()
    ws = (halves[:, None] * weights[None, :]).ravel()
    return xs, ws


def _orbit_terms_kdep(sys: SecularSystem, h: TestFunction, k_probe: float,
                      cutoff_start: float, eps: float = 1e-11):
    """Adaptive orbit sum for a k-dependent S-matrix family.

    Each orbit class contributes Re[(1/2pi) int h(k) A(k) exp(ik l) dk]
    with the k-resolved amplitude

        A(k) = l_p a_p(k)^r - i a_p(k)^(r-1) a_p'(k),

    a_p the product of bond-matrix entries over the primitive cycle: the
    derivative term is what the walk products of a k-dependent S-matrix
    generate alongside the plain length factor.  Amplitude poles at
    k = +-i lam make orbit contributions decay only geometrically in
    orbit length, so shells of increasing length are added until the last
    two fall below ``eps``; the tail is bounded by the measured shell
    ratio.

    Returns:
        (orbit_sum, tail_bound, n_orbits, cutoff_used)
    """
    from .extensions import s_matrix_bk2_derivative

    pattern0 = np.abs(sys.bond_matrix(k_probe)) > 0
    pattern1 = np.abs(sys.bond_matrix(2.0 * k_probe)) > 0
    if not np.array_equal(pattern0, pattern1):
        raise ComputeError("k-dependent S-matrix with varying nonzero pattern "
                           "is outside the supported orbit machinery")

    if h.gaussian_width is not None:
        big_k = math.sqrt(math.log(1e16) / h.gaussian_width)
    else:
        big_k = 30.0

    j0 = swap_matrix(len(sys.lengths))
    weights = sys.weights
    cutoff = cutoff_start
    shells: dict = {}
    for _ in range(12):
        orbits = enumerate_orbits(sys.bond_matrix(k_probe), weights, cutoff)
        if not orbits:
            return 0.0, 0.0, 0, cutoff
        l_max = max(o.length for o in orbits)
        xs, ws = _gl_grid(-big_k, big_k, panel=min(0.5, math.pi / (2.0 * l_max)))
        sig = np.array([sys.s_part(k) @ j0 for k in xs])
        dsig = np.array([s_matrix_bk2_derivative(sys.dec, k) @ j0 for k in xs])
        h_vals = np.real(h(xs))

        shells = {}
        for orb in orbits:
            p = orb.n_steps // orb.repetition
            prim = orb.bonds[:p]
            a_p = np.ones(len(xs), dtype=complex)
            log_deriv = np.zeros(len(xs), dtype=complex)
            for i in range(p):
                cur, nxt = prim[i], prim[(i + 1) % p]
                entry = sig[:, nxt, cur]
                a_p *= entry
                log_deriv += dsig[:, nxt, cur] / entry
            r = orb.repetition
            amp = orb.primitive_length * a_p ** r \
                - 1j * a_p ** (r - 1) * (a_p * log_deriv)
            integrand = h_vals * amp * np.exp(1j * xs * orb.length)
            value = float(np.real(np.dot(ws, integrand))) / (2.0 * math.pi)
            key = round(orb.length, 9)
            shells[key] = shells.get(key, 0.0) + value

        lengths = sorted(shells)
        mags = [abs(shells[l]) for l in lengths]
        if len(mags) >= 2 and mags[-1] < eps and mags[-2] < eps:
            ratio = min(mags[-1] / max(mags[-2], 1e-300), 0.9)
            tail = mags[-1] * ratio / (1.0 - ratio)
            return float(sum(shells.values())), tail, len(orbits), cutoff
        cutoff *= 1.5
    return float(sum(shells.values())), mags[-1], len(orbits), cutoff


def _orbit_terms_bk2(sys: SecularSystem, orbits, h: TestFunction,
                     k_probe: float) -> float:
    """Orbit sum with a constant S-matrix: Re(A) hhat(l) per orbit."""
    sigma = sys.bond_matrix(k_probe)
    return sum(float(np.real(orbit_amplitude(orb, sigma))) * float(h.hat(orb.length))
               for orb in orbits)


def trace_rhs_bk2(graph: MetricGraph, dec: Decomposition, h: TestFunction,
                  orbit_cutoff: float | None = None,
                  k_probe: float = 1.0) -> TraceReport:
    """Geometric side for the squared operator:

        L hhat(0) + (g0 - N/2) h(0) - (1/4pi) int h Im tr S''(k)/k dk
        + orbit terms.

    With a k-dependent family the amplitudes carry poles at k = +-i lam,
    so orbit contributions decay like exp(-lam l) rather than at the
    Gaussian rate of hhat; the cutoff is widened accordingly and the tail
    is bounded by the geometric decay of the last computed length shell.

    Raises:
        ConditionViolated: the shortest edge is not longer than l(sigma)
            for a genuinely k-dependent family.
    """
    sys = SecularSystem.bk2(dec, graph)
    weights = sys.weights
    if not sys.k_independent:
        _, l_sigma = length_condition(dec, graph)
        if float(np.min(graph.log_lengths)) <= l_sigma:
            raise ConditionViolated(
                f"need min edge length > {l_sigma:.6f} for this extension"
            )
    if orbit_cutoff is None:
        orbit_cutoff = _default_cutoff(h)

    g0, n_order = zero_mode_test(sys, k_probe=k_probe)
    weyl = graph.total_length * float(h.hat(0.0))
    boundary = (g0 - 0.5 * n_order) * float(np.real(h(0.0)))
    s_integral = _s_trace_integral(dec, h)
    if sys.k_independent:
        sigma_probe = sys.bond_matrix(k_probe)
        orbits = enumerate_orbits(sigma_probe, weights, orbit_cutoff)
        orbit_sum = _orbit_terms_bk2(sys, orbits, h, k_probe)
        tail = _orbit_tail_bound(h, sigma_probe, weights, orbit_cutoff)
        n_orbits = len(orbits)
    else:
        orbit_sum, tail, n_orbits, orbit_cutoff = _orbit_terms_kdep(
            sys, h, k_probe, cutoff_start=orbit_cutoff)

    rhs = weyl + boundary + s_integral + orbit_sum
    return TraceReport(lhs=math.nan, lhs_tail_bound=math.nan, weyl_term=weyl,
                       boundary_term=boundary, s_matrix_integral=s_integral,
                       orbit_sum=orbit_sum, orbit_tail_bound=tail,
                       rhs_total=rhs, discrepancy=math.nan,
                       n_orbits=n_orbits, label=h.label)


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
