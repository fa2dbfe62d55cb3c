"""Continuum dilation dynamics on the positive half-line.

Scaling evolution, the free kernel and Green's function of the squared
operator, Mellin wave-number amplitudes, and the Fermi-type packet whose
amplitude vanishes at the ordinates of the zeta zeros on the critical
line.  Amplitudes are entire objects here: the zeta factor is evaluated
through the accelerated alternating (eta) series and the gamma factor
through a Lanczos approximation, both adequate to ~1e-11 relative for
|k| <= AMPLITUDE_K_MAX.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .errors import ConvergenceFailure, RangeExceeded, ValidationError

SQRT_2PI = math.sqrt(2.0 * math.pi)

#: normalization of the reference packet 1/(e^x + 1)
ALPHA = 1.0 / math.sqrt(math.log(2.0) - 0.5)

#: largest |k| of the closed-form amplitude, checked against mpmath up to
#: here; the eta series overflows a double near |k| = 400
AMPLITUDE_K_MAX = 200.0

#: change of the Mellin quadrature, absolute plus relative, below which two
#: consecutive halvings of its step stop the refinement
MELLIN_TOL = 1e-10

#: most step halvings of the Mellin quadrature: its grid grows from 513 to at
#: most 131,073 points; the reference packet settles by 4,097 for |k| <= 40
MELLIN_LEVELS = 8


def fermi_packet(x):
    """Normalized reference packet alpha / (e^x + 1) on the half-line."""
    x = np.asarray(x, dtype=float)
    # exp(-x) form avoids overflow for large arguments
    ex = np.exp(-np.abs(x))
    pos = ALPHA * ex / (1.0 + ex)
    neg = ALPHA / (1.0 + ex)
    return np.where(x >= 0, pos, neg)


def generalized_eigenfunction(k: float, x):
    """Non-normalizable eigenfunction x^(-1/2 + ik) / sqrt(2 pi), x > 0."""
    x = np.asarray(x, dtype=float)
    return np.power(x, -0.5 + 1j * k) / SQRT_2PI


def evolve_bk(phi, t: float, x):
    """Scaling evolution (U(t) phi)(x) = exp(-t/2) phi(exp(-t) x)."""
    x = np.asarray(x)
    if np.any(x <= 0):
        raise ValidationError("evolution is defined for x > 0")
    return math.exp(-t / 2.0) * phi(math.exp(-t) * x)


def kernel_bk2(x, x0, t) -> complex:
    """Free propagator of the squared operator,

        (4 pi i t x x0)^(-1/2) exp(i (ln x - ln x0)^2 / 4t).

    The square root is principal, so the i contributes exp(-i pi/4) for
    real t > 0; complex t with negative imaginary part gives the damped
    (analytically continued) kernel.
    """
    t = complex(t)
    if t == 0:
        raise ValidationError("kernel undefined at t = 0")
    if x <= 0 or x0 <= 0:
        raise ValidationError("kernel defined for x, x0 > 0")
    pref = 1.0 / np.sqrt(4.0 * math.pi * 1j * t * x * x0)
    u = math.log(x) - math.log(x0)
    return complex(pref * np.exp(1j * u * u / (4.0 * t)))


def green_bk2(x, x0, k: float) -> complex:
    """Outgoing resolvent kernel i exp(ik |ln x - ln x0|) / (2k sqrt(x x0))."""
    if k == 0:
        raise ValidationError("Green's function has a pole at k = 0")
    if x <= 0 or x0 <= 0:
        raise ValidationError("Green's function defined for x, x0 > 0")
    return 1j / (2.0 * k * math.sqrt(x * x0)) * cmath.exp(
        1j * k * abs(math.log(x) - math.log(x0)))


# ---------------------------------------------------------------------------
# Mellin amplitude by quadrature
# ---------------------------------------------------------------------------

def _auto_window(phi) -> tuple:
    """Find [y_lo, y_hi] outside which e^(y/2) phi(e^y) is negligible."""
    probe = np.linspace(-5.0, 3.0, 33)
    env0 = np.max(np.abs(np.exp(probe / 2.0) * phi(np.exp(probe))))
    if env0 == 0.0:
        raise ValidationError("packet vanishes on the probe window")
    floor = 1e-18 * env0

    y = 3.0
    while y < 60.0:
        if abs(np.exp(y / 2.0) * phi(np.exp(y))) < floor:
            break
        y += 1.0
    y_hi = y + 2.0

    y = -5.0
    while y > -400.0:
        if abs(np.exp(y / 2.0) * phi(np.exp(y))) < floor:
            break
        y -= 5.0
    y_lo = y - 5.0
    return y_lo, y_hi


def mellin_amplitude(phi, k: float) -> complex:
    """Wave-number amplitude A(k) = (1/sqrt(2pi)) int_0^inf x^(-1/2-ik) phi(x) dx.

    The substitution x = e^y turns the integral into a Fourier integral of
    the smooth, exponentially decaying g(y) = e^(y/2) phi(e^y), which the
    refined trapezoid rule resolves to near machine precision for packets
    analytic in a strip, on the window of ``_auto_window``.  Refinement
    stops when two consecutive halvings move the result by less than
    MELLIN_TOL (absolute, plus relative).

    Raises:
        ConvergenceFailure: refinement budget exhausted.
    """
    y_lo, y_hi = _auto_window(phi)

    def total(n: int) -> complex:
        ys = np.linspace(y_lo, y_hi, n)
        g = np.exp(ys / 2.0) * phi(np.exp(ys)) * np.exp(-1j * k * ys)
        return complex(np.trapezoid(g, ys)) / SQRT_2PI

    n = 513
    prev = total(n)
    small_steps = 0
    for _ in range(MELLIN_LEVELS):
        n = 2 * n - 1
        cur = total(n)
        delta = abs(cur - prev)
        prev = cur
        if delta < MELLIN_TOL * max(1.0, abs(cur)):
            small_steps += 1
            if small_steps >= 2:
                return cur
        else:
            small_steps = 0
    raise ConvergenceFailure(
        f"Mellin quadrature did not reach tol={MELLIN_TOL} within {MELLIN_LEVELS} refinements"
    )


def reconstruct_from_amplitude(amplitude, x: float, k_max: float = 40.0,
                               n: int = 8001) -> complex:
    """Rebuild phi(x) = (1/sqrt(2 pi x)) int A(k) exp(ik ln x) dk."""
    ks = np.linspace(-k_max, k_max, n)
    a = np.asarray(amplitude(ks), dtype=complex)
    integrand = a * np.exp(1j * ks * math.log(x))
    return complex(np.trapezoid(integrand, ks)) / math.sqrt(2.0 * math.pi * x)


# ---------------------------------------------------------------------------
# Zeta and gamma on the critical line
# ---------------------------------------------------------------------------

@functools.cache
def _eta_weights(n_terms: int) -> tuple:
    """Weights (c_j, d) of the n-term Cohen-Villegas-Zagier eta series,
    eta(s) ~ sum_j c_j (j + 1)^(-s) / d.  Cached per term count; the range
    guard of ``zeta_critical`` admits at most 191 of them."""
    d = (3.0 + math.sqrt(8.0)) ** n_terms
    d = (d + 1.0 / d) / 2.0
    b = -1.0
    c = -d
    weights = np.empty(n_terms)
    for j in range(n_terms):
        c = b - c
        weights[j] = c
        b *= (j + n_terms) * (j - n_terms) / ((j + 0.5) * (j + 1.0))
    weights.flags.writeable = False
    return weights, d


def _eta_alternating(s: np.ndarray, n_terms: np.ndarray) -> np.ndarray:
    """Accelerated alternating series for eta(s[i]) with n_terms[i] terms.

    Term j is evaluated only where j < n_terms[i], so each point sums
    exactly its own terms, in order, whatever else is in the batch.
    Memory stays linear in len(s).
    """
    if s.size == 0:
        return np.zeros(0, dtype=complex)
    n_lo, n_hi = int(n_terms.min()), int(n_terms.max())
    # weights[j, m]: term j of the series with n_lo + m terms, 0 beyond it
    weights = np.zeros((n_hi, n_hi - n_lo + 1))
    d = np.empty(n_hi - n_lo + 1)
    for m in range(n_lo, n_hi + 1):
        weights[:m, m - n_lo], d[m - n_lo] = _eta_weights(m)
    col = n_terms - n_lo
    total = np.zeros(s.shape, dtype=complex)
    term = np.zeros(s.shape, dtype=complex)
    for j in range(n_hi):
        np.exp(-s * math.log(j + 1), out=term, where=n_terms > j)
        total += weights[j, col] * term
    return total / d[col]


def _elementwise(dtype):
    """Decorate a function of a 1-d array so that it takes any array of
    ``dtype`` and returns the same shape, and a Python complex for a scalar.

    A scalar is a 0-d array here: it takes the same array arithmetic as a
    batch, so its value does not depend on how it is called.
    """
    def wrap(fn):
        @functools.wraps(fn)
        def call(x):
            x = np.asarray(x, dtype=dtype)
            out = fn(x.ravel()).reshape(x.shape)
            return complex(out) if out.ndim == 0 else out
        return call
    return wrap


@_elementwise(complex)
def zeta_critical(s):
    """zeta(s) = eta(s) / (1 - 2^(1-s)), accurate near the critical line.

    Takes a scalar or an array; a scalar is a 0-d array and returns a
    Python complex.  Term count grows with |Im s| to offset the
    exp(pi |Im s| / 2) loss of the acceleration; adequate to ~1e-11
    relative for |Im s| <= 200 and Re s >= 0.  Raises RangeExceeded if
    any |Im s| > AMPLITUDE_K_MAX, where the series loses that accuracy and
    its weights soon overflow, any Re s < 0, where the terms (j+1)^-s grow
    and the result is wrong (-3.86 at s = -10.5, where zeta is 0.0111), or
    any s is not a number.
    """
    in_range = (np.abs(s.imag) <= AMPLITUDE_K_MAX) & (s.real >= 0.0)
    if not np.all(in_range):
        bad = complex(s[np.argmin(in_range)])
        raise RangeExceeded(
            f"zeta needs |Im s| <= {AMPLITUDE_K_MAX} and Re s >= 0, got s = {bad}")
    n_terms = 25 + np.ceil(0.95 * np.abs(s.imag)).astype(int)
    denom = 1.0 - np.exp((1.0 - s) * math.log(2.0))
    if np.any(np.abs(denom) < 1e-14):
        raise ValidationError("zeta evaluation at a pole of the eta quotient")
    return _eta_alternating(s, n_terms) / denom


_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


@_elementwise(complex)
def gamma_complex(z):
    """Gamma function by the Lanczos approximation (reflection for Re z < 1/2).

    Takes a scalar or an array; a scalar is a 0-d array and returns a
    Python complex.  Raises ValidationError if any z is a pole (a
    non-positive integer).
    """
    if np.any((z.imag == 0.0) & (z.real <= 0.0) & (z.real == np.floor(z.real))):
        raise ValidationError("gamma evaluation at a pole (a non-positive integer)")
    reflect = z.real < 0.5
    # Lanczos at z, or at 1 - z for the reflected points
    w = np.where(reflect, 1.0 - z, z) - 1.0
    x = _LANCZOS_COEF[0]
    for i, coef in enumerate(_LANCZOS_COEF[1:], start=1):
        x += coef / (w + i)
    t = w + _LANCZOS_G + 0.5
    out = SQRT_2PI * t ** (w + 0.5) * np.exp(-t) * x
    out[reflect] = math.pi / (np.sin(math.pi * z[reflect]) * out[reflect])
    return out


@_elementwise(float)
def fermi_amplitude_closed(k):
    """Closed-form amplitude of the reference packet:

        A(k) = (alpha / sqrt(2 pi)) (1 - sqrt(2) 2^(ik))
               Gamma(1/2 - ik) zeta(1/2 - ik).

    Vanishes exactly at the ordinates of the critical-line zeta zeros.
    Takes a scalar or an array of k; a scalar is a 0-d array and returns a
    Python complex.  Raises RangeExceeded if any |k| > AMPLITUDE_K_MAX (or
    k is not a number).
    """
    in_range = np.abs(k) <= AMPLITUDE_K_MAX
    if not np.all(in_range):
        bad = float(k[np.argmin(in_range)])
        raise RangeExceeded(f"amplitude needs |k| <= {AMPLITUDE_K_MAX}, got k = {bad}")
    s = 0.5 - 1j * k
    pref = ALPHA / SQRT_2PI * (1.0 - math.sqrt(2.0) * np.exp(1j * k * math.log(2.0)))
    return pref * gamma_complex(s) * zeta_critical(s)
