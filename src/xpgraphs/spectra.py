"""Secular functions, eigenvalue location with multiplicities, Weyl fits.

The spectrum of either operator on a graph is the set of real k where the
unitary family U(k) = S(k) T(k) has eigenvalue one.  Roots are the jumps
of an integer count that is exact at every k, located by brackets that
the count certifies.

For the first-order operator (constant S) the count is the winding
function

    M(k) = (arg det S + k sum(w) - sum_j theta_j(k)) / (2 pi),

theta_j the principal eigenphases of U(k) in [0, 2 pi).  Every eigenphase
increases with k (rate between the smallest and largest bond length), so
M(k2) - M(k1) is the number of crossings of 1 on (k1, k2].

For the squared operator, whatever its S-part, the count is N(k), the
number of eigenvalues below k^2, from Friedlander's Dirichlet-to-Neumann
index identity (Arch. Ration. Mech. Anal. 116, 1991; Behrndt & Luger,
J. Phys. A 43, 474006, 2010):

    N(k) = sum_e floor(k l_e / pi) + n_-(Q+ Lambda(k) Q - diag(sigma)),

Q and sigma the eigenvectors and eigenvalues of L'' on ran B'+, Lambda(k)
the per-edge Dirichlet-to-Neumann map k [[cot kl, -csc kl],
[-csc kl, cot kl]].  It comes from one eigvalsh of a Hermitian matrix in
which the end-pair eigenvalue d = k cot(delta / 2), delta = kl - n pi,
of Lambda that diverges at a Dirichlet point k l_e in pi Z sits in a
border, so the count holds next to those points too (``_PositiveCount``).
Only the BORDER_SLOTS edges of smallest |delta| at a point are bordered;
the d of the others, at most 8k, stay in the rank block, and a point
whose fifth-smallest |delta| is below SLOT_DELTA_MIN takes the full
border.  Each Dirichlet point p is its own bracket (p - tol/2, p + tol/2]:
a jump of N across it is a root at p.  The zero eigenvalue is
characterized by ``zero_mode_test`` from the nullity of
M(0) = Q+ Lambda(0) Q - diag(sigma), and the negative spectrum -kappa^2
by the same kind of count with kappa-harmonic maps (``_NegativeCount``).

A grid of two points per mean crossing spacing 2 pi / sum(w) only seeds
brackets.  Every bracket is refined by Newton steps (on the eigenphase of
U(k), or on the eigenvalue of the Hermitian matrix, nearest 0, with the
eigenvector of the slope from one step of shifted inverse iteration,
``_nearest_vector``) inside a bracket that the count certifies at every
step; a degenerate level is certified with its multiplicity like a
simple one.  Refinement runs in rounds: each round takes one Newton step
in every open bracket, with all iterates in one stacked eigensolve and
all certificate probes in another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
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

#: scan grid points per mean crossing spacing 2 pi / sum(w); every count is
#: exact at every k, so the grid only seeds brackets
GRID_DENSITY = 2

#: edges per point that get a border row in the squared-operator count
BORDER_SLOTS = 4

#: a point whose fifth-smallest |delta_e| lies below this takes the full
#: border; above it every unbordered |k cot(delta_e / 2)| is at most 8k
SLOT_DELTA_MIN = 2.0 * math.atan(1.0 / 8.0)

#: shift of the inverse-iteration step that gives a Newton eigenvector,
#: relative to the largest eigenvalue modulus of its matrix
NEWTON_SHIFT = 1e-12


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
# Integer counts
# ---------------------------------------------------------------------------

def _principal_angles(u: np.ndarray) -> np.ndarray:
    """Eigenphases of a unitary matrix (or a stack of them) mapped to [0, 2 pi)."""
    ang = np.angle(np.linalg.eigvals(u))
    return np.mod(ang, TWO_PI)


def _unit_count(m: np.ndarray, tol: float) -> int:
    """Eigenvalues of a unitary matrix within eigenphase distance tol of 1.

    m is normal, so the singular values of I - m are |1 - exp(i theta_j)|
    = 2 |sin(theta_j / 2)| over its eigenphases theta_j.
    """
    sv = np.linalg.svd(np.eye(len(m)) - m, compute_uv=False)
    return int(np.sum(sv <= 2.0 * math.sin(0.5 * tol)))


def _window_floor(k_max: float) -> float:
    """Lower end of a squared-operator search window reaching k_max:
    1e-9 max(1, |k_max|), below which a zero mode is not told from rounding."""
    return 1e-9 * max(1.0, abs(k_max))


@lru_cache(maxsize=None)
def _iteration_start(n: int) -> tuple:
    """(identity, fixed start vector) of size n for ``_nearest_vector``.  The
    start vector b_i = sin(i) has no integer linear relation (e^i is
    transcendental), so it is orthogonal to no integer-pattern eigenvector,
    such as (1, -1, -1, 1), of a symmetric graph."""
    return np.eye(n), np.sin(np.arange(1.0, n + 1.0))


def _nearest_vector(mats: np.ndarray, vals: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Unit eigenvectors for the eigenvalues vals[i, j[i]] of a stack of
    normal matrices, from one stacked step of shifted inverse iteration
    (Ipsen, SIAM Rev. 39, 1997): x = (M - (mu_j + eps) I)^-1 b.

    eps = NEWTON_SHIFT max|mu| leaves the shifted matrix nonsingular and
    damps the other eigenvectors by eps / |mu_i - mu_j|; a zero matrix
    takes eps = NEWTON_SHIFT 1e-100, so every row stays finite.
    """
    eye, start = _iteration_start(mats.shape[-1])
    top = np.maximum(abs(vals).max(axis=-1), 1e-100)
    shift = vals[np.arange(len(vals)), j] + NEWTON_SHIFT * top
    x = np.linalg.solve(mats - shift[:, None, None] * eye, start)
    return x / np.sqrt((abs(x) ** 2).sum(axis=-1, keepdims=True))


def _rounding_bound(vals: np.ndarray) -> np.ndarray:
    """eigvalsh error bound 4 n eps max|mu| per row of a stack of eigenvalues
    (last axis kept): an eigenvalue this close to 0 is not told from 0."""
    return 4 * vals.shape[-1] * np.finfo(float).eps \
        * np.max(np.abs(vals), axis=-1, initial=0.0, keepdims=True)


class _Scan:
    """M(k) for a constant S-part, evaluated on stacks of U(k).

    U(k) = B exp(ikw) with the constant bond matrix B, and arg det U(k) =
    arg det B + k sum(w), so M needs no lift along the scan.  Every stack
    holds at most SCAN_BLOCK matrices.  ``evals`` counts every U(k) whose
    eigenvalues are computed.
    """

    newton = True

    def __init__(self, sys: SecularSystem):
        self.weights = sys.weights
        self.rate = float(np.sum(self.weights))
        self.grid_step = _scan_step(self.rate)
        self.bond = sys.bond_matrix(0.0)
        self.theta0 = float(np.angle(np.linalg.det(self.bond)))
        self.evals = 0

    def _m(self, k, angles):
        """M from principal eigenphases; vectorised over leading axes."""
        return np.rint((self.theta0 + k * self.rate - np.sum(angles, axis=-1))
                       / TWO_PI).astype(int)

    def _blocks(self, ks):
        """(slice, stack of U(k)) over ks, SCAN_BLOCK points at a time."""
        self.evals += len(ks)
        for start in range(0, len(ks), SCAN_BLOCK):
            block = slice(start, start + SCAN_BLOCK)
            yield block, self.bond * np.exp(1j * np.multiply.outer(ks[block], self.weights))[:, None, :]

    def m_many(self, ks):
        """(M(k), principal eigenphases) over ks, from stacked eigvals calls."""
        ks = np.asarray(ks, dtype=float)
        angles = np.empty((len(ks), len(self.weights)))
        for block, stack in self._blocks(ks):
            angles[block] = _principal_angles(stack)
        return self._m(ks, angles), angles

    @staticmethod
    def gaps(angles):
        """(ahead, behind) per point: the eigenphase distance 2 pi - max theta_j
        to the next crossing of 1 and min theta_j past the last one."""
        return TWO_PI - np.max(angles, axis=-1), np.min(angles, axis=-1)

    def newton_steps(self, ks):
        """(M(k), Newton step) over ks, from stacked eigvals calls.

        The step -theta / (v+ diag(w) v) moves the eigenphase theta nearest
        0 to 0 at its Hellmann-Feynman velocity, v its unit eigenvector from
        ``_nearest_vector``.
        """
        ks = np.asarray(ks, dtype=float)
        phases = np.empty((len(ks), len(self.weights)))
        steps = np.empty(len(ks))
        for block, stack in self._blocks(ks):
            vals = np.linalg.eigvals(stack)
            phase = np.angle(vals)
            j = np.argmin(np.abs(phase), axis=-1)
            v = _nearest_vector(stack, vals, j)
            phases[block] = phase
            steps[block] = -phase[np.arange(len(j)), j] / (np.abs(v) ** 2 @ self.weights)
        return self._m(ks, np.mod(phases, TWO_PI)), steps


class _HermitianCount:
    """What the two counts of the squared operator share: Q = dec.ran_vectors
    (real when its entries are), sigma = dec.sigma_l, the edge log lengths,
    and the negative index of a stack of Hermitian boundary matrices.

    The substitution y = ln x maps the operator onto -d^2/dy^2 on edges of
    log length l, with the boundary form -<L'' u, u> on ran B'+ and
    Dirichlet conditions on ker B'.  Restricted to solutions of
    -u'' = lambda u, the quadratic form of the operator minus lambda is
    <(Q+ Lambda Q - diag(sigma)) f, f> on the boundary values f, Lambda the
    per-edge Dirichlet-to-Neumann map at lambda.  ``evals`` counts the
    matrices diagonalised.
    """

    newton = True

    def __init__(self, sys: SecularSystem):
        q = sys.dec.ran_vectors
        self.q = q if np.any(q.imag) else q.real
        self.sigma = sys.dec.sigma_l
        self.lengths = sys.lengths
        self.evals = 0

    @staticmethod
    def _index(vals: np.ndarray) -> np.ndarray:
        """Negative index per row of a stack of ascending eigenvalues.

        A zero mode of the operator leaves the matrix an eigenvalue of order
        k^2 l, below rounding at small k: eigenvalues within the eigvalsh
        error bound 4 n eps max|mu| of 0 count as nonnegative.
        """
        return np.sum(vals < -_rounding_bound(vals), axis=-1)

    def _eigvalsh_count(self, mats):
        """(negative index, ascending eigenvalues) of a stack of Hermitian
        matrices, from one eigvalsh call."""
        self.evals += len(mats)
        vals = np.linalg.eigvalsh(mats)
        return self._index(vals), vals


class _NegativeCount(_HermitianCount):
    """N(kappa), the number of eigenvalues of the squared operator below -kappa^2.

    The Dirichlet-decoupled operator has no negative spectrum, so N(kappa)
    is the negative index of M(kappa) = Q+ Lambda(kappa) Q - diag(sigma),
    where Lambda(kappa) = kappa [[coth kappa l, -csch kappa l],
    [-csch kappa l, coth kappa l]] maps kappa-harmonic functions.  Lambda
    is positive definite and increasing in kappa, so N is nonincreasing,
    at most #{sigma > 0}, and drops at each root by its multiplicity.
    """

    def _maps(self, kappas):
        """kappa l, coth kappa l and csch kappa l per point and edge."""
        x = np.multiply.outer(np.asarray(kappas, dtype=float), self.lengths)
        den = -np.expm1(-2.0 * x)                  # 1 - exp(-2 kappa l)
        return x, (2.0 - den) / den, 2.0 * np.exp(-x) / den

    def _matrices(self, kappas, coth, csch):
        kappa = np.asarray(kappas, dtype=float)[:, None]
        lam = _end_pair(kappa * coth, -kappa * csch)
        return self.q.conj().T @ lam @ self.q - np.diag(self.sigma)

    def m_many(self, kappas):
        """(N(kappa), eigenvalues of M(kappa)) over kappas > 0, from one
        stacked eigvalsh call."""
        _, coth, csch = self._maps(kappas)
        return self._eigvalsh_count(self._matrices(kappas, coth, csch))

    def newton_steps(self, kappas):
        """(N(kappa), Newton step) over kappas, from one stacked eigh call.

        The step -mu / (v+ Q+ Lambda'(kappa) Q v) moves the eigenvalue mu of
        M(kappa) nearest 0 to 0, v its unit eigenvector.  Per edge Lambda'
        has the entries coth - kappa l csch^2 and -csch + kappa l csch coth.
        """
        x, coth, csch = self._maps(kappas)
        self.evals += len(x)
        vals, vecs = np.linalg.eigh(self._matrices(kappas, coth, csch))
        rows = np.arange(len(vals))
        j = np.argmin(np.abs(vals), axis=-1)
        u = vecs[rows, :, j] @ self.q.T
        ua, ub = np.split(u, 2, axis=-1)
        slope = np.sum((coth - x * csch ** 2) * (np.abs(ua) ** 2 + np.abs(ub) ** 2)
                       + 2.0 * (x * csch * coth - csch) * (ua.conj() * ub).real, axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            return self._index(vals), -vals[rows, j] / slope


class _PositiveCount(_HermitianCount):
    """N(k), the number of eigenvalues of the squared operator below k^2, k > 0.

    Friedlander's Dirichlet-to-Neumann index identity (Arch. Ration. Mech.
    Anal. 116, 1991) gives

        N(k) = sum_e floor(k l_e / pi) + n_-(Q+ Lambda(k) Q - diag(sigma))

    off the Dirichlet points k l_e in pi Z, with Lambda(k) =
    k [[cot kl, -csc kl], [-csc kl, cot kl]].  sigma does not depend on k,
    so the count is exact for every S-part.  Per edge, with n = rint(kl / pi)
    and the reduced argument delta = kl - n pi in [-pi/2, pi/2], Lambda has
    the eigenvalue t = -k tan(delta / 2) on p_S = (e_a + (-1)^n e_b) / sqrt 2
    and d = k cot(delta / 2) = -k^2 / t on p_L = (e_a - (-1)^n e_b) / sqrt 2,
    which diverges at the Dirichlet points.  The d of the bordered edges B
    go into a border (Haynsworth inertia), those of the other edges U into
    the rank block: with X_S, X_L the rows p_S+ Q, p_L+ Q,

        H(k) = [[X_S+ diag(t) X_S + X_LU+ diag(d_U) X_LU - diag(sigma), k X_LB+],
                [k X_LB, diag(t_B)]]

    has the Schur complement Q+ Lambda Q - diag(sigma) over diag(t_B), whose
    negative index is #{e in B : delta_e > 0}.  As floor(kl / pi) is
    n - 1 + [delta > 0],

        N(k) = sum_e (n_e - 1) + #{e in U : delta_e > 0} + n_-(H(k)).

    B holds every edge when E <= BORDER_SLOTS.  Otherwise it holds the
    BORDER_SLOTS edges of smallest |delta| at each point, unless the next
    |delta| is below SLOT_DELTA_MIN, where the point takes the full border.
    Every |d_U| is then at most 8k, so the entries of H stay below about
    8k + max|sigma|, and the count holds at and next to a pole, where the
    plain matrix has entries of order k / delta.  At a Dirichlet point
    itself it counts the eigenvalues below k^2 only.
    """

    def __init__(self, sys: SecularSystem):
        super().__init__(sys)
        e, rank = len(self.lengths), self.q.shape[1]
        # N(k) = sum_e floor(kl / pi) at rank 0: no roots between Dirichlet points
        self.grid_step = _scan_step(float(np.sum(sys.weights))) if rank else math.inf
        self.rank = rank
        qa, qb = self.q[:e] / math.sqrt(2.0), self.q[e:] / math.sqrt(2.0)
        self.qa, self.qb = qa, qb
        # X_S+ diag(t) X_S = sum_e t_e (even_e + (-1)^n_e odd_e), flattened
        self.even = (qa.conj()[:, :, None] * qa[:, None, :]
                     + qb.conj()[:, :, None] * qb[:, None, :]).reshape(e, rank * rank)
        self.odd = (qa.conj()[:, :, None] * qb[:, None, :]
                    + qb.conj()[:, :, None] * qa[:, None, :]).reshape(e, rank * rank)
        self.minus_sigma = -np.diag(self.sigma)

    def _matrices(self, k, sign, tan, edges=None, cot=None):
        """H(k) over points k.  edges (points, BORDER_SLOTS) holds the
        bordered edges and cot the cot(delta / 2) of the others, 0 on the
        bordered ones; both None give the full border."""
        rank = self.rank
        t = -k[:, None] * tan
        if edges is None:
            w_even, w_odd, t_b = t, sign * t, t
            low = self.qa - sign[..., None] * self.qb
        else:
            # X_LU+ diag(d_U) X_LU = sum_U d_e (even_e - (-1)^n_e odd_e)
            d = k[:, None] * cot
            w_even, w_odd = t + d, sign * (t - d)
            t_b = np.take_along_axis(t, edges, axis=-1)
            low = self.qa[edges] \
                - np.take_along_axis(sign, edges, axis=-1)[..., None] * self.qb[edges]
        n = rank + t_b.shape[-1]
        h = np.empty((len(k), n, n), dtype=self.q.dtype)
        h[:, :rank, :rank] = (w_even @ self.even + w_odd @ self.odd).reshape(
            len(k), rank, rank) + self.minus_sigma
        low = k[:, None, None] * low
        h[:, rank:, :rank] = low
        h[:, :rank, rank:] = np.swapaxes(low, 1, 2).conj()
        h[:, rank:, rank:] = 0.0
        ends = np.arange(rank, n)
        h[:, ends, ends] = t_b
        return h

    def _blocks(self, ks):
        """(rows, H(k), offset, (k, (-1)^n, tan(delta / 2), edges, cot)) per
        group of points, SCAN_BLOCK points at a time, with offset
        sum_e (n_e - 1) + #{e in U : delta_e > 0}.  A block yields its
        full-border points and its slot points apart; edges and cot are as
        in ``_matrices``."""
        e = len(self.lengths)
        for start in range(0, len(ks), SCAN_BLOCK):
            block = slice(start, start + SCAN_BLOCK)
            k = ks[block]
            x = np.multiply.outer(k, self.lengths)
            turns = np.rint(x / math.pi)
            delta = x - turns * math.pi
            tan = np.tan(0.5 * delta)
            sign = 1.0 - 2.0 * np.mod(turns, 2.0)
            offset = np.sum(turns, axis=-1).astype(int) - e
            if e <= BORDER_SLOTS:
                yield block, self._matrices(k, sign, tan), offset, (k, sign, tan, None, None)
                continue
            size = np.abs(delta)
            order = np.argpartition(size, BORDER_SLOTS, axis=-1)
            full = np.take_along_axis(size, order[:, BORDER_SLOTS:BORDER_SLOTS + 1],
                                      axis=-1)[:, 0] < SLOT_DELTA_MIN
            rows = np.arange(start, start + len(k))
            if np.any(full):
                kf, sf, tf = k[full], sign[full], tan[full]
                yield rows[full], self._matrices(kf, sf, tf), offset[full], (kf, sf, tf, None, None)
            slot = ~full
            if np.any(slot):
                k, sign, tan = k[slot], sign[slot], tan[slot]
                edges = order[slot, :BORDER_SLOTS]
                free = tan.copy()
                np.put_along_axis(free, edges, np.inf, axis=-1)
                cot = 1.0 / free            # |cot| >= 1 on U, 0 on the bordered edges
                yield (rows[slot], self._matrices(k, sign, tan, edges, cot),
                       offset[slot] + np.sum(cot > 0.0, axis=-1), (k, sign, tan, edges, cot))

    def m_many(self, ks):
        """(N(k), eigenvalues of H(k)) over ks, from stacked eigvalsh calls.

        A row of a slot point, rank + BORDER_SLOTS eigenvalues, is padded to
        rank + E with its largest |mu|, which leaves ``_index`` and
        ``gaps`` as they are."""
        ks = np.asarray(ks, dtype=float)
        counts = np.empty(len(ks), dtype=int)
        vals = np.empty((len(ks), self.rank + len(self.lengths)))
        for rows, h, offset, _ in self._blocks(ks):
            neg, mu = self._eigvalsh_count(h)
            counts[rows] = offset + neg
            n = mu.shape[-1]
            vals[rows, :n] = mu
            if n < vals.shape[-1]:
                vals[rows, n:] = np.max(np.abs(mu), axis=-1, keepdims=True)
        return counts, vals

    def gaps(self, vals):
        """(ahead, behind) per point: the smallest eigenvalue of H counted as
        nonnegative and the distance of the largest negative one below 0,
        inf where there is none."""
        neg, n = self._index(vals), vals.shape[-1]
        rows = np.arange(len(vals))
        ahead = np.where(neg < n, vals[rows, np.minimum(neg, n - 1)], np.inf)
        return np.maximum(ahead, 0.0), np.where(neg > 0, -vals[rows, neg - 1], np.inf)

    def newton_steps(self, ks):
        """(N(k), Newton step) over ks, from stacked eigvalsh and solve calls.

        The step -mu / (v+ H'(k) v) moves the eigenvalue mu of H(k) nearest
        0 to 0, v its unit eigenvector from ``_nearest_vector``.  H' has the
        blocks X_S+ diag(t') X_S + X_LU+ diag(d'_U) X_LU, X_LB+ and
        diag(t'_B), with t' = -tan(delta / 2) - kl / (2 cos^2(delta / 2))
        and d' = cot(delta / 2) - (kl / 2)(1 + cot^2(delta / 2)).
        """
        ks = np.asarray(ks, dtype=float)
        counts = np.empty(len(ks), dtype=int)
        steps = np.empty(len(ks))
        rank = self.rank
        self.evals += len(ks)
        for rows, h, offset, (k, sign, tan, edges, cot) in self._blocks(ks):
            vals = np.linalg.eigvalsh(h)
            counts[rows] = offset + self._index(vals)
            j = np.argmin(np.abs(vals), axis=-1)
            v = _nearest_vector(h, vals, j)
            top, bottom = v[:, :rank], v[:, rank:]
            ua, ub = top @ self.qa.T, top @ self.qb.T
            x_l = ua - sign * ub
            kl = k[:, None] * self.lengths
            rate = -tan - 0.5 * kl * (1.0 + tan ** 2)
            terms = rate * np.abs(ua + sign * ub) ** 2
            if edges is not None:
                terms += np.where(cot != 0.0, cot - 0.5 * kl * (1.0 + cot ** 2), 0.0) \
                    * np.abs(x_l) ** 2
                rate = np.take_along_axis(rate, edges, axis=-1)
                x_l = np.take_along_axis(x_l, edges, axis=-1)
            slope = np.sum(terms, axis=-1) + np.sum(
                rate * np.abs(bottom) ** 2 + 2.0 * (x_l.conj() * bottom).real, axis=-1)
            with np.errstate(divide="ignore", invalid="ignore"):
                steps[rows] = -vals[np.arange(len(vals)), j] / slope
        return counts, steps


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
    """A bracket (lo, hi] with counts mlo at lo and mhi at hi, under Newton steps."""

    lo: float
    hi: float
    mlo: int
    mhi: int
    k: float                        # current iterate, inside (lo, hi)
    steps: int = 0
    probes: list | None = None      # certificate points of the current round


def _refine_brackets(scan, brackets, tol: float, max_splits: int = 200000):
    """Split count-carrying brackets (lo, hi, M(lo), M(hi), guess) into roots.

    Refinement runs in rounds, and each round advances every open bracket
    by one step.  When ``scan.newton`` is set, every bracket takes a Newton
    step from its guess (or midpoint): ``scan.newton_steps`` gives the
    count at the iterate and the step.  A count equal to M(lo) or M(hi)
    moves that end to the iterate; a count strictly between splits the
    bracket there, and both parts go on.  A step that leaves the bracket
    is replaced by bisection.  Once a step is below tol/4, the count is
    taken at k* -+ tol/2.  If the whole jump g = |M(hi) - M(lo)| lies
    between the two, the root is certified g-fold within tol/2 of k*, and
    k* is returned clamped into the bracket; otherwise the up to three
    sub-brackets go on.  A count without Newton steps (``scan.newton``
    unset) is bisected.  A bracket no wider than tol is a root at its
    midpoint, of multiplicity g.

    Ends move by equality of counts, so a count may increase (``_Scan``,
    ``_PositiveCount``) or decrease (``_NegativeCount``) across a root.
    The Newton iterates of a round share stacked eigensolves, and so do
    the certificate probes and midpoints of a round.  Returns (sorted
    (k, g) list, number of rounds).
    """
    newton = scan.newton
    half = 0.5 * tol
    roots: list = []
    iterates: list = []     # _Newton states for the next round
    halves: list = []       # (lo, hi, M(lo), M(hi)) to split in the next round

    def admit(lo, hi, mlo, mhi, guess, steps=0):
        if mhi == mlo:
            return
        if hi - lo <= tol:
            roots.append((0.5 * (lo + hi), abs(mhi - mlo)))
        elif newton:
            k = guess if guess is not None and lo < guess < hi else 0.5 * (lo + hi)
            iterates.append(_Newton(lo, hi, mlo, mhi, k, steps))
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

        probes, live = [], []
        if stepping:
            m_k, steps = scan.newton_steps(np.array([it.k for it in stepping]))
            for it, m, step in zip(stepping, m_k.tolist(), steps.tolist()):
                it.steps += 1
                if m != it.mlo and m != it.mhi:
                    admit(it.lo, it.k, it.mlo, m, it.k + step, it.steps)
                    admit(it.k, it.hi, m, it.mhi, it.k + step, it.steps)
                    continue
                if m == it.mlo:
                    it.lo = it.k
                else:
                    it.hi = it.k
                it.k += step
                if abs(step) <= 0.25 * tol:
                    it.k = min(max(it.k, it.lo), it.hi)
                    it.probes = [x for x in (it.k - half, it.k + half) if it.lo < x < it.hi]
                    probes.extend(it.probes)
                live.append(it)
        mids = [0.5 * (lo + hi) for lo, hi, _, _ in splitting]
        m_at = scan.m_many(probes + mids)[0].tolist() if probes or mids else []

        pos = 0
        for it in live:
            if it.probes is not None:
                counts = m_at[pos:pos + len(it.probes)]
                pos += len(it.probes)
                if any(m != it.mlo and m != it.mhi for m in counts):
                    points = [it.lo, *it.probes, it.hi]
                    counts = [it.mlo, *counts, it.mhi]
                    for i in range(len(points) - 1):
                        admit(points[i], points[i + 1], counts[i], counts[i + 1],
                              it.k, it.steps)
                    continue
                for x, mx in zip(it.probes, counts):
                    if mx == it.mlo:
                        it.lo = x
                    else:
                        it.hi = x
                it.probes = None
                if it.lo >= it.k - half and it.hi <= it.k + half:
                    roots.append((min(max(it.k, it.lo), it.hi), abs(it.mhi - it.mlo)))
                    continue
            mid = 0.5 * (it.lo + it.hi)
            if it.hi - it.lo <= tol or not it.lo < mid < it.hi:
                roots.append((mid, abs(it.mhi - it.mlo)))
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


def _scan_step(rate: float) -> float:
    """Grid step with GRID_DENSITY points per mean crossing spacing 2 pi / rate."""
    return TWO_PI / (GRID_DENSITY * rate)


def _dirichlet_points(lengths, k_lo: float, k_hi: float, tol: float) -> np.ndarray:
    """Sorted Dirichlet points n pi / l_e in (k_lo, k_hi], each more than tol
    above the one before; a point closer to its predecessor is left to the
    brackets around it."""
    points = [np.arange(math.floor(k_lo * ell / math.pi) + 1,
                        math.floor(k_hi * ell / math.pi) + 1) * (math.pi / ell)
              for ell in lengths]
    points = np.sort(np.concatenate(points))
    points = points[(points > k_lo) & (points <= k_hi)]
    return points[np.concatenate([[True], np.diff(points) > tol])] if points.size else points


def _scan(sys: SecularSystem, k_lo: float, k_hi: float, tol: float, m_lo=None):
    """Locate all roots in (k_lo, k_hi].

    The count (``_Scan`` for the first-order operator, ``_PositiveCount``
    for the squared one) is exact at every k, so the grid only seeds
    brackets: GRID_DENSITY points per mean crossing spacing 2 pi / sum(w).
    For the squared operator each Dirichlet point p adds the bracket
    (p - tol/2, p + tol/2], and a jump of N across it is a root at p with
    that multiplicity.  Every other step with a jump goes to
    ``_refine_brackets``, with a first Newton iterate interpolated from the
    distances of the count to its next and last jump.  ``m_lo``, when
    given, replaces the count at k_lo.  All points are evaluated in stacks
    of at most SCAN_BLOCK matrices.

    Returns:
        (sorted (k, g) list, stats) with stats the eval counts per stage
        (grid and Dirichlet probes, refinement), the refinement rounds,
        the roots read off at Dirichlet points and the grid step.
    """
    count = _Scan(sys) if sys.kind == BK else _PositiveCount(sys)
    step = min(count.grid_step, k_hi - k_lo)
    n = max(1, math.ceil((k_hi - k_lo) / step))
    grid = np.minimum(k_lo + step * np.arange(n + 1), k_hi)
    grid[-1] = k_hi
    m_vals, vals = count.m_many(grid)
    if m_lo is not None:
        m_vals[0] = m_lo
    points, poles = grid, np.zeros(0)
    if sys.kind == BK2:
        # a root at a Dirichlet point makes a jump on the grid step holding it
        poles = _dirichlet_points(sys.lengths, k_lo, k_hi, tol)
        poles = poles[np.diff(m_vals)[np.searchsorted(grid, poles) - 1] != 0]
    if poles.size:
        p_lo = np.maximum(poles - 0.5 * tol, k_lo)
        p_hi = np.minimum(poles + 0.5 * tol, k_hi)
        # grid points inside a Dirichlet bracket give way to its two ends
        j = np.searchsorted(p_lo, grid, side="right") - 1
        keep = (j < 0) | (grid <= p_lo[j]) | (grid >= p_hi[j])
        probes = np.concatenate([p_lo, p_hi])
        probes = probes[grid[np.minimum(np.searchsorted(grid, probes), len(grid) - 1)] != probes]
        m_probes, vals_probes = count.m_many(probes)
        points = np.concatenate([grid[keep], probes])
        order = np.argsort(points)
        points = points[order]
        m_vals = np.concatenate([m_vals[keep], m_probes])[order]
        vals = np.concatenate([vals[keep], vals_probes])[order]
    grid_evals = count.evals
    ahead, behind = count.gaps(vals)

    pole_at = np.full(len(points) - 1, np.nan)       # p of each Dirichlet bracket
    if poles.size:
        pole_at[np.searchsorted(points, p_lo)] = poles
    with np.errstate(divide="ignore", invalid="ignore"):
        guesses = points[:-1] + np.diff(points) * ahead[:-1] / (ahead[:-1] + behind[1:])
    roots, brackets = [], []
    for i in np.flatnonzero(np.diff(m_vals)):
        jump = int(m_vals[i + 1] - m_vals[i])
        if not np.isnan(pole_at[i]):
            roots.append((float(pole_at[i]), abs(jump)))
        else:
            brackets.append((float(points[i]), float(points[i + 1]),
                             int(m_vals[i]), int(m_vals[i + 1]), float(guesses[i])))
    pole_roots = len(roots)

    refined, rounds = _refine_brackets(count, brackets, tol)
    return sorted(roots + refined), {
        "grid_evals": grid_evals, "recheck_evals": 0,
        "refine_evals": count.evals - grid_evals, "refine_rounds": rounds,
        "pole_roots": pole_roots, "scan_step": step}


def find_spectrum(sys: SecularSystem, k_range, tol: float = 1e-10,
                  workers: int = 1) -> Spectrum:
    """All real eigenvalues in k_range with multiplicities.

    For the squared operator only positive wave numbers are reported
    (lambda = k^2); the zero eigenvalue is characterized separately, as in
    :func:`zero_mode_test`, and attached as ``zero_mode``.  The window then
    starts at ``_window_floor(k_max)``, where a zero mode sits below
    rounding in the Hermitian matrix; there the count is the number of
    eigenvalues of M(0) = Q+ Lambda(0) Q - diag(sigma) at or below its
    rounding bound, the negative eigenvalues plus g0, from the same
    eigvalsh that gives g0.

    Roots are the jumps of an integer count that is exact at every k: the
    eigenphase winding count M(k) of U(k) for the first-order operator,
    and for the squared operator (constant or k-dependent S-part) the
    number N(k) of eigenvalues below k^2, from one stacked eigvalsh of a
    bordered Dirichlet-to-Neumann matrix with at most BORDER_SLOTS border
    rows at most points (``_PositiveCount``).  A grid of
    two points per mean crossing spacing 2 pi / sum(w) seeds brackets;
    each Dirichlet point p = n pi / l_e adds the bracket
    (p - tol/2, p + tol/2], and a jump across it is a root at p.  Every
    bracket is refined by Newton steps inside a bracket certified by the
    count, degenerate levels included (``_refine_brackets``).  Refinement
    runs in rounds that advance every bracket at once, on stacked
    eigensolves.

    Args:
        sys: secular system.
        k_range: (k_min, k_max) search window.
        tol: certified bracket width; located roots are accurate to tol/2.
        workers: number of threads; the window is split into independent
            chunks whose results are merged in sorted order.

    ``diagnostics["matrix_evals"]`` counts the matrices whose eigenvalues
    were computed: grid points, Dirichlet probes, Newton and bisection
    steps, and certificates.  It is the sum of ``grid_evals`` (grid and
    Dirichlet probes), ``recheck_evals`` (0: no count needs a re-check)
    and ``refine_evals``; ``refine_rounds`` counts refinement rounds,
    ``pole_roots`` the roots read off at Dirichlet points, and
    ``scan_step`` is the grid step used.
    """
    k_lo, k_hi = float(k_range[0]), float(k_range[1])
    if not (k_lo < k_hi):
        raise ValidationError("need k_min < k_max")
    if tol <= 0:
        raise ValidationError("tol must be positive")

    zero_mode = m_lo = None
    if sys.kind == BK2:
        g0, n_zero, below = _zero_modes(sys)
        zero_mode = (g0, n_zero)
        floor = _window_floor(k_hi)
        if k_lo <= floor:
            k_lo, m_lo = floor, below
        if k_lo >= k_hi:
            return Spectrum(kind=sys.kind, eigenvalues=(), k_window=(k_lo, k_hi),
                            zero_mode=zero_mode)

    workers = max(1, int(workers))
    edges = np.linspace(k_lo, k_hi, workers + 1)
    chunks = [(lo, hi, m_lo if i == 0 else None)
              for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:]))]
    if workers == 1:
        results = [_scan(sys, lo, hi, tol, m) for lo, hi, m in chunks]
    else:
        from concurrent.futures import ThreadPoolExecutor  # only the pool needs it

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda c: _scan(sys, c[0], c[1], tol, c[2]), chunks))

    roots: list = []
    stats = dict.fromkeys(("grid_evals", "recheck_evals", "refine_evals", "refine_rounds",
                           "pole_roots"), 0)
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

def _zero_modes(sys: SecularSystem, mult_tol: float = MULT_TOL) -> tuple:
    """(g0, N, N(0+)): the zero-mode data of ``zero_mode_test`` and the
    number of eigenvalues <= 0, all from one eigvalsh of M(0)."""
    if sys.kind != BK2:
        raise ValidationError("zero_mode_test applies to the squared operator")
    q, inv = sys.dec.ran_vectors, 1.0 / sys.lengths
    mu = np.linalg.eigvalsh(q.conj().T @ _end_pair(inv, -inv) @ q - np.diag(sys.dec.sigma_l))
    bound = _rounding_bound(mu)
    return (int(np.sum(np.abs(mu) <= bound)), _unit_count(sys.u_matrix(0.0), mult_tol),
            int(np.sum(mu <= bound)))


def zero_mode_test(sys: SecularSystem, mult_tol: float = MULT_TOL) -> tuple:
    """Multiplicity data (g0, N) of the zero eigenvalue.

    g0 is the dimension of the lambda = 0 eigenspace.  No Dirichlet
    eigenvalue sits at 0, so by Friedlander's identity it is the nullity of
    M(0) = Q+ Lambda(0) Q - diag(sigma), with Lambda_e(0) =
    (1/l_e) [[1, -1], [-1, 1]] the Dirichlet-to-Neumann map of linear
    functions: one eigvalsh, whose eigenvalues within the rounding bound
    4 n eps max|mu| of ``_HermitianCount._index`` count as zero.  N is the
    order of the k = 0 zero of the secular function, the unit-eigenvalue
    multiplicity of S''(0) T(0), from singular values.
    """
    return _zero_modes(sys, mult_tol)[:2]


def find_negative_eigenvalues(sys: SecularSystem, kappa_max: float):
    """Eigenvalues lambda = -kappa^2 of the squared operator, kappa <= kappa_max.

    Returns the sorted list of (kappa, multiplicity) over kappa in
    (kappa_lo, kappa_max], kappa_lo = ``_window_floor(kappa_max)``.  They
    are the jumps of the integer count N(kappa) of eigenvalues below
    -kappa^2 (see ``_NegativeCount``), located by ``_refine_brackets``
    with Newton steps from the one bracket (kappa_lo, kappa_max], to
    width 1e-13 max(1, kappa_max); the size of a jump is the
    multiplicity, so roots of even order are found like simple ones.
    """
    if sys.kind != BK2:
        raise ValidationError("negative eigenvalues exist only for the squared operator")
    if kappa_max <= 0:
        raise ValidationError("kappa_max must be positive")
    lo = _window_floor(kappa_max)
    if lo >= kappa_max:
        return []
    count = _NegativeCount(sys)
    n_lo, n_hi = count.m_many([lo, kappa_max])[0].tolist()
    roots, _ = _refine_brackets(count, [(lo, kappa_max, n_lo, n_hi, None)],
                                1e-13 * max(1.0, kappa_max))
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
