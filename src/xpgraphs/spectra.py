"""Secular functions, eigenvalue location with multiplicities, Weyl fits.

The spectrum of either operator on a graph is the set of real k where the
unitary family U(k) = S(k) T(k) has eigenvalue one.  Roots are the jumps
of an integer count that is exact at every k, located by brackets that
the count certifies.

For the first-order operator, U(k) = B exp(ikw) with a constant bond
matrix B, the count is the winding count M(k) = (arg det B + k sum(w)
- sum_j theta_j(k)) / (2 pi), theta_j the principal eigenphases of U(k).
It comes from one eigh of a Hermitian Cayley matrix D(k) - K, D(k) =
diag tan((k w - alpha) / 2) and K the Cayley transform of e^-i alpha B+
(Kostrykin & Schrader, J. Phys. A 32, 595, 1999), with the rotation alpha
picked per point from 2d + 1 so that no entry comes near a pole
(``_CayleyCount``).

For the squared operator, whatever its S-part, the count is N(k), the
number of eigenvalues below k^2, from Friedlander's Dirichlet-to-Neumann
index identity (Arch. Ration. Mech. Anal. 116, 1991; Behrndt & Luger,
J. Phys. A 43, 474006, 2010), N(k) = sum_e floor(k l_e / pi) +
n_-(Q+ Lambda(k) Q - diag(sigma)), read off a matrix that borders the
entries of Lambda diverging at the Dirichlet points k l_e in pi Z; each
Dirichlet point p is its own bracket (p - tol/2, p + tol/2].  A pair that
couples only the ends at one vertex, with rank at most one there (every
named condition: Kirchhoff, Neumann, Dirichlet, Robin), on a graph
without cycles gives that matrix the pattern of a forest, and N(k) is the
number of negative pivots of an elimination from the leaves, with no
fill and no eigensolve (``_TreeCount``; Jacobs & Trevisan, Linear Algebra
Appl. 434, 2011).  Every other pair (a cycle, a non-local pair, rank
above one at a vertex) takes one eigvalsh of the dense bordered matrix
(``_PositiveCount``).  The zero eigenvalue is characterized by
``zero_mode_test``, and the negative spectrum -kappa^2 by the same kind
of count with kappa-harmonic maps (``_NegativeCount``).

A grid of two points per mean crossing spacing 2 pi / sum(w) only seeds
brackets.  Every bracket is refined by Newton steps inside a bracket that
the count certifies at every step, a degenerate level with its
multiplicity: on the eigenphase of U(k) nearest 0, from a Rayleigh
quotient of shifted inverse iteration, or on the eigenvalue of the
Hermitian matrix nearest 0.  Inside a simple bracket the count is one of
its two end counts, and the sign of a determinant tells them apart with
one LU and no eigensolve (``parity``; the elimination count reads it off
its pivots).  Refinement runs in rounds that advance every open bracket
at once, as columns of one array under masked rules, and make at most one
stacked call of each kind.

Every count keeps only its matrix; ``_Count`` owns the rest.  It cuts the
points into stacks of at most STACK_ENTRIES entries (``_stacks``), reads
each stack as counts (``m_many``), parities or Newton steps, and puts the
outputs back in point order.  ``m_many`` tallies its points in ``evals``
and ``parity`` in ``lu_evals``; ``newton_steps`` tallies in ``evals`` only
when it gives counts, so the Newton inverses of the first-order count are
not tallied.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    InsufficientData,
    RangeExceeded,
    ToleranceTooCoarse,
    ValidationError,
)
from .extensions import BK, BK2, LAMBDA_FLOOR, Decomposition, s_matrix_bk2
from .graph import PATTERN_TOL, MetricGraph

TWO_PI = 2.0 * math.pi
EPS = float(np.finfo(float).eps)

#: eigenphase distance (mod 2 pi) that counts as a unit eigenvalue
MULT_TOL = 1e-8

#: certified bracket width of ``find_spectrum`` unless the caller sets one
DEFAULT_TOL = 1e-10

#: entries of one stacked linear-algebra call: points x rows^2 of a matrix
#: count, points x nodes of ``_TreeCount``; 2**16 complex entries are 1 MB
STACK_ENTRIES = 2 ** 16

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

#: eigenvalue modulus that ``_nearest_vector`` scales its shift by when a
#: whole matrix is zero, so every shifted matrix stays nonsingular
SHIFT_FLOOR = 1e-100

#: lower end of a squared-operator window, relative to max(1, |k_max|):
#: below it a zero mode is not told from rounding (``_window_floor``)
WINDOW_FLOOR = 1e-9

#: certified width of a bound-state bracket, relative to max(1, top)
#: (``find_negative_eigenvalues``)
NEGATIVE_TOL = 1e-13

#: sigma_j l_min above which the bound-state search starts at a half-line
#: bound state kappa = sigma_j: an edge with sigma_j at both ends then binds
#: a state on each side of sigma_j (``find_negative_eigenvalues``)
SEED_BINDING = 2.0


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

    @cached_property
    def cayley(self) -> "_Cayley":
        """The ``_Cayley`` rotations of a constant bond matrix, once per system."""
        return _Cayley(self.bond_matrix(0.0))

    @cached_property
    def forest(self) -> "_Forest | None":
        """The ``_TreeCount`` layout of a squared-operator pair, once per
        system; None for the first-order operator and where the count of
        the squared one stays dense (``_local_forest``)."""
        return None if self.kind == BK else _local_forest(self.dec)

    @property
    def poles(self) -> np.ndarray:
        """Nonzero eigenvalues of L'': S(k) has poles at k = +- i poles."""
        return np.zeros(0) if self.kind == BK else self.dec.poles


def _swap_halves(m: np.ndarray) -> np.ndarray:
    """m J0 for a matrix or a stack: the two column halves exchanged."""
    e = m.shape[-1] // 2
    return np.concatenate([m[..., e:], m[..., :e]], axis=-1)


def secular(sys: SecularSystem, k):
    """det(I - S(k) T(k)); real zeros are the spectrum.

    A scalar k gives a complex number, an array of k the array of values
    from one stacked det.
    """
    return np.linalg.det(np.eye(sys.dim) - sys.u_matrix(k))


# ---------------------------------------------------------------------------
# Integer counts
# ---------------------------------------------------------------------------

def _unit_count(m: np.ndarray, tol: float) -> int:
    """Eigenvalues of a unitary matrix within eigenphase distance tol of 1.

    m is normal, so the singular values of I - m are |1 - exp(i theta_j)|
    = 2 |sin(theta_j / 2)| over its eigenphases theta_j.
    """
    sv = np.linalg.svd(np.eye(len(m)) - m, compute_uv=False)
    return int(np.sum(sv <= 2.0 * math.sin(0.5 * tol)))


def _window_floor(k_max: float) -> float:
    """Lower end of a squared-operator search window reaching k_max:
    WINDOW_FLOOR max(1, |k_max|), below which a zero mode is not told from
    rounding."""
    return WINDOW_FLOOR * max(1.0, abs(k_max))


def _rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a of shape (points, n), row by row: one (1, n) product per
    point, so that the bits of a row do not depend on the rows beside it,
    as those of a 2-D gemm do through its blocking."""
    return np.matmul(a[:, None, :], b)[:, 0]


def _stacks(n_points: int, entries: int):
    """Slices of 0..n_points, each the points of one stacked call whose
    per-point matrix (or elimination) has the given number of entries:
    max(1, STACK_ENTRIES // entries) points a slice, and one empty slice
    for no points, so that a count still gives its outputs' shapes."""
    size = max(1, STACK_ENTRIES // max(1, entries))
    for start in range(0, max(1, n_points), size):
        yield slice(start, start + size)


@lru_cache(maxsize=None)
def _iteration_start(n: int) -> np.ndarray:
    """Fixed start vector b_i = sin(i), i = 1..n, of inverse iteration.  It
    has no integer linear relation (e^i is transcendental), so it is
    orthogonal to no integer-pattern eigenvector, such as (1, -1, -1, 1),
    of a symmetric graph."""
    return np.sin(np.arange(1.0, n + 1.0))


#: the identity of each size, built once
_identity = lru_cache(maxsize=None)(np.eye)


def _nearest_vector(mats: np.ndarray, vals: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Unit eigenvectors for the eigenvalues vals[i, j[i]] of a stack of
    normal matrices, from one stacked step x = (M - (mu_j + eps) I)^-1 b of
    shifted inverse iteration (Ipsen, SIAM Rev. 39, 1997).

    eps = NEWTON_SHIFT max|mu| leaves the shifted matrix nonsingular and
    damps the other eigenvectors by eps / |mu_i - mu_j|; a zero matrix
    takes eps = NEWTON_SHIFT SHIFT_FLOOR, so every row stays finite.
    """
    eye, start = _identity(mats.shape[-1]), _iteration_start(mats.shape[-1])
    top = np.maximum(abs(vals).max(axis=-1), SHIFT_FLOOR)
    shift = vals[np.arange(len(vals)), j] + NEWTON_SHIFT * top
    x = np.linalg.solve(mats - shift[:, None, None] * eye, start)
    return x / np.sqrt((abs(x) ** 2).sum(axis=-1, keepdims=True))


def _det_signs(mats: np.ndarray, phase=None) -> np.ndarray:
    """Sign of the real number det(M) exp(-i phase) (det(M) without a
    phase) per matrix of a stack, from one stacked LU, and 0 where rounding
    may hide it.

    The rows are scaled to unit norm first, so |det| <= 1 (Hadamard) and
    the LU error of the det is of order n^2 eps.  A sign counts where the
    real part exceeds twice the imaginary one (0 in exact arithmetic) plus
    4 n^2 eps; a singular or non-finite matrix gives 0.
    """
    n = mats.shape[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        det = np.linalg.det(mats / np.linalg.norm(mats, axis=-1, keepdims=True))
        if phase is not None:
            det = det * np.exp(-1j * phase)
    re = det.real
    clear = np.abs(re) > 2.0 * np.abs(det.imag) + 4 * n * n * EPS
    return np.where(clear, np.where(re > 0.0, 1, -1), 0)


def _rounding_bound(vals: np.ndarray) -> np.ndarray:
    """eigvalsh error bound 4 n eps max|mu| per row of a stack of eigenvalues
    (last axis kept): an eigenvalue this close to 0 is not told from 0."""
    return 4 * vals.shape[-1] * EPS \
        * np.max(np.abs(vals), axis=-1, initial=0.0, keepdims=True)


class _Count:
    """The protocol of every count (see the module docstring).

    A count supplies ``_parts(ks)``, (rows, factors) per stacked call, by
    default one ``_stacks`` slice of ``entries`` per point with its k as
    the factors, and three readings of the factors: ``_read`` (count, what
    ``gaps`` takes), ``_signs`` ((-1)^count, 0 where rounding may hide it)
    and ``_step`` (count or None, Newton step, the step from the other side
    of 0 or None; see ``_NegativeCount._step``).  A lone stack's outputs are
    returned as they are.  ``grid_step`` is the scan step of
    ``_scan_step``, inf for a count with no roots between Dirichlet points.
    """

    def __init__(self, sys: SecularSystem, entries: int, roots: bool = True):
        self.grid_step = _scan_step(float(np.sum(sys.weights))) if roots else math.inf
        self.entries = entries
        self.evals = self.lu_evals = 0

    def _parts(self, ks):
        for rows in _stacks(len(ks), self.entries):
            yield rows, ks[rows]

    def _gather(self, ks, read) -> tuple:
        """The outputs of read(factors) over every stack of ks, in point order."""
        ks = np.asarray(ks, dtype=float)
        runs = [(rows, read(factors)) for rows, factors in self._parts(ks)]
        if len(runs) == 1:
            return runs[0][1]
        outs = [None if out is None else np.empty((len(ks),) + out.shape[1:], out.dtype)
                for out in runs[0][1]]
        for rows, got in runs:
            for buf, out in zip(outs, got):
                if buf is not None:
                    buf[rows] = out
        return tuple(outs)

    def m_many(self, ks):
        """(count, what ``gaps`` takes) over ks."""
        self.evals += len(ks)
        return self._gather(ks, self._read)

    def parity(self, ks):
        """(-1)^count over ks, 0 where rounding may hide it."""
        self.lu_evals += len(ks)
        return self._gather(ks, lambda factors: (self._signs(factors),))[0]

    def newton_steps(self, ks):
        """(count or None, Newton step, other-side step or None) over ks."""
        counts, steps, others = self._gather(ks, self._step)
        if counts is not None:
            self.evals += len(ks)
        return counts, steps, others


class _Cayley:
    """The rotations of the first-order count of a constant unitary bond
    matrix B of size d: alpha_i = 2 pi (i + 1/2) / (2d + 1), and the Cayley
    transform K_i = i (I - V_i)(I + V_i)^-1 of V_i = e^-i alpha_i B+, with
    the eigenvalues tan(psi_ij / 2), psi_ij = arg e^-i (alpha_i + phi_j).
    Kept are the rotations with max_j |psi_ij| <= pi - pi / (2 (2d + 1)), as
    alpha, psi, cos_worst = cos max_j |psi_ij|, minus_kay = -K_i and const
    c_i = rint((theta0 + d alpha_i + sum_j psi_ij) / (2 pi)), theta0 = arg det B.

    The eigenphases phi_j and eigenvectors W of B, K_i = W diag(tan(psi_i
    / 2)) W+, come from one eigh of the K of the first alpha_i with no
    entry above 2 cot(pi / (2 (2d + 1))): V has an eigenvalue -1 at d
    angles, which leave d + 1 alpha_i pi / (2d + 1) clear (pigeonhole).
    """

    def __init__(self, bond: np.ndarray):
        d = len(bond)
        n_rot = 2 * d + 1
        alpha = (np.arange(n_rot) + 0.5) * (TWO_PI / n_rot)
        adj, eye = bond.conj().T, np.eye(d)
        for beta in alpha.tolist():
            try:
                kay = 2j * np.linalg.inv(eye + cmath.exp(-1j * beta) * adj) - 1j * eye
            except np.linalg.LinAlgError:       # V has the eigenvalue -1 exactly
                continue
            if np.abs(kay).max() <= 2.0 / math.tan(0.5 * math.pi / n_rot):
                break
        tan, vecs = np.linalg.eigh(0.5 * (kay + kay.conj().T))
        psi = np.mod(math.pi + beta + 2.0 * np.arctan(tan) - alpha[:, None], TWO_PI) - math.pi
        worst = np.abs(psi).max(axis=1)
        keep = worst <= math.pi - 0.5 * math.pi / n_rot
        theta0 = float(np.angle(np.linalg.det(bond)))
        self.alpha, self.cos_worst, self.psi = alpha[keep], np.cos(worst[keep]), psi[keep]
        self.minus_kay = (vecs * -np.tan(0.5 * self.psi)[:, None, :]) @ vecs.conj().T
        self.const = np.rint((theta0 + d * self.alpha + self.psi.sum(axis=1))
                             / TWO_PI).astype(int)


class _CayleyCount(_Count):
    """M(k) of a constant unitary bond matrix B, U(k) = B exp(ikw), from the
    negative index of a Hermitian Cayley matrix (Kostrykin & Schrader,
    J. Phys. A 32, 595, 1999).

    U(k) has the eigenvalue 1 exactly when e^-i alpha (B+ - exp(ikw)) =
    2i (I - i K)^-1 (K - D) (I - i D)^-1 is singular, D(k) =
    diag tan((k w - alpha) / 2).  D increases with k, and at a pole of bond
    b an eigenvalue of D - K passes from +inf to -inf, so with rotation i of
    ``_Cayley``, M(k) = sum_b floor((k w_b - alpha_i + pi) / (2 pi)) -
    n_-(D_i(k) - K_i) + c_i steps up by the multiplicity at each root; it
    is the winding count (theta0 + k sum(w) - sum_j theta_j(k)) / (2 pi)
    over the principal eigenphases theta_j of U(k).  Each point takes the
    rotation farthest from the poles of D_i and from max |psi_ij|: one of the
    2d + 1 is pi / (2d + 1) clear of the 2d excluded angles, so no entry of
    D_i or K_i exceeds cot(pi / (2 (2d + 1))).  ``evals`` counts the
    D_i - K_i eigensolved, ``lu_evals`` the U(k) that only take an LU, and
    the Newton inverses are not counted.
    """

    name = "cayley"

    def __init__(self, sys: SecularSystem):
        self.weights = sys.weights
        d = len(self.weights)
        super().__init__(sys, d * d)
        self.rate = float(np.sum(self.weights))
        self.bond = sys.bond_matrix(0.0)
        self.theta0 = float(np.angle(np.linalg.det(self.bond)))
        self.cayley = sys.cayley if d > 1 else None
        self.eye, self.start = _identity(d), _iteration_start(d)

    def _u(self, ks):
        """The stack of U(k) over ks."""
        return self.bond * np.exp(1j * np.multiply.outer(ks, self.weights))[:, None, :]

    def _matrices(self, ks):
        """(D_i(k) - K_i, diag D_i(k), sum_b floor + c_i) per point, with the
        rotation i picked per point."""
        cay = self.cayley
        phase = np.subtract.outer(np.multiply.outer(ks, self.weights), cay.alpha)
        # cos falls with the distance from +-pi: the rotation farthest from a pole
        pick = np.argmax(np.minimum(np.cos(phase).min(axis=1), cay.cos_worst), axis=-1)
        phase = phase[np.arange(len(ks)), :, pick]
        tan = np.tan(0.5 * phase)
        h = cay.minus_kay[pick]
        h.reshape(len(ks), self.entries)[:, ::len(self.weights) + 1] += tan
        return h, tan, np.rint(phase * (1.0 / TWO_PI)).sum(axis=-1).astype(int) + cay.const[pick]

    def _read(self, ks):
        """(M(k), eigenphases in [0, 2 pi)) from one eigh: for each
        eigenvalue mu_j of D_i(k) - K_i, eigenvector u_j and tau_j =
        u_j+ D_i u_j, 2 arctan(tau_j) - 2 arctan(tau_j - mu_j) is the
        eigenphase of U(k) that crosses 0 with mu_j, to first order in mu_j."""
        if self.cayley is None:     # U(k) = exp(i (theta0 + k w)): M in closed form
            theta = self.theta0 + ks * self.rate
            phases = np.mod(theta, TWO_PI)
            return np.rint((theta - phases) / TWO_PI).astype(int), phases[:, None]
        h, tan, offset = self._matrices(ks)
        mu, u = np.linalg.eigh(h)
        tau = np.sum(tan[:, :, None] * np.abs(u) ** 2, axis=1)
        return (offset - np.sum(mu < 0.0, axis=-1),
                np.mod(2.0 * (np.arctan(tau) - np.arctan(tau - mu)), TWO_PI))

    def _signs(self, ks):
        """(-1)^M(k) from one det: 1 - exp(i theta) = 2 sin(theta / 2)
        exp(i (theta - pi) / 2) and sum_j theta_j = theta0 + k sum(w) -
        2 pi M, so det(I - U(k)) exp(-i (theta0 + k sum(w) - d pi) / 2) =
        (-1)^M prod_j 2 sin(theta_j / 2)."""
        phase = 0.5 * (self.theta0 + ks * self.rate - len(self.eye) * math.pi)
        return _det_signs(self.eye - self._u(ks), phase)

    @staticmethod
    def gaps(phases):
        """(ahead, behind) per point: the phase distance 2 pi - max theta_j to
        the next crossing of 1 and min theta_j past the last one."""
        return TWO_PI - np.max(phases, axis=-1), np.min(phases, axis=-1)

    def _step(self, ks):
        """(None, Newton step, None) from one inv: the count at each iterate is
        taken with the other points of its round.

        The step -theta / (v+ diag(w) v) moves the eigenphase theta of U(k)
        nearest 0 to 0 at its Hellmann-Feynman velocity, v = z / |z| from
        three steps x, y, z of inverse iteration (``_iteration_start``), each
        a product with one inverse of U(k) - s I, s = 1 + NEWTON_SHIFT, and
        theta the phase of the Rayleigh quotient v+ U v = s + z+ y / |z|^2.
        At d = 1, U(k) = exp(i (theta0 + k w)) gives theta in closed form.
        """
        if self.cayley is None:
            theta = np.mod(self.theta0 + ks * self.rate + math.pi, TWO_PI) - math.pi
            return None, -theta / self.rate, None
        shift = 1.0 + NEWTON_SHIFT
        inv = np.linalg.inv(self._u(ks) - shift * self.eye)
        x = inv @ self.start
        y = (inv @ x[..., None])[..., 0]
        z = (inv @ y[..., None])[..., 0]
        weight = np.abs(z) ** 2
        size = weight.sum(axis=-1)
        theta = np.angle(shift + np.sum(z.conj() * y, axis=-1) / size)
        return None, -theta * size / _rows(weight, self.weights), None


class _HermitianCount(_Count):
    """What the two counts of the squared operator share: Q = dec.ran_vectors
    (real when its entries are), sigma = dec.sigma_l, the edge log lengths,
    the per-edge products of the rows of Q that sum Q+ Lambda Q, and the
    readings of a stack of Hermitian boundary matrices H with the offsets
    that N = offset + n_-(H) adds to them.

    The substitution y = ln x maps the operator onto -d^2/dy^2 on edges of
    log length l, with the boundary form -<L'' u, u> on ran B'+ and
    Dirichlet conditions on ker B'.  Restricted to solutions of
    -u'' = lambda u, the quadratic form of the operator minus lambda is
    <(Q+ Lambda Q - diag(sigma)) f, f> on the boundary values f, Lambda the
    per-edge Dirichlet-to-Neumann map at lambda.  ``_parts`` gives (H,
    offset, the factors of ``_step``) per stack; ``evals`` counts the
    matrices diagonalised, ``lu_evals`` those that only take an LU
    (``parity``).
    """

    def __init__(self, sys: SecularSystem):
        q = sys.dec.ran_vectors
        self.q = q if np.any(q.imag) else q.real
        self.sigma = sys.dec.sigma_l
        self.lengths = sys.lengths
        self.width = rank = self.q.shape[1]         # eigenvalues of a point in ``_read``
        e = len(self.lengths)
        qa, qb = self.q[:e] / math.sqrt(2.0), self.q[e:] / math.sqrt(2.0)
        self.qa, self.qb = qa, qb
        # per edge, flattened: a map [[d, o], [o, d]] on the two ends of each
        # edge gives Q+ Lambda Q = 2 sum_e (d_e even_e + o_e odd_e), and
        # X_S+ diag(t) X_S = sum_e t_e (even_e + (-1)^n_e odd_e)
        self.even = (qa.conj()[:, :, None] * qa[:, None, :]
                     + qb.conj()[:, :, None] * qb[:, None, :]).reshape(e, rank * rank)
        self.odd = (qa.conj()[:, :, None] * qb[:, None, :]
                    + qb.conj()[:, :, None] * qa[:, None, :]).reshape(e, rank * rank)
        self.minus_sigma = -np.diag(self.sigma)
        # N(k) = sum_e floor(kl / pi) at rank 0: no roots between Dirichlet points
        super().__init__(sys, rank ** 2, roots=rank > 0)

    def _block(self, w_even: np.ndarray, w_odd: np.ndarray) -> np.ndarray:
        """sum_e (w_even_e even_e + w_odd_e odd_e) - diag(sigma) per point,
        for per-edge weights of shape (points, E)."""
        return (_rows(w_even, self.even) + _rows(w_odd, self.odd)).reshape(
            len(w_even), *self.minus_sigma.shape) + self.minus_sigma

    @staticmethod
    def _index(vals: np.ndarray) -> np.ndarray:
        """Negative index per row of a stack of ascending eigenvalues.

        A zero mode of the operator leaves the matrix an eigenvalue of order
        k^2 l, below rounding at small k: eigenvalues within the eigvalsh
        error bound 4 n eps max|mu| of 0 count as nonnegative.
        """
        return np.sum(vals < -_rounding_bound(vals), axis=-1)

    def _read(self, factors):
        """(N, eigenvalues of H) from one eigvalsh.  A row shorter than
        ``width`` is padded with its largest |mu|, which leaves ``_index``
        and ``gaps`` as they are."""
        mu = np.linalg.eigvalsh(factors[0])
        counts, pad = factors[1] + self._index(mu), self.width - mu.shape[-1]
        if pad:
            top = np.max(np.abs(mu), axis=-1, keepdims=True)
            mu = np.concatenate([mu, np.broadcast_to(top, (len(mu), pad))], axis=-1)
        return counts, mu

    @staticmethod
    def _signs(factors):
        """(-1)^N from one LU: the sign of det H is (-1)^(n_-(H))."""
        h, offset, _ = factors
        return _det_signs(h) * (1 - 2 * (offset % 2))


class _NegativeCount(_HermitianCount):
    """N(kappa), the number of eigenvalues of the squared operator below -kappa^2.

    The Dirichlet-decoupled operator has no negative spectrum, so N(kappa)
    is the negative index of M(kappa) = Q+ Lambda(kappa) Q - diag(sigma),
    where Lambda(kappa) = kappa [[coth kappa l, -csch kappa l],
    [-csch kappa l, coth kappa l]] maps kappa-harmonic functions.  Lambda
    is positive definite and increasing in kappa, so N is nonincreasing,
    at most #{sigma > 0}, and drops at each root by its multiplicity.
    Its Newton reading also gives the step from the other side of 0
    (``_step``), so each part of a bracket that its count splits has a seed
    of its own (``_refine_brackets``).
    """

    def _parts(self, kappas):
        """(rows, (M(kappa), offset 0, (kappa l, coth, csch))) per stack."""
        for rows in _stacks(len(kappas), self.entries):
            kappa = kappas[rows]
            x = np.multiply.outer(kappa, self.lengths)
            den = -np.expm1(-2.0 * x)                  # 1 - exp(-2 kappa l)
            coth, csch = (2.0 - den) / den, 2.0 * np.exp(-x) / den
            two_kappa = 2.0 * kappa[:, None]
            yield rows, (self._block(two_kappa * coth, -two_kappa * csch), 0, (x, coth, csch))

    def _step(self, factors):
        """(N(kappa), Newton step, Newton step from the other side of 0) from
        one eigh.

        The step -mu / (v+ Q+ Lambda'(kappa) Q v) moves an eigenvalue mu of
        M(kappa) to 0, v its unit eigenvector; per edge Lambda' has the
        entries coth - kappa l csch^2 and -csch + kappa l csch coth.  The
        first step is that of the eigenvalue nearest 0, the second that of
        the eigenvalue nearest 0 on the other side of 0 (counted as
        ``_index`` counts), nan where there is none.  Eigenvalues rise with
        kappa, so a negative one steps up to a root above kappa and a
        nonnegative one down to a root below it: when the count at kappa
        splits a bracket, each part has a step of its own.
        """
        mats, _, (x, coth, csch) = factors
        vals, vecs = np.linalg.eigh(mats)
        n = vals.shape[-1]
        neg = self._index(vals)
        j = np.argmin(np.abs(vals), axis=-1)
        # across 0 from j: the first nonnegative or the last negative one,
        # outside 0..n-1 where that side is empty
        other = np.where(j < neg, neg, neg - 1)
        pick = np.stack([j, other % n], axis=-1)
        rows = np.arange(len(vals))[:, None]
        v = vecs[rows, :, pick]                         # (points, 2, n), row by row
        u = _rows(v.reshape(-1, n), self.q.T).reshape(v.shape[:2] + self.q.shape[:1])
        ua, ub = np.split(u, 2, axis=-1)
        slope = np.sum((coth - x * csch ** 2)[:, None] * (np.abs(ua) ** 2 + np.abs(ub) ** 2)
                       + 2.0 * (x * csch * coth - csch)[:, None] * (ua.conj() * ub).real,
                       axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            steps = -vals[rows, pick] / slope
        steps[(other < 0) | (other >= n), 1] = np.nan
        return neg, steps[:, 0], steps[:, 1]


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

    name = "dense"

    def __init__(self, sys: SecularSystem):
        super().__init__(sys)
        e, rank = len(self.lengths), self.q.shape[1]
        self.rank, self.width = rank, rank + e

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
            points = np.arange(len(k))[:, None]
            t_b = t[points, edges]
            low = self.qa[edges] - sign[points, edges][..., None] * self.qb[edges]
        n = rank + t_b.shape[-1]
        h = np.empty((len(k), n, n), dtype=self.q.dtype)
        h[:, :rank, :rank] = self._block(w_even, w_odd)
        low = k[:, None, None] * low
        h[:, rank:, :rank] = low
        h[:, :rank, rank:] = np.swapaxes(low, 1, 2).conj()
        h[:, rank:, rank:] = 0.0
        ends = np.arange(rank, n)
        h[:, ends, ends] = t_b
        return h

    def _parts(self, ks):
        """(rows, (H(k), offset, (k, (-1)^n, tan(delta / 2), edges, cot)))
        per stack of points, with offset sum_e (n_e - 1) + #{e in U :
        delta_e > 0}.  The full-border points and the slot points go into
        stacks apart, each cut by ``_stacks`` at its own matrix size; edges
        and cot are as in ``_matrices``."""
        e = len(self.lengths)
        x = np.multiply.outer(ks, self.lengths)
        turns = np.rint(x / math.pi)
        delta = x - turns * math.pi
        tan = np.tan(0.5 * delta)
        sign = 1.0 - 2.0 * np.mod(turns, 2.0)
        offset = np.sum(turns, axis=-1).astype(int) - e
        full = rows = np.arange(len(ks))
        if e > BORDER_SLOTS:
            size = np.abs(delta)
            order = np.argpartition(size, BORDER_SLOTS, axis=-1)
            cut = size[rows, order[:, BORDER_SLOTS]] < SLOT_DELTA_MIN
            full, slot = rows[cut], rows[~cut]
            edges = order[slot, :BORDER_SLOTS]
            free = tan[slot]
            free[np.arange(len(slot))[:, None], edges] = np.inf
            cot = 1.0 / free                # |cot| >= 1 on U, 0 on the bordered edges
            offset[slot] += np.sum(cot > 0.0, axis=-1)
            for part in _stacks(len(slot), (self.rank + BORDER_SLOTS) ** 2) if len(slot) else ():
                r = slot[part]
                factors = (ks[r], sign[r], tan[r], edges[part], cot[part])
                yield r, (self._matrices(*factors), offset[r], factors)
        # an empty group takes no stack, unless there are no points at all
        for part in _stacks(len(full), (self.rank + e) ** 2) if len(full) or not len(ks) else ():
            r = full[part]
            factors = (ks[r], sign[r], tan[r], None, None)
            yield r, (self._matrices(*factors), offset[r], factors)

    def gaps(self, vals):
        """(ahead, behind) per point: the smallest eigenvalue of H counted as
        nonnegative and the distance of the largest negative one below 0,
        inf where there is none."""
        neg, n = self._index(vals), vals.shape[-1]
        rows = np.arange(len(vals))
        ahead = np.where(neg < n, vals[rows, np.minimum(neg, n - 1)], np.inf)
        return np.maximum(ahead, 0.0), np.where(neg > 0, -vals[rows, neg - 1], np.inf)

    def _step(self, factors):
        """(N(k), Newton step, None) from one eigvalsh and one solve.

        The step -mu / (v+ H'(k) v) moves the eigenvalue mu of H(k) nearest
        0 to 0, v its unit eigenvector from ``_nearest_vector``.  H' has the
        blocks X_S+ diag(t') X_S + X_LU+ diag(d'_U) X_LU, X_LB+ and
        diag(t'_B), with t' = -tan(delta / 2) - kl / (2 cos^2(delta / 2))
        and d' = cot(delta / 2) - (kl / 2)(1 + cot^2(delta / 2)).
        """
        h, offset, (k, sign, tan, edges, cot) = factors
        rank = self.rank
        vals = np.linalg.eigvalsh(h)
        j = np.argmin(np.abs(vals), axis=-1)
        v = _nearest_vector(h, vals, j)
        top, bottom = v[:, :rank], v[:, rank:]
        ua, ub = _rows(top, self.qa.T), _rows(top, self.qb.T)
        x_l = ua - sign * ub
        kl = k[:, None] * self.lengths
        rate = -tan - 0.5 * kl * (1.0 + tan ** 2)
        terms = rate * np.abs(ua + sign * ub) ** 2
        if edges is not None:
            terms += np.where(cot != 0.0, cot - 0.5 * kl * (1.0 + cot ** 2), 0.0) \
                * np.abs(x_l) ** 2
            points = np.arange(len(k))[:, None]
            rate, x_l = rate[points, edges], x_l[points, edges]
        slope = np.sum(terms, axis=-1) + np.sum(
            rate * np.abs(bottom) ** 2 + 2.0 * (x_l.conj() * bottom).real, axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            return offset + self._index(vals), -vals[np.arange(len(vals)), j] / slope, None


@dataclass(frozen=True)
class _Forest:
    """Node layout of ``_TreeCount``: a node per set of ends of rank one
    and a node per edge, numbered by depth from the centre of each tree."""

    n_comps: int
    levels: tuple           # (lo, hi) node range per depth, the roots at depth 0
    ups: tuple              # per depth d: (n_(d+1), n_d) 0/1 map of each child to its parent
    parent: np.ndarray      # parent node, 0 at a root
    mix: np.ndarray         # (2E, n): node diagonal -k [tan(delta / 2), sin delta] @ mix - sigma
    sigma: np.ndarray       # u+ L'' u on a set node, 0 on an edge node
    gain: np.ndarray        # |H[v, parent]| / k, the |u| of the end that links them; 0 at a root


def _local_forest(dec: Decomposition) -> _Forest | None:
    """The ``_TreeCount`` layout of a pair, or None where the count stays dense.

    Ends i and j are coupled where |p_perp_ij| > PATTERN_TOL or |L''_ij| >
    PATTERN_TOL max(1, max|L''|).  The layout exists when every connected
    set of coupled ends carries rank (the trace of p_perp on it) at most
    one, and the graph of the sets of rank one, joined by the edges whose
    two ends they hold, is a forest: no cycle and no edge with both ends in
    one set.  Kirchhoff, Neumann, Dirichlet and Robin conditions, and any
    mix of them vertex by vertex, qualify on a tree; a graph with a cycle,
    or a pair that couples ends at different vertices, does not.
    """
    dim = dec.dim
    n_edges = dim // 2
    p, l2 = dec.p_perp, dec.l_dprime
    coupled = (np.abs(p) > PATTERN_TOL) \
        | (np.abs(l2) > PATTERN_TOL * max(1.0, float(np.abs(l2).max())))
    head = list(range(dim))

    def find(i):
        while head[i] != i:
            i = head[i]
        return i

    for i, j in zip(*(ends.tolist() for ends in np.nonzero(np.triu(coupled, 1)))):
        head[find(i)] = find(j)
    label = [find(end) for end in range(dim)]
    weight = np.real(np.diagonal(p)).tolist()
    rank: dict = {}
    for root, w in zip(label, weight):
        rank[root] = rank.get(root, 0.0) + w
    if max(round(r) for r in rank.values()) > 1:
        return None
    sets = {root: c for c, root in enumerate(r for r, w in rank.items() if round(w) == 1)}
    member = [sets.get(root, -1) for root in label]
    m = len(sets)
    # per set, the column of p_perp with the largest diagonal spans it
    spans = [-1] * m
    for end, c in enumerate(member):
        if c >= 0 and (spans[c] < 0 or weight[end] > weight[spans[c]]):
            spans[c] = end
    u = p[:, spans] * (np.array(member)[:, None] == np.arange(m)) \
        / np.sqrt([weight[end] for end in spans])
    sigma = np.real(np.sum(u.conj() * (l2 @ u), axis=0))
    # the snap of ``decompose``: rounding noise is no Robin parameter
    snap = LAMBDA_FLOOR * max(1.0, float(np.max(np.abs(dec.sigma_l), initial=0.0)))
    sigma[np.abs(sigma) < snap] = 0.0
    end_of = {end: (c, size) for end, (c, size)
              in enumerate(zip(member, np.abs(u).sum(axis=1).tolist())) if c >= 0}

    n = m + n_edges
    links: list = [[] for _ in range(n)]        # (neighbour, |u_end|)
    head = list(range(n))                       # ``find`` now joins nodes: a cycle check
    for end, (c, size) in end_of.items():
        edge = m + end % n_edges
        if find(c) == find(edge):
            return None
        head[find(c)] = find(edge)
        links[c].append((edge, size))
        links[edge].append((c, size))

    def bfs(start):
        seen = {start: (None, 0.0, 0)}          # node -> (parent, |u_end| of the link, depth)
        order = [start]
        for v in order:
            for w, size in links[v]:
                if w not in seen:
                    seen[w] = (v, size, seen[v][2] + 1)
                    order.append(w)
        return order, seen

    placed: dict = {}
    for v in range(n):
        if v not in placed:
            # the centre of a tree is the middle of a longest path
            order, seen = bfs(bfs(v)[0][-1])
            path = [order[-1]]
            while seen[path[-1]][0] is not None:
                path.append(seen[path[-1]][0])
            placed.update(bfs(path[len(path) // 2])[1])
    nodes = sorted(placed, key=lambda v: placed[v][2])
    pos = {v: i for i, v in enumerate(nodes)}
    depth = [placed[v][2] for v in nodes]
    levels = tuple((depth.index(d), len(depth) - depth[::-1].index(d))
                   for d in range(depth[-1] + 1))

    mix, sigma_nodes = np.zeros((dim, n)), np.zeros(n)
    for end, (c, size) in end_of.items():
        mix[end % n_edges, pos[c]] += size * size
    parent, gain = np.zeros(n, dtype=int), np.zeros(n)
    for i, v in enumerate(nodes):
        if v < m:
            sigma_nodes[i] = sigma[v]
        else:
            mix[n_edges + v - m, i] = 1.0
        above, size, _ = placed[v]
        if above is not None:
            parent[i], gain[i] = pos[above], size
    ups = []
    for (lo, hi), (c_lo, c_hi) in zip(levels, levels[1:]):
        up = np.zeros((c_hi - c_lo, hi - lo))
        up[np.arange(c_hi - c_lo), parent[c_lo:c_hi] - lo] = 1.0
        ups.append(up)
    return _Forest(n_comps=m, levels=levels, ups=tuple(ups), parent=parent, mix=mix,
                   sigma=sigma_nodes, gain=gain)


class _TreeCount(_Count):
    """N(k) of ``_PositiveCount`` for a pair that is local on a forest
    (``_local_forest``), from the signs of pivots in place of an eigensolve.

    Sylvester's law of inertia lets any basis P of ran B'+ stand for Q:
    P+ Lambda P - P+ L'' P is congruent to Q+ Lambda Q - diag(sigma).  Here
    P holds one unit vector u per set of coupled ends of rank one, the
    range of p_perp on those ends.  Per edge, with n = rint(kl / pi), the
    reduced argument delta = kl - n pi, t = -k tan(delta / 2) and w =
    -k sin delta, Lambda(k) is the Schur complement over an edge node of

        [[t, 0, k], [0, t, -(-1)^n k], [k, -(-1)^n k, w]]

    on (a-end, b-end, edge node).  So H(k) has t |u_end|^2 summed over the
    ends of a set, minus u+ L'' u, on the diagonal at each set node, w at
    each edge node, and k u_end (times -(-1)^n at a b-end) between an edge
    node and the set of each of its ends: the pattern of a forest.  w < 0
    exactly where delta > 0, so as for the full border of
    ``_PositiveCount``,

        N(k) = sum_e (n_e - 1) + n_-(H(k)),

    with every entry below about k + max|sigma|, also next to a Dirichlet
    point.  Eliminating each node into its parent, from the leaves to the
    centre of each tree, makes no fill, and n_-(H) is the number of
    negative pivots (Jacobs & Trevisan, Linear Algebra Appl. 434, 2011).
    A pivot within 4 n eps of the sum of the moduli of the terms that
    formed it (plus eps k) counts as zero, as ``_index`` counts an
    eigenvalue within its rounding bound, and is replaced by that bound: a
    zero pivot of a child makes its parent negative and cuts the parent off
    from the grandparent, as in exact arithmetic.

    On a tree the spectrum of H depends on the link entries through their
    moduli only (a diagonal of signs is a similarity), so the solves that
    give the Newton steps and the grid gaps take k |u_end| for each link,
    with the pivots of the count.  A stack holds the nodes of each point;
    ``evals`` counts the points eliminated by ``m_many`` and
    ``newton_steps``, ``lu_evals`` those by ``parity``; ``gaps`` solves
    with the pivots that ``m_many`` returns and eliminates nothing.
    """

    name = "elimination"

    def __init__(self, sys: SecularSystem):
        self.forest = f = sys.forest
        n = len(f.sigma)
        # N(k) = sum_e floor(kl / pi) without a set of rank one: no roots between Dirichlet points
        super().__init__(sys, n, roots=f.n_comps > 0)
        self.lengths = sys.lengths
        self.round = 4 * n * EPS
        self.starts = _iteration_start(2 * n).reshape(2, n)
        self.gain_sq, self.two_gain = f.gain ** 2, 2.0 * f.gain
        # per depth from the deepest: (lo, hi, map of its children into it, None at the deepest)
        self.sweep = [(*f.levels[d], f.ups[d] if d < len(f.ups) else None)
                      for d in reversed(range(len(f.levels)))]
        # solves: (children, parents, map) from the deepest, (children, their parents) back
        self.rise = [(lo, hi, *f.levels[d], f.ups[d])
                     for d, (lo, hi) in reversed(list(enumerate(f.levels[1:])))]
        self.fall = [(lo, hi, f.parent[lo:hi]) for lo, hi in f.levels[1:]]

    def _parts(self, ks):
        """(rows, (N(k), (k, pivots, kl, [tan(delta / 2), sin delta],
        delta))) per stack: pivots from the leaves to the roots."""
        for rows in _stacks(len(ks), self.entries):
            k = ks[rows]
            kc = k[:, None]
            kl = kc * self.lengths
            turns = np.rint(kl * (1.0 / math.pi))
            delta = kl - turns * math.pi
            ends = np.concatenate([np.tan(0.5 * delta), np.sin(delta)], axis=1)
            pivots = _rows(ends, self.forest.mix) * -kc - self.forest.sigma
            slack = self.round * np.abs(pivots) + EPS * kc
            weight = (kc * kc) * self.gain_sq
            for lo, hi, up in self.sweep:
                a, bound = pivots[:, lo:hi], slack[:, lo:hi]
                if up is not None:
                    a -= _rows(terms, up)
                    bound = bound + self.round * _rows(np.abs(terms), up)
                np.copyto(a, bound, where=np.abs(a) <= bound)
                if lo:                          # the roots, from node 0, feed no parent
                    terms = weight[:, lo:hi] / a
            counts = (turns.sum(axis=1) + (pivots < 0.0).sum(axis=1)).astype(int) - kl.shape[1]
            yield rows, (counts, (k, pivots, kl, ends, delta))

    def _solve(self, down, pivots, z):
        """H^-1 z in place per point, for z of shape (points, vectors,
        nodes): eliminate towards the roots, then substitute back, with
        down = |H[v, parent]| / pivot_v."""
        for lo, hi, p_lo, p_hi, up in self.rise:
            z[..., p_lo:p_hi] -= (down[..., lo:hi] * z[..., lo:hi]) @ up
        z /= pivots
        for lo, hi, above in self.fall:
            z[..., lo:hi] -= down[..., lo:hi] * z[..., above]
        return z

    def _iterate(self, k, pivots, starts, steps):
        """(x, y): steps of inverse iteration at shift 0 from starts, a
        stack (vectors, nodes), with the pivots of the count at k; y =
        H^-1 x is the last step.  Each point solves on its own (points,
        vectors, nodes) slice, so its bits do not depend on the other
        points."""
        down = ((k[:, None] * self.forest.gain) / pivots)[:, None, :]
        pivots = pivots[:, None, :]
        y = np.empty((len(k),) + starts.shape)
        y[...] = starts
        for _ in range(steps - 1):
            y = self._solve(down, pivots, y)
        return y, self._solve(down, pivots, y.copy())

    @staticmethod
    def _read(factors):
        """(N(k), [k, pivots]): ``gaps`` takes the pivots, not eigenvalues."""
        counts, (k, pivots, *_) = factors
        return counts, np.concatenate((k[:, None], pivots), axis=1)

    @staticmethod
    def _signs(factors):
        """(-1)^N(k), from the same elimination as the count."""
        return 1 - 2 * (factors[0] % 2)

    def gaps(self, vals):
        """(ahead, behind) per row [k, pivots] of ``m_many``: the smallest
        nonnegative Ritz value of H and the distance of the largest negative
        one below 0, inf where there is none.  The Ritz values are the two
        roots theta of det(Y+ X - theta Y+ Y) = 0 for three steps Y = H^-1 X
        of inverse iteration from two start vectors: one vector finds only
        the eigenvalue nearest 0, which often lies on the wrong side of 0."""
        theta = []
        for rows in _stacks(len(vals), self.entries):
            block = vals[rows]
            x, y = self._iterate(block[:, 0], block[:, 1:], self.starts, 3)
            size = np.sqrt((y * y).sum(axis=-1, keepdims=True))
            x, y = x / size, y / size
            a, g = y @ np.swapaxes(x, 1, 2), y @ np.swapaxes(y, 1, 2)
            a11, a12, a22 = a[:, 0, 0], 0.5 * (a[:, 0, 1] + a[:, 1, 0]), a[:, 1, 1]
            g11, g12, g22 = g[:, 0, 0], g[:, 0, 1], g[:, 1, 1]
            c2, c0 = g11 * g22 - g12 * g12, a11 * a22 - a12 * a12
            c1 = a11 * g22 + a22 * g11 - 2.0 * a12 * g12
            big = c1 + np.copysign(np.sqrt(np.maximum(c1 * c1 - 4.0 * c2 * c0, 0.0)), c1)
            with np.errstate(divide="ignore", invalid="ignore"):
                theta.append(np.stack([2.0 * c0 / big, 0.5 * big / c2], axis=-1))
        theta = np.concatenate(theta)
        return (np.min(np.where(theta >= 0.0, theta, np.inf), axis=-1),
                np.min(np.where(theta < 0.0, -theta, np.inf), axis=-1))

    def _step(self, factors):
        """(N(k), Newton step, None): the step -mu / (v+ H'(k) v) moves the
        eigenvalue mu of H nearest 0 to 0, v its unit vector, from the
        Rayleigh quotient mu = y+ x / y+ y of two steps x = H^-1 b, y =
        H^-1 x (``_iteration_start``).  H' has t' = -tan(delta / 2) -
        kl / (1 + cos delta) in place of t, w' = -sin delta - kl cos delta
        in place of w and the link entries over k."""
        f = self.forest
        counts, (k, pivots, kl, ends, delta) = factors
        x, y = (v[:, 0] for v in self._iterate(k, pivots, self.starts[:1], 2))
        size = (y * y).sum(axis=1)
        mu, v = (x * y).sum(axis=1) / size, y / np.sqrt(size)[:, None]
        cos = np.cos(delta)
        rate = -ends - np.concatenate([kl / (1.0 + cos), kl * cos], axis=1)
        slope = (_rows(rate, f.mix) * v + self.two_gain * v[:, f.parent]) * v
        with np.errstate(divide="ignore", invalid="ignore"):
            return counts, -mu / slope.sum(axis=1), None


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

def _refine_brackets(count, brackets, tol: float):
    """Split count-carrying brackets (lo, hi, M(lo), M(hi), guess) into roots.

    Refinement runs in rounds; each takes one Newton step in every open
    bracket, from its guess (or midpoint), and makes at most one stacked
    call of each kind: the Newton steps (``count.newton_steps``, which may give the
    count at each iterate as well), the LU of every point of a simple
    bracket (g = |M(hi) - M(lo)| = 1: the count is M(lo) or M(hi), and the
    sign of a determinant tells them apart, ``count.parity``) and the
    eigensolve of the other points (``count.m_many``).  A count equal to an
    end count moves that end to its point; one strictly between splits the
    bracket there, and both parts go on from the iterate of the step, or,
    given the step from the other side of 0 (``_NegativeCount``), a simple
    part from whichever step lands inside it and a part of several roots
    from its midpoint.  An iterate that leaves its bracket restarts from
    the midpoint.  Once a step is below tol/4, or a step s after a step s'
    leaves the error |s|^3 / s'^2 of quadratic convergence below the float
    spacing at k, the count is taken at k* -+ tol/2 around the new iterate
    k*: if the whole jump lies between the two (an end standing in for a
    point outside, if it lies within tol/2 of k*), it is a g-fold root at
    k* clamped between them; otherwise each part that they cut goes on, or
    places its jump at k* clamped into it if it lies within tol/2 of k*.  A
    bracket no wider than tol is a root at its midpoint.  Parts keep the
    steps of their bracket, so each bracket of round r has taken r - 1
    steps, and none takes more than NEWTON_BUDGET.  Ends move by equality
    of counts, so a count may increase (``_CayleyCount``,
    ``_PositiveCount``) or decrease (``_NegativeCount``) across a root.

    A round holds its open brackets as the columns of one array (ends, end
    counts and their parities, g, iterate, last step size) and applies each
    rule to all of them at once, with masks; only splits and certificate
    points that leave a jump outside tol/2 of k* build new brackets.
    |s|^3 and s'^2 are numpy products, which may round an ulp away from
    Python's pow, so a stop within 1e-13 of its bound is decided with
    Python floats.  Returns (sorted (k, g) list, number of rounds).
    """
    if not len(brackets):
        return [], 0
    half = 0.5 * tol
    offsets = np.array([[-half], [half]])
    found = []      # (k, g) rows of the roots

    def admit(lo, hi, mlo, mhi, guess, other=None):
        """State columns of the brackets (lo, hi] with a jump, wider than tol
        (a narrower one is a root at its midpoint), from guess or, given
        other, from the step inside, as the rules above say."""
        g, mid = abs(mhi - mlo), 0.5 * (lo + hi)
        keep = (g > 0) & (hi - lo > tol)
        if np.count_nonzero(keep) < np.count_nonzero(g):
            found.append(np.array([mid, g]).compress((g > 0) & ~keep, axis=1))
        if other is not None:
            guess = np.where(g > 1, np.nan, np.where((lo < guess) & (guess < hi), guess, other))
        k = np.where((lo < guess) & (guess < hi), guess, mid)
        return np.array([lo, hi, mlo, mhi, 1 - 2 * (mlo % 2), 1 - 2 * (mhi % 2), g, k,
                         np.zeros(len(k))]).compress(keep, axis=1)

    def count_at(xs, own, far, sign_own):
        """The count at points xs of brackets with end counts own and far:
        in a simple bracket, own where the sign of a determinant is
        sign_own = (-1)^own, else far; the other points take ``m_many``."""
        simple = abs(far - own) == 1
        if np.count_nonzero(simple) == len(xs):
            sign = count.parity(xs)
        else:
            sign = np.zeros(len(xs), dtype=int)
            sign[simple] = count.parity(xs[simple]) if np.count_nonzero(simple) else 0
        m = np.where(sign == sign_own, own, far)
        rest = sign == 0
        if np.count_nonzero(rest):
            m[rest] = count.m_many(xs[rest])[0]
        return m

    def cut(m, counted):
        """Apply the counts m at the iterates x (where counted): move ends,
        and split an unconverged bracket.  Returns the rows split, or None."""
        at = m == state[2:4]
        if counted is not None:
            at &= counted
        np.copyto(state[:2], x, where=at)
        if np.count_nonzero(at) == n - (0 if counted is None else n_conv):
            return None
        split = ~(conv | at[0] | at[1])
        if not np.count_nonzero(split):
            return None
        lo_s, hi_s, mlo_s, mhi_s, x_s, m_s, k_s = np.array(
            [lo, hi, mlo, mhi, x, m, k]).compress(split, axis=1)
        parts = [np.concatenate(pair) for pair in
                 ((lo_s, x_s), (x_s, hi_s), (mlo_s, m_s), (m_s, mhi_s), (k_s, k_s))]
        if other is not None:
            parts.append(np.tile((x + other)[split], 2))
        opened.append(admit(*parts))
        return split

    def certify(rows, probe, points, counted):
        """Roots and brackets of the up to three parts that the certificate
        points of rows, with the counts counted there, cut."""
        ends = np.where(probe, points, state[:2])
        part = np.array([lo, ends[0], ends[1], hi, mlo, counted[0], counted[1], mhi,
                         k]).compress(rows, axis=1)
        p_lo, p_hi, c_lo, c_hi, at = part[0:3], part[1:4], part[4:7], part[5:8], part[8]
        jump, near = c_lo != c_hi, (p_lo >= at - half) & (p_hi <= at + half)
        found.append(np.array([np.minimum(np.maximum(at, p_lo), p_hi),
                               abs(c_hi - c_lo)])[:, jump & near])
        go = jump & ~near
        if np.count_nonzero(go):
            opened.append(admit(p_lo[go], p_hi[go], c_lo[go], c_hi[go],
                                np.broadcast_to(at, go.shape)[go]))

    given = np.asarray(brackets, dtype=float).reshape(-1, 5).T
    state = admit(*given)
    # unless tol is below two float spacings in the hull of the given brackets,
    # a bracket wider than tol has its midpoint inside, and k* -+ tol/2 != k*
    below_spacing = tol < 2.0 * EPS * float(np.max(np.abs(given[:2])))
    rounds = 0
    while state.shape[1]:
        rounds += 1
        lo, hi, mlo, mhi, sign_lo, _, g, x, last = state
        m, step, other = count.newton_steps(x)
        if rounds > NEWTON_BUDGET:
            raise ToleranceTooCoarse("Newton refinement budget exhausted")
        # a Newton step converges quadratically: after steps s' then s the
        # error is about |s|^3 / s'^2, and once that is below the float
        # spacing at k no step can improve k
        size = abs(step)
        conv = size <= 0.25 * tol
        if np.count_nonzero(last):          # else only the first rule can stop
            bound = EPS * abs(x) * (last * last)
            over = size * size * size - bound
            conv |= (size < last) & (over <= 0.0)
            tie = abs(over) <= 1e-13 * bound
            for i in np.flatnonzero(tie).tolist() if np.count_nonzero(tie) else ():
                s, s_last = float(size[i]), float(last[i])
                conv[i] = s <= 0.25 * tol or s < s_last and \
                    s ** 3 <= EPS * abs(float(x[i])) * s_last ** 2
        n, n_conv = len(x), np.count_nonzero(conv)
        k, split, opened = x + step, None, []
        if m is not None:
            # (a converged iterate splits nothing: its certificate points do)
            split = cut(m, None)
            np.minimum(np.maximum(k, lo), hi, out=k)
        # the round's count points: certificate points k* -+ tol/2, and the
        # unconverged iterates of a count that gives none with its step
        xs = own = far = sign_own = np.zeros(0)
        if n_conv:
            points = k + offsets
            probe = (lo < points) & (points < hi) & conv
            xs, own, far, sign_own = (points[probe], state[2:4][probe], state[3:1:-1][probe],
                                      state[4:6][probe])
        n_probe, pending = len(xs), ~conv if m is None and n_conv < n else None
        if pending is not None:
            xs, own, far, sign_own = (np.concatenate([a, b[pending]]) for a, b in
                                      zip((xs, own, far, sign_own), (x, mlo, mhi, sign_lo)))
        ms = count_at(xs, own, far, sign_own) if len(xs) else xs
        if pending is not None:
            counted = np.zeros(n)
            counted[pending] = ms[n_probe:]
            split = cut(counted, pending)
        if n_conv:
            # the whole jump lies between the certificate points (an end for
            # one outside) where they hold the end counts and lie within tol/2
            # of k*, as they do when k* is clamped in and tol/2 exceeds spacing
            counted = state[2:4].copy()
            counted[probe] = ms[:n_probe]
            hit = counted == state[2:4]
            whole, at = conv & hit[0] & hit[1], k
            if m is None or below_spacing:
                ends = np.where(probe, points, state[:2])
                whole &= (ends[0] >= points[0]) & (ends[1] <= points[1])
                at = np.minimum(np.maximum(k, ends[0]), ends[1])
            found.append(np.array([at, g]).compress(whole, axis=1))
            if np.count_nonzero(whole) < n_conv:
                certify(conv & ~whole, probe, points, counted)
        if n_conv < n:
            # an unconverged bracket no wider than tol is a root at its
            # midpoint; an iterate that left its bracket restarts there
            live = ~conv if split is None else ~(conv | split)
            mid = 0.5 * (lo + hi)
            done = live & (hi - lo <= tol)
            if below_spacing:
                done |= live & ((mid <= lo) | (mid >= hi))
            if np.count_nonzero(done):
                found.append(np.array([mid, g]).compress(done, axis=1))
                live &= ~done
            state[7], state[8] = k, size
            out = ~((lo < k) & (k < hi))
            if np.count_nonzero(out):
                np.copyto(state[7:], [mid, np.zeros(n)], where=out)
            if np.count_nonzero(live) < n:
                state = state.compress(live, axis=1)
        else:
            state = state[:, :0]
        if opened:
            state = np.concatenate([state, *opened], axis=1)
    ks, gs = np.concatenate(found, axis=1) if found else np.zeros((2, 0))
    return sorted(zip(ks.tolist(), gs.astype(int).tolist())), rounds


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

    The count is exact at every k, so the grid only seeds brackets:
    GRID_DENSITY points per mean crossing spacing 2 pi / sum(w).  It is
    picked once per system: ``_CayleyCount`` for the first-order operator,
    and for the squared one ``_TreeCount`` where the pair has a forest
    layout (``SecularSystem.forest``), else ``_PositiveCount``.
    For the squared operator each Dirichlet point p adds the bracket
    (p - tol/2, p + tol/2], and a jump of N across it is a root at p with
    that multiplicity.  Every other step with a jump goes to
    ``_refine_brackets``, with a first Newton iterate interpolated from the
    distances (``gaps``) of the count to its next and last jump.  ``m_lo``, when
    given, replaces the count at k_lo.  The grid and each refinement round
    take one stacked call of each kind unless a stack passes STACK_ENTRIES.

    Returns:
        (sorted (k, g) list, stats) with stats the eval counts per stage
        (grid and Dirichlet probes, refinement), the refinement rounds,
        the roots read off at Dirichlet points, the grid step and the
        ``name`` of the count: "cayley", "elimination" or "dense".
    """
    if sys.kind == BK:
        count = _CayleyCount(sys)
    else:
        count = _PositiveCount(sys) if sys.forest is None else _TreeCount(sys)
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

    pole_at = np.full(len(points) - 1, np.nan)       # p of each Dirichlet bracket
    if poles.size:
        pole_at[np.searchsorted(points, p_lo)] = poles
    jumps = np.diff(m_vals)
    steps = np.flatnonzero(jumps)
    at_pole = ~np.isnan(pole_at[steps])
    roots = list(zip(pole_at[steps[at_pole]].tolist(), np.abs(jumps[steps[at_pole]]).tolist()))
    pole_roots = len(roots)
    # gaps only at the two ends of each step that is refined
    steps = steps[~at_pole]
    ahead, behind = count.gaps(vals[np.concatenate([steps, steps + 1])])
    ahead, behind = ahead[:len(steps)], behind[len(steps):]
    lo, hi = points[steps], points[steps + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        guesses = lo + (hi - lo) * ahead / (ahead + behind)
    brackets = np.stack([lo, hi, m_vals[steps], m_vals[steps + 1], guesses], axis=1)

    refined, rounds = _refine_brackets(count, brackets, tol)
    return sorted(roots + refined), {
        "grid_evals": grid_evals,
        "refine_evals": count.evals - grid_evals + count.lu_evals,
        "refine_eig_evals": count.evals - grid_evals, "refine_lu_evals": count.lu_evals,
        "refine_rounds": rounds, "pole_roots": pole_roots, "scan_step": step,
        "count": count.name}


def check_tol(tol: float, k_range) -> None:
    """Raise ValidationError unless tol >= 4 eps max(1, |k_min|, |k_max|):
    a finer bracket would be below the float spacing of the window, and
    no root can be located to half of it."""
    floor = 4.0 * EPS * max([1.0, *(abs(float(k)) for k in k_range)])
    if not tol >= floor:
        raise ValidationError(f"tol must be at least 4 eps max(1, |k_min|, |k_max|) = "
                              f"{floor:.3g} on this window, got {tol!r}")


def find_spectrum(sys: SecularSystem, k_range, tol: float = DEFAULT_TOL,
                  workers: int = 1) -> Spectrum:
    """All real eigenvalues in k_range with multiplicities.

    For the squared operator only positive wave numbers are reported
    (lambda = k^2); the zero eigenvalue is characterized separately, as in
    :func:`zero_mode_test`, and attached as ``zero_mode``.  The window then
    starts at ``_window_floor(k_max)`` or above.  A zero mode leaves the
    Hermitian matrix an eigenvalue that stays below rounding some way above
    the floor, so a window that starts within one grid step of the floor
    is scanned from the floor, where the count is the number of
    eigenvalues of M(0) = Q+ Lambda(0) Q - diag(sigma) at or below its
    rounding bound (the negative eigenvalues plus g0, from the eigvalsh
    that gives g0), and the levels up to k_min are dropped.

    Roots are the jumps of an integer count that is exact at every k (the
    winding count M(k) of ``_CayleyCount`` for the first-order operator,
    N(k) of ``_TreeCount`` or ``_PositiveCount`` for the squared one), found as the module
    docstring describes: a grid seeds brackets, each Dirichlet point p is
    the bracket (p - tol/2, p + tol/2], and ``_refine_brackets`` takes
    every bracket to its roots with Newton steps, degenerate levels
    included, in rounds on stacked calls.

    Args:
        sys: secular system.
        k_range: (k_min, k_max) search window.
        tol: certified bracket width; located roots are accurate to tol/2.
            At least 4 eps max(1, |k_min|, |k_max|) (``check_tol``).
        workers: accepted and ignored; the window is scanned on the
            calling thread.  Threads contend for the interpreter lock
            after each short LAPACK call: two ran slower than one below
            about 21 count-matrix rows, and the jobs this package serves
            (rings, stars, Dirichlet boxes) stay far below that.

    ``diagnostics["matrix_evals"]`` counts the matrices evaluated: grid
    points, Dirichlet probes, Newton steps and certificates, but not the
    Newton inverses of the first-order count.  It is the sum of
    ``grid_evals`` (grid and Dirichlet probes) and
    ``refine_evals``, which splits into ``refine_eig_evals`` (matrices
    eigensolved) and ``refine_lu_evals`` (counts read off one LU);
    ``refine_rounds`` counts refinement rounds,
    ``pole_roots`` the roots read off at Dirichlet points,
    ``scan_step`` is the grid step used, and ``count`` names the count:
    "cayley" (first order), "elimination" (``_TreeCount``) or "dense"
    (``_PositiveCount``).
    """
    k_lo, k_hi = float(k_range[0]), float(k_range[1])
    if not (k_lo < k_hi):
        raise ValidationError("need k_min < k_max")
    check_tol(tol, (k_lo, k_hi))

    zero_mode = m_lo = None
    start = k_lo
    if sys.kind == BK2:
        g0, n_zero, below = _zero_modes(sys)
        zero_mode = (g0, n_zero)
        floor = _window_floor(k_hi)
        k_lo = max(k_lo, floor)
        if k_lo >= k_hi:
            return Spectrum(kind=sys.kind, eigenvalues=(), k_window=(k_lo, k_hi),
                            zero_mode=zero_mode)
        # H resolves a zero mode only some way above the floor (about 3e-4
        # for Robin rho = 1 on l = 2), so a window starting within one grid
        # step of the floor is scanned from there, from the count of M(0)
        if start <= floor or (g0 and start < floor + _scan_step(float(np.sum(sys.weights)))):
            start, m_lo = floor, below

    roots, stats = _scan(sys, start, k_hi, tol, m_lo)
    roots = tuple(r for r in roots if r[0] > k_lo)
    diag = {
        "matrix_evals": stats["grid_evals"] + stats["refine_evals"],
        "n_roots": len(roots),
        "bracket_tol": tol,
        **stats,
    }
    return Spectrum(kind=sys.kind, eigenvalues=roots,
                    k_window=(k_lo, k_hi), zero_mode=zero_mode,
                    diagnostics=diag)


# ---------------------------------------------------------------------------
# Zero modes and negative spectrum (squared operator)
# ---------------------------------------------------------------------------

def _zero_modes(sys: SecularSystem) -> tuple:
    """(g0, N, N(0+)): the zero-mode data of ``zero_mode_test`` and the
    number of eigenvalues <= 0, all from one eigvalsh of M(0).  Lambda_e(0)
    = (1/l_e) [[1, -1], [-1, 1]] has rank one, so M(0) = D+ diag(1/l) D -
    diag(sigma) with D = Q_a - Q_b, the a-end rows of Q minus its b-end
    rows."""
    if sys.kind != BK2:
        raise ValidationError("zero_mode_test applies to the squared operator")
    q, e = sys.dec.ran_vectors, len(sys.lengths)
    d = q[:e] - q[e:]
    mu = np.linalg.eigvalsh((d.conj().T / sys.lengths) @ d - np.diag(sys.dec.sigma_l))
    bound = _rounding_bound(mu)
    return (int(np.sum(np.abs(mu) <= bound)), _unit_count(sys.u_matrix(0.0), MULT_TOL),
            int(np.sum(mu <= bound)))


def zero_mode_test(sys: SecularSystem) -> tuple:
    """Multiplicity data (g0, N) of the zero eigenvalue.

    g0 is the dimension of the lambda = 0 eigenspace.  No Dirichlet
    eigenvalue sits at 0, so by Friedlander's identity it is the nullity of
    M(0) = Q+ Lambda(0) Q - diag(sigma), with Lambda_e(0) =
    (1/l_e) [[1, -1], [-1, 1]] the Dirichlet-to-Neumann map of linear
    functions: one eigvalsh, whose eigenvalues within the rounding bound
    4 n eps max|mu| of ``_HermitianCount._index`` count as zero.  N is the
    order of the k = 0 zero of the secular function, the unit-eigenvalue
    multiplicity of S''(0) T(0), from singular values within MULT_TOL.
    """
    return _zero_modes(sys)[:2]


def find_negative_eigenvalues(sys: SecularSystem, kappa_max: float):
    """Eigenvalues lambda = -kappa^2 of the squared operator, kappa <= kappa_max.

    Returns the sorted list of (kappa, multiplicity) over kappa in
    (kappa_lo, top], kappa_lo = ``_window_floor(top)``.  Per edge the
    smallest eigenvalue of Lambda(kappa) is kappa tanh(kappa l/2) > kappa
    - 2/l, and Q has orthonormal columns, so no bound state lies above
    top = min(kappa_max, max sigma + 2 / l_min), and none at all when max
    sigma <= 0; a large kappa_max coarsens neither the floor nor the
    width.  They are the jumps of the integer count N(kappa) of
    eigenvalues below -kappa^2 (see ``_NegativeCount``), located by
    ``_refine_brackets`` with Newton steps from the one bracket
    (kappa_lo, top], to width NEGATIVE_TOL max(1, top); the size of a jump
    is the multiplicity, so roots of even order are found like simple ones.

    For kappa l >> 1, Lambda(kappa) -> kappa I and M(kappa) -> kappa I -
    diag(sigma): each sigma_j > 0 is the bound state kappa = sigma_j of a
    Robin half-line.  The first iterate is the lower median of the sigma_j
    with sigma_j l_min > SEED_BINDING, where an edge with sigma_j at both
    ends binds a state on each side of sigma_j.  Below that product such
    an edge binds one state only, above sigma_j, and the search starts at
    the midpoint, which takes fewer count calls there than sigma_j.  After
    that each part of a split takes the Newton step from its own side of 0
    (``_NegativeCount._step``).
    """
    if sys.kind != BK2:
        raise ValidationError("negative eigenvalues exist only for the squared operator")
    if kappa_max <= 0:
        raise ValidationError("kappa_max must be positive")
    sigma_max = float(np.max(sys.dec.sigma_l, initial=-math.inf))
    top = min(kappa_max, sigma_max + 2.0 / float(np.min(sys.lengths)))
    lo = _window_floor(top)
    if sigma_max <= 0.0 or lo >= top:
        return []
    count = _NegativeCount(sys)
    n_lo, n_hi = count.m_many([lo, top])[0].tolist()
    seeds = np.sort(sys.dec.sigma_l[sys.dec.sigma_l * np.min(sys.lengths) > SEED_BINDING])
    seed = float(seeds[(len(seeds) - 1) // 2]) if len(seeds) else None
    roots, _ = _refine_brackets(count, [(lo, top, n_lo, n_hi, seed)],
                                NEGATIVE_TOL * max(1.0, top))
    return roots


# ---------------------------------------------------------------------------
# Weyl law
# ---------------------------------------------------------------------------

#: counting conventions of ``weyl_fit``; two_sided is first-order only
WEYL_SIDES = ("positive", "two_sided")


def check_side(side, kind: str) -> None:
    """Raise ValidationError unless side is one of WEYL_SIDES, and two_sided
    only for the first-order operator (kind BK)."""
    if side not in WEYL_SIDES:
        raise ValidationError(f"unknown side {side!r}; expected one of {WEYL_SIDES}")
    if side == "two_sided" and kind == BK2:
        raise ValidationError("two_sided counting applies to the first-order operator")


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
    check_side(side, spectrum.kind)
    total = graph.total_length
    weyl_slope = total / math.pi
    if side == "positive":
        pairs = [(k, g) for k, g in spectrum.eigenvalues if k > 0]
        expected = weyl_slope if spectrum.kind == BK2 else total / TWO_PI
    else:
        pairs = sorted((abs(k), g) for k, g in spectrum.eigenvalues)
        expected = weyl_slope
    if sum(g for _, g in pairs) < 20:
        raise InsufficientData("need at least 20 eigenvalues for a Weyl fit")

    ks = np.array([k for k, _ in pairs])
    ns = np.cumsum([g for _, g in pairs])
    slope, intercept = np.polyfit(ks, ns, 1)
    return WeylFit(slope=float(slope), intercept=float(intercept), side=side,
                   expected_slope=float(expected),
                   rel_error_vs_weyl=float(abs(slope - weyl_slope) / weyl_slope),
                   n_points=len(ks))
