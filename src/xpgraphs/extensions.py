"""Boundary matrices classifying self-adjoint realizations, and S-matrices.

A realization of the first-order (momentum-like) operator on an E-edge
graph is a pair of E x E matrices (A, B) with A B+ = B A+ and maximal rank
of (A, B); the second-order operator uses 2E x 2E pairs.  Both carry a
unitary scattering matrix: a constant one for the first-order operator and
a k-dependent family for the second-order one, obtained from the normal
form (projector onto ker B' plus a Hermitian block L'').
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    HermiticityViolation,
    RankAmbiguous,
    RankDeficient,
    SingularAtK,
    ValidationError,
)
from .graph import MetricGraph

#: default relative singular-value threshold for numerical rank decisions
RANK_TOL = 1e-10

#: largest entry of A B+ - B A+, relative to max(1, max|A| max|B|), of a
#: self-adjoint pair (``validate_extension``)
HERM_TOL = 1e-12

#: largest Hermiticity defect of L'', relative to max(1, max|L''|)
#: (``decompose``)
L_DPRIME_HERM_TOL = 1e-9

#: relative distance |lam + ik| / (|lam| + |k|) at or below which k is a pole of
#: S''(k) (``_denominators``)
POLE_TOL = 1e-12

#: width (in decades, each side) of the ambiguity band around the threshold
_RANK_BAND = 1e2

#: eigenvalues of L'' at or below this magnitude are exact zeros, not poles
LAMBDA_FLOOR = 1e-11

BK = "bk"
BK2 = "bk2"


@dataclass(frozen=True)
class ExtensionSpec:
    """Validated boundary-matrix pair defining a self-adjoint realization."""

    a: np.ndarray
    b: np.ndarray
    kind: str  # BK (m = E) or BK2 (m = 2E)

    @property
    def m(self) -> int:
        return self.a.shape[0]


def validate_extension(a, b, kind: str = BK) -> ExtensionSpec:
    """Check the self-adjointness conditions on a boundary pair.

    Raises:
        HermiticityViolation: A B+ differs from B A+ entrywise beyond
            HERM_TOL (scaled by the matrix magnitudes).
        RankDeficient: the m x 2m concatenation (A, B) has numerical
            rank below m, relative to RANK_TOL.
    """
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    b = np.atleast_2d(np.asarray(b, dtype=complex))
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValidationError(
            f"boundary matrices must be square and equal-sized, got {a.shape}, {b.shape}"
        )
    if kind not in (BK, BK2):
        raise ValidationError(f"unknown operator kind {kind!r}")
    m = a.shape[0]

    scale = max(1.0, float(np.max(np.abs(a)) * np.max(np.abs(b))))
    defect = np.max(np.abs(a @ b.conj().T - b @ a.conj().T))
    if defect > HERM_TOL * scale:
        raise HermiticityViolation(
            f"A B+ - B A+ has max entry {defect:.3e} (tolerance {HERM_TOL * scale:.3e})"
        )

    sv = np.linalg.svd(np.hstack([a, b]), compute_uv=False)
    if sv[m - 1] < RANK_TOL * sv[0]:
        raise RankDeficient(
            f"rank(A, B) < {m}: singular values span {sv[0]:.3e}..{sv[m-1]:.3e}"
        )

    # invertibility of A +- iB is guaranteed by the two conditions above;
    # checked anyway to catch inconsistent input early
    for sgn in (+1.0, -1.0):
        s = np.linalg.svd(a + sgn * 1j * b, compute_uv=False)
        if s[-1] < RANK_TOL * max(s[0], 1e-300):
            raise ValidationError("A +- iB numerically singular for a valid pair")

    return ExtensionSpec(a=a, b=b, kind=kind)


# ---------------------------------------------------------------------------
# Fixed matrices attached to the graph intervals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DilationMatrices:
    """Diagonal interval data and the fixed unitary mapping to symplectic form."""

    d_ab: np.ndarray    # diag(a_1..a_E, b_1..b_E)
    i_pm: np.ndarray    # diag(+1_E, -1_E)
    u: np.ndarray       # fixed unitary with U (i I_pm) U+ = J
    j: np.ndarray       # symplectic unit

    @classmethod
    def from_graph(cls, graph: MetricGraph) -> "DilationMatrices":
        e = graph.n_edges
        d_ab = np.diag(np.concatenate([graph.a_values, graph.b_values]))
        i_pm = np.diag(np.concatenate([np.ones(e), -np.ones(e)]))
        eye = np.eye(e)
        # block by block into preallocated arrays: np.block costs more than
        # the arithmetic at these sizes, and -eye keeps its signed zeros
        u = np.empty((2 * e, 2 * e), dtype=complex)
        u[:e, :e], u[:e, e:], u[e:, :e], u[e:, e:] = 1j * eye, eye, -eye, -1j * eye
        u /= np.sqrt(2.0)
        j = np.zeros((2 * e, 2 * e))
        j[:e, e:], j[e:, :e] = eye, -eye
        return cls(d_ab=d_ab, i_pm=i_pm, u=u, j=j)

    @property
    def sqrt_d(self) -> np.ndarray:
        return np.diag(np.sqrt(np.diag(self.d_ab)))

    @property
    def inv_sqrt_d(self) -> np.ndarray:
        return np.diag(1.0 / np.sqrt(np.diag(self.d_ab)))


# ---------------------------------------------------------------------------
# First-order operator: constant S-matrix
# ---------------------------------------------------------------------------

def s_matrix_bk(spec: ExtensionSpec) -> np.ndarray:
    """Scattering matrix i (A + iB)^-1 (A - iB); unitary and k-independent.

    The inverse acts on the left: that is the order produced by the
    secular-equation derivation and the one invariant under the gauge
    freedom (A, B) -> (CA, CB).
    """
    if spec.kind != BK:
        raise ValidationError("s_matrix_bk needs a first-order (E x E) extension")
    return 1j * np.linalg.solve(spec.a + 1j * spec.b, spec.a - 1j * spec.b)


def extension_from_smatrix(v: np.ndarray) -> ExtensionSpec:
    """Boundary pair ((I - iV)/2, (V - iI)/2) realizing a given unitary V."""
    v = np.atleast_2d(np.asarray(v, dtype=complex))
    eye = np.eye(v.shape[0])
    return validate_extension((eye - 1j * v) / 2.0, (v - 1j * eye) / 2.0, kind=BK)


# ---------------------------------------------------------------------------
# Second-order operator: normal form and k-dependent S-matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Decomposition:
    """Normal form of a second-order boundary pair.

    ``p_ker`` projects onto ker B' (B' = B D^-1/2), ``p_perp`` onto its
    orthogonal complement; ``l_dprime`` is the Hermitian block whose
    eigenvalues ``sigma_l`` (restricted to ran B'+) locate the poles of the
    S-matrix on the imaginary axis.  A'' = p_ker + l_dprime, B'' = p_perp.
    """

    p_ker: np.ndarray
    p_perp: np.ndarray
    l_prime: np.ndarray
    l_dprime: np.ndarray
    a_dprime: np.ndarray
    b_dprime: np.ndarray
    sigma_l: np.ndarray      # eigenvalues of L'' on ran B'+ (length = rank B')
    ran_vectors: np.ndarray  # orthonormal eigenvectors, columns, 2E x rank

    @property
    def dim(self) -> int:
        return self.p_ker.shape[0]

    @property
    def rank(self) -> int:
        return self.ran_vectors.shape[1]

    @property
    def poles(self) -> np.ndarray:
        """Nonzero eigenvalues of L'': S''(k) has poles at k = +- i poles."""
        return self.sigma_l[np.abs(self.sigma_l) > LAMBDA_FLOOR]

    @property
    def k_independent(self) -> bool:
        """The S-matrix family is constant exactly when L'' vanishes."""
        return self.poles.size == 0


def decompose(spec: ExtensionSpec, dil: DilationMatrices,
              rank_tol: float | None = None) -> Decomposition:
    """Compute the normal form (projectors, L', L'', A'', B'') of a pair.

    Raises:
        RankAmbiguous: a singular value of B' falls inside the decision
            band around the rank threshold and no explicit ``rank_tol``
            was supplied.
    """
    if spec.kind != BK2:
        raise ValidationError("decompose needs a second-order (2E x 2E) extension")
    dim = spec.m
    if dil.d_ab.shape[0] != dim:
        raise ValidationError("dilation matrices do not match the extension size")

    a_pr = spec.a @ dil.sqrt_d
    b_pr = spec.b @ dil.inv_sqrt_d

    _, sv, vh = np.linalg.svd(b_pr)
    smax = sv[0] if sv.size else 0.0
    explicit = rank_tol is not None
    tol = (rank_tol if explicit else RANK_TOL) * max(smax, 1e-300)
    if smax == 0.0:
        rank = 0
    else:
        if not explicit:
            band = (sv > tol / _RANK_BAND) & (sv < tol * _RANK_BAND)
            if np.any(band):
                raise RankAmbiguous(
                    "singular values of B' fall in the rank-decision band "
                    f"around {tol:.3e}; pass an explicit rank_tol"
                )
        rank = int(np.sum(sv >= tol))

    v = vh.conj().T
    q = v[:, :rank]                     # orthonormal basis of ran B'+
    p_perp = q @ q.conj().T
    p_ker = np.eye(dim) - p_perp

    if rank:
        pinv_b = np.linalg.pinv(b_pr, rcond=tol / max(smax, 1e-300))
        l_prime = p_perp @ (pinv_b @ a_pr) @ p_perp
        l_prime = (l_prime + l_prime.conj().T) / 2.0
    else:
        l_prime = np.zeros((dim, dim), dtype=complex)

    l_dprime = p_perp @ (l_prime - 0.5 * dil.i_pm) @ p_perp
    herm_defect = np.max(np.abs(l_dprime - l_dprime.conj().T))
    if herm_defect > L_DPRIME_HERM_TOL * max(1.0, np.max(np.abs(l_dprime))):
        raise ValidationError(
            f"L'' not Hermitian (defect {herm_defect:.3e}); inconsistent boundary pair"
        )
    l_dprime = (l_dprime + l_dprime.conj().T) / 2.0

    a_dpr = p_ker + l_dprime
    b_dpr = p_perp

    if rank:
        restricted = q.conj().T @ l_dprime @ q
        lam, w = np.linalg.eigh((restricted + restricted.conj().T) / 2.0)
        # snap numerical-noise eigenvalues to exact zeros, else they act
        # like spurious tiny Robin parameters near k = 0
        lam[np.abs(lam) < LAMBDA_FLOOR * max(1.0, np.max(np.abs(lam)))] = 0.0
        vecs = q @ w
    else:
        lam = np.zeros(0)
        vecs = np.zeros((dim, 0), dtype=complex)

    return Decomposition(p_ker=p_ker, p_perp=p_perp, l_prime=l_prime,
                         l_dprime=l_dprime, a_dprime=a_dpr, b_dprime=b_dpr,
                         sigma_l=lam, ran_vectors=vecs)


def _denominators(dec: Decomposition, k):
    """k as a complex array with a trailing axis, and lam + ik for the
    eigenvalues lam of L'' on ran B'+.

    Raises:
        SingularAtK: some nonzero k within POLE_TOL (relative) of a pole;
            k = 0 is exempt, its value is a continuous limit.
    """
    kk = np.asarray(k, dtype=complex)[..., None]
    lam = dec.sigma_l
    denom = lam + 1j * kk
    bad = (np.abs(denom) <= POLE_TOL * (np.abs(lam) + np.abs(kk))) & (kk != 0)
    if np.any(bad):
        *at, j = np.argwhere(bad)[0]
        raise SingularAtK(
            f"k={complex(kk[tuple(at)][0])} hits a pole of S''(k): "
            f"sigma(L'') contains {lam[j]}"
        )
    return kk, denom


def _eigen_sum(dec: Decomposition, values: np.ndarray) -> np.ndarray:
    """V diag(values) V+ on ran B'+, one matrix per leading index of values."""
    v = dec.ran_vectors
    scaled = v * values[..., None, :]
    # one 2-D product over the rows of the whole stack: a stacked matmul
    # of many small matrices is several times slower
    rows = scaled.reshape(-1, dec.rank) @ v.conj().T
    return rows.reshape(scaled.shape[:-1] + (dec.dim,))


def s_matrix_bk2(dec: Decomposition, k) -> np.ndarray:
    """Unitary family S''(k) = -(A'' - ikB'')(A'' + ikB'')^-1.

    Evaluated through the eigendecomposition of L'' on ran B'+,

        S''(k) = -P_ker - V diag((lam - ik)/(lam + ik)) V+,

    so the removable singularity of the raw formula at k = 0 is filled
    with the continuous limit.  k is a scalar or an array of any shape;
    an array gives the stack of shape k.shape + (d, d) from one
    broadcast, and a scalar is a stack of one.  Poles sit at
    k = +- i sigma(L'') on the imaginary axis; real k is always regular.

    Raises:
        SingularAtK: some k within POLE_TOL (relative) of a pole.
    """
    if dec.rank == 0:
        return np.broadcast_to(-dec.p_ker, np.shape(k) + dec.p_ker.shape).astype(complex)
    kk, denom = _denominators(dec, k)
    lam = dec.sigma_l
    # limit along real k at k = 0: ratio -> 1 off the kernel of L'', -1 on it
    limit = np.where(np.abs(lam) > LAMBDA_FLOOR, 1.0, -1.0)
    at_zero = kk == 0
    ratios = np.where(at_zero, limit, (lam - 1j * kk) / np.where(at_zero, 1.0, denom))
    return -dec.p_ker - _eigen_sum(dec, ratios)


def s_matrix_bk2_derivative(dec: Decomposition, k) -> np.ndarray:
    """dS''/dk, from the eigenmode form: each eigenvalue ratio
    (lam - ik)/(lam + ik) differentiates to -2i lam / (lam + ik)^2.

    Scalar or array k and the pole guard as in :func:`s_matrix_bk2`; at
    k = 0 a zero eigenvalue of L'' contributes its limit 0.
    """
    if dec.rank == 0:
        return np.zeros(np.shape(k) + dec.p_ker.shape, dtype=complex)
    kk, denom = _denominators(dec, k)
    lam = dec.sigma_l
    flat = (kk == 0) & (np.abs(lam) <= LAMBDA_FLOOR)
    rates = np.where(flat, 0.0, -2j * lam / np.where(flat, 1.0, denom) ** 2)
    return -_eigen_sum(dec, rates)


# ---------------------------------------------------------------------------
# Link between the first-order operator and its square
# ---------------------------------------------------------------------------

def squared_extension(s_bk: np.ndarray, graph: MetricGraph):
    """Boundary pair of the squared operator built from a unitary S.

    The first-order condition sqrt(a) psi(a) = S sqrt(b) psi(b), applied
    to psi and to its image under the operator, pins the pair

        A = [[-a^-1/2, S b^-1/2], [0, 0]],
        B = [[0, 0], [a^1/2, S b^1/2]]

    (diagonal interval factors sandwiching S).  Returns the pair as an
    ExtensionSpec of kind BK2 together with the resulting constant
    S-matrix, which is the block form [[0, S], [S+, 0]].
    """
    s_bk = np.atleast_2d(np.asarray(s_bk, dtype=complex))
    e = graph.n_edges
    if s_bk.shape != (e, e):
        raise ValidationError("S must be E x E for an E-edge graph")
    ra = np.diag(np.sqrt(graph.a_values))
    rb = np.diag(np.sqrt(graph.b_values))
    ra_inv = np.diag(1.0 / np.sqrt(graph.a_values))
    rb_inv = np.diag(1.0 / np.sqrt(graph.b_values))
    zero = np.zeros((e, e))
    a_t = np.block([[-ra_inv, s_bk @ rb_inv], [zero, zero]])
    b_t = np.block([[zero, zero], [ra, s_bk @ rb]])
    spec = validate_extension(a_t, b_t, kind=BK2)
    s_tilde = np.block([[zero, s_bk], [s_bk.conj().T, zero]])
    return spec, s_tilde


def is_squared_form(s2e: np.ndarray, tol: float = 1e-10) -> bool:
    """Whether a 2E x 2E matrix has the block form [[0, S], [S+, 0]]."""
    s2e = np.asarray(s2e)
    n = s2e.shape[0]
    if n % 2:
        return False
    e = n // 2
    tl, tr = s2e[:e, :e], s2e[:e, e:]
    bl, br = s2e[e:, :e], s2e[e:, e:]
    if max(np.max(np.abs(tl)), np.max(np.abs(br))) > tol:
        return False
    if np.max(np.abs(bl - tr.conj().T)) > tol:
        return False
    return bool(np.max(np.abs(tr @ tr.conj().T - np.eye(e))) <= tol)


def is_time_reversal(s: np.ndarray, tol: float = 1e-10) -> bool:
    """Predicate S^T = S (symmetric scattering)."""
    s = np.asarray(s)
    return bool(np.max(np.abs(s - s.T)) <= tol)


# ---------------------------------------------------------------------------
# Named boundary conditions
# ---------------------------------------------------------------------------

def from_interval_conditions(a_t, b_t, graph: MetricGraph) -> ExtensionSpec:
    """Second-order pair from conditions on the transformed interval picture.

    The substitution y = ln x maps the operator on [a, b] to the standard
    interval Laplacian on [0, ln(b/a)] acting on u(y) = sqrt(x) psi(x).
    Given matrices (A_t, B_t) constraining (u, inward u') at the 2E
    interval ends (a-ends first), this returns the boundary pair in the
    original variables:

        A = (A_t + B_t I_pm / 2) D^-1/2,   B = B_t D^1/2.

    The resulting normal form reproduces the Laplacian's scattering data,
    so secular functions coincide with the textbook interval problem.
    """
    a_t = np.atleast_2d(np.asarray(a_t, dtype=complex))
    b_t = np.atleast_2d(np.asarray(b_t, dtype=complex))
    dil = DilationMatrices.from_graph(graph)
    if a_t.shape[0] != 2 * graph.n_edges:
        raise ValidationError("interval condition matrices must be 2E x 2E")
    a = (a_t + 0.5 * b_t @ dil.i_pm) @ dil.inv_sqrt_d
    b = b_t @ dil.sqrt_d
    return validate_extension(a, b, kind=BK2)


def _kirchhoff_interval_pair(graph: MetricGraph):
    """Continuity plus zero total inward derivative at every vertex."""
    e = graph.n_edges
    dim = 2 * e
    # channel i is the a-end of edge i; channel i+E its b-end
    incidence: dict[str, list[int]] = {}
    for i, edge in enumerate(graph.edges):
        incidence.setdefault(edge.start, []).append(i)
        incidence.setdefault(edge.end, []).append(i + e)
    a_t = np.zeros((dim, dim), dtype=complex)
    b_t = np.zeros((dim, dim), dtype=complex)
    row = 0
    for vertex in sorted(incidence):
        chans = incidence[vertex]
        for first, second in zip(chans, chans[1:]):
            a_t[row, first] = 1.0
            a_t[row, second] = -1.0
            row += 1
        for c in chans:
            b_t[row, c] = 1.0
        row += 1
    assert row == dim
    return a_t, b_t


def finite_reals(data, name: str) -> np.ndarray:
    """data, a number or nested lists of numbers, as a float array.

    Raises:
        ValidationError: data holds a string, a boolean, None or a value
            that is not finite, or its lists are ragged.
    """
    try:
        arr = np.asarray(data)
    except ValueError:                      # ragged nested lists
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf" or not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} must hold finite numbers only")
    return arr.astype(float)


def standard_bc(kind: str, graph: MetricGraph, *, c: float | None = None,
                rho=None) -> ExtensionSpec:
    """Boundary matrices for a named condition.

    Kinds:
        ``dirichlet``   psi = 0 at every interval end (scattering -I).
        ``neumann``     vanishing conormal derivative in the transformed
                        picture (scattering +I); note this is not the raw
                        condition psi' = 0.
        ``robin``       per-endpoint parameters, scattering entries
                        -(rho - ik)/(rho + ik); ``rho`` is a scalar or a
                        length-2E array ordered a-ends then b-ends.
        ``ring_phase``  first-order condition with scattering
                        exp(-2 pi i c) times the cyclic edge shift;
                        requires c in [0, 1).
        ``kirchhoff``   continuity and current conservation at each vertex
                        of the transformed picture.
    """
    e = graph.n_edges
    dim = 2 * e
    if kind == "dirichlet":
        return validate_extension(np.eye(dim), np.zeros((dim, dim)), kind=BK2)
    if kind == "neumann":
        return from_interval_conditions(np.zeros((dim, dim)), np.eye(dim), graph)
    if kind == "robin":
        if rho is None:
            raise ValidationError("robin condition needs rho")
        rho_vec = finite_reals(rho, "robin rho")
        if rho_vec.ndim > 1 or rho_vec.size not in (1, dim):
            raise ValidationError(f"robin rho must be one number or {dim} numbers")
        rho_vec = np.broadcast_to(rho_vec, (dim,)).copy()
        return from_interval_conditions(np.diag(rho_vec), np.eye(dim), graph)
    if kind == "ring_phase":
        if not isinstance(c, numbers.Real) or not 0.0 <= c < 1.0:
            raise ValidationError("ring_phase needs c in [0, 1)")
        shift = np.eye(e)[:, list(range(1, e)) + [0]] if e > 1 else np.eye(1)
        v = np.exp(-2j * np.pi * c) * shift
        return extension_from_smatrix(v)
    if kind == "kirchhoff":
        a_t, b_t = _kirchhoff_interval_pair(graph)
        return from_interval_conditions(a_t, b_t, graph)
    raise ValidationError(f"unknown boundary kind {kind!r}")
