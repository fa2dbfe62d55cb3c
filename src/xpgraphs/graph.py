"""Compact metric graphs with logarithmic edge lengths and periodic orbits.

Each edge carries an interval [a, b] with 0 < a < b; its metric length is
ln(b/a), so the graph is "hyperbolic" in one dimension.  Periodic orbits
are equivalence classes (up to cyclic rotation) of closed bond sequences
whose consecutive transitions are allowed by the nonzero pattern of a
scattering matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GraphError

#: absolute tolerance for length comparisons, in log units
LENGTH_TOL = 1e-12

#: relative threshold below which a scattering entry counts as zero
PATTERN_TOL = 1e-13


@dataclass(frozen=True)
class MetricEdge:
    """One edge, an interval [a, b] between two vertices."""

    id: str
    a: float
    b: float
    start: str
    end: str

    def __post_init__(self):
        if not (0.0 < self.a < self.b < math.inf):
            raise GraphError(
                f"edge {self.id!r}: need 0 < a < b < inf, got a={self.a}, b={self.b}"
            )

    @property
    def log_length(self) -> float:
        return math.log(self.b / self.a)


@dataclass(frozen=True)
class MetricGraph:
    """A finite collection of metric edges; vertices are derived."""

    edges: tuple[MetricEdge, ...]
    directed: bool = False

    def __post_init__(self):
        if not self.edges:
            raise GraphError("graph needs at least one edge")
        object.__setattr__(self, "edges", tuple(self.edges))
        seen = set()
        for e in self.edges:
            if e.id in seen:
                raise GraphError(f"duplicate edge id {e.id!r}")
            seen.add(e.id)

    @classmethod
    def from_intervals(cls, intervals, directed: bool = False,
                       vertices=None) -> "MetricGraph":
        """Build a graph from (a, b) pairs.

        Without explicit vertex assignments every edge becomes a loop on its
        own vertex, which is the common setup for single-edge systems.
        """
        edges = []
        for i, (a, b) in enumerate(intervals):
            if vertices is not None:
                u, v = vertices[i]
            else:
                u = v = f"v{i}"
            edges.append(MetricEdge(id=f"e{i}", a=float(a), b=float(b),
                                    start=u, end=v))
        return cls(edges=tuple(edges), directed=directed)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def vertices(self) -> frozenset:
        vs = set()
        for e in self.edges:
            vs.add(e.start)
            vs.add(e.end)
        return frozenset(vs)

    @property
    def log_lengths(self) -> np.ndarray:
        return np.array([e.log_length for e in self.edges])

    @property
    def total_length(self) -> float:
        return float(np.sum(self.log_lengths))

    @property
    def a_values(self) -> np.ndarray:
        return np.array([e.a for e in self.edges])

    @property
    def b_values(self) -> np.ndarray:
        return np.array([e.b for e in self.edges])

    def is_connected(self, directed: bool | None = None) -> bool:
        """Whether every vertex is reachable from every other.

        With ``directed=True`` this is strong connectivity (forward and
        backward reachability from an arbitrary root).
        """
        if directed is None:
            directed = self.directed
        verts = sorted(self.vertices)
        index = {v: i for i, v in enumerate(verts)}
        fwd = [[] for _ in verts]
        bwd = [[] for _ in verts]
        for e in self.edges:
            u, v = index[e.start], index[e.end]
            fwd[u].append(v)
            bwd[v].append(u)
            if not directed:
                fwd[v].append(u)
                bwd[u].append(v)

        def reachable(adj):
            seen = {0}
            stack = [0]
            while stack:
                for w in adj[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            return len(seen) == len(verts)

        if not reachable(fwd):
            return False
        return reachable(bwd) if directed else True


# ---------------------------------------------------------------------------
# Periodic orbits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PeriodicOrbit:
    """Equivalence class of closed bond sequences.

    ``bonds`` is the lexicographically minimal rotation of the sequence;
    ``length`` equals ``repetition * primitive_length`` up to LENGTH_TOL.
    """

    bonds: tuple[int, ...]
    length: float
    primitive_length: float
    repetition: int

    @property
    def n_steps(self) -> int:
        return len(self.bonds)


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


def _make_orbit(seq: tuple[int, ...], weights: np.ndarray) -> PeriodicOrbit:
    canon = _min_rotation(seq)
    p = _primitive_period(canon)
    prim = float(sum(weights[b] for b in canon[:p]))
    total = float(sum(weights[b] for b in canon))
    return PeriodicOrbit(bonds=canon, length=total, primitive_length=prim,
                         repetition=len(canon) // p)


def enumerate_orbits(pattern: np.ndarray, weights, max_length: float,
                     pattern_tol: float = PATTERN_TOL) -> list[PeriodicOrbit]:
    """Enumerate periodic orbits of length <= max_length (inclusive).

    Args:
        pattern: square matrix; a step from bond j to bond i is allowed
            when ``abs(pattern[i, j])`` exceeds ``pattern_tol`` times the
            largest entry.  Only the nonzero pattern matters.
        weights: per-bond lengths in log units; an orbit's length is the
            sum of the weights of the bonds it visits.
        max_length: inclusive cutoff on orbit length.

    Returns:
        Orbits sorted by (length, bonds), one per cyclic equivalence class.
    """
    pattern = np.asarray(pattern)
    weights = np.asarray(weights, dtype=float)
    if max_length <= 0:
        raise GraphError("max_length must be positive")
    if pattern.ndim != 2 or pattern.shape[0] != pattern.shape[1]:
        raise GraphError(f"pattern must be square, got shape {pattern.shape}")
    d = pattern.shape[0]
    if weights.shape != (d,):
        raise GraphError(
            f"pattern dimension {d} does not match bond count {weights.shape}"
        )
    if np.any(weights <= 0):
        raise GraphError("bond weights must be positive")

    scale = float(np.max(np.abs(pattern))) if pattern.size else 0.0
    if scale == 0.0:
        return []
    allowed = [
        [i for i in range(d) if abs(pattern[i, j]) > pattern_tol * scale]
        for j in range(d)
    ]

    found: dict[tuple[int, ...], PeriodicOrbit] = {}
    budget = max_length + LENGTH_TOL

    def grow(start: int, seq: list[int], acc: float):
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


def orbit_amplitude(orbit: PeriodicOrbit, s_matrix: np.ndarray) -> complex:
    """Stability amplitude: primitive length times the product of scattering
    entries over the orbit's consecutive (wrap-around included) transitions."""
    s_matrix = np.asarray(s_matrix)
    n = orbit.n_steps
    if s_matrix.shape[0] != s_matrix.shape[1] or s_matrix.shape[0] <= max(orbit.bonds):
        raise GraphError("scattering matrix does not cover the orbit's bonds")
    prod = complex(1.0)
    for i in range(n):
        prod *= s_matrix[orbit.bonds[(i + 1) % n], orbit.bonds[i]]
    return orbit.primitive_length * prod
