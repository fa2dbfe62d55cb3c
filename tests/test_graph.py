"""Metric graph construction and periodic-orbit enumeration."""

import itertools
import math

import numpy as np
import pytest

import xpgraphs as xg
from xpgraphs.errors import GraphError
from util import random_unitary, reference_orbits


def edge(a, b, eid="e0"):
    return xg.MetricEdge(id=eid, a=a, b=b, start="u", end="v")


class TestLengths:
    def test_log_length_unit(self):
        assert edge(1.0, math.e).log_length == pytest.approx(1.0, abs=1e-15)

    def test_log_length_pi(self):
        assert edge(1.0, math.exp(math.pi)).log_length == pytest.approx(math.pi, abs=1e-12)

    def test_log_length_ln2(self):
        # ln(4/2) from the math.log oracle
        assert edge(2.0, 4.0).log_length == pytest.approx(0.6931471805599453, abs=1e-12)

    def test_total_length_single(self):
        g = xg.MetricGraph.from_intervals([(1.0, math.e)])
        assert g.total_length == pytest.approx(1.0, abs=1e-15)

    def test_total_length_two(self):
        g = xg.MetricGraph.from_intervals([(1.0, math.e), (1.0, math.e ** 2)])
        assert g.total_length == pytest.approx(3.0, abs=1e-12)

    def test_total_length_star(self):
        g = xg.MetricGraph.from_intervals([(1.0, 2.0), (1.0, 3.0), (1.0, 5.0)])
        # ln 2 + ln 3 + ln 5 = ln 30; frozen from math.log(30)
        assert g.total_length == pytest.approx(3.4011973816621555, abs=1e-12)

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            xg.MetricGraph(edges=())

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (-1.0, 2.0), (2.0, 2.0), (3.0, 1.0)])
    def test_bad_interval_rejected(self, a, b):
        with pytest.raises(GraphError):
            edge(a, b)

    def test_duplicate_edge_id_rejected(self):
        with pytest.raises(GraphError):
            xg.MetricGraph(edges=(edge(1, 2, "x"), edge(1, 3, "x")))


class TestConnectivity:
    def test_path_graph_connected(self):
        edges = (
            xg.MetricEdge(id="e0", a=1, b=2, start="u", end="v"),
            xg.MetricEdge(id="e1", a=1, b=2, start="v", end="w"),
        )
        assert xg.MetricGraph(edges=edges).is_connected()

    def test_two_components_disconnected(self):
        edges = (
            xg.MetricEdge(id="e0", a=1, b=2, start="u", end="v"),
            xg.MetricEdge(id="e1", a=1, b=2, start="x", end="y"),
        )
        assert not xg.MetricGraph(edges=edges).is_connected()

    def test_directed_cycle_strongly_connected(self):
        edges = (
            xg.MetricEdge(id="e0", a=1, b=2, start="u", end="v"),
            xg.MetricEdge(id="e1", a=1, b=2, start="v", end="u"),
        )
        assert xg.MetricGraph(edges=edges, directed=True).is_connected()

    def test_directed_path_not_strongly_connected(self):
        edges = (
            xg.MetricEdge(id="e0", a=1, b=2, start="u", end="v"),
            xg.MetricEdge(id="e1", a=1, b=2, start="u", end="v"),
        )
        assert not xg.MetricGraph(edges=edges, directed=True).is_connected()


class TestEnumeration:
    def test_single_loop_repetitions(self):
        # one directed bond with a self-transition; unit length
        orbits = xg.enumerate_orbits(np.array([[1.0]]), [1.0], 3.5)
        assert [(o.length, o.repetition) for o in orbits] == [(1.0, 1), (2.0, 2), (3.0, 3)]
        assert all(o.primitive_length == 1.0 for o in orbits)

    def test_two_bond_bounce(self):
        # single-edge reflecting picture: two bonds, antidiagonal transitions
        pattern = np.array([[0.0, -1.0], [-1.0, 0.0]])
        orbits = xg.enumerate_orbits(pattern, [1.0, 1.0], 4.5)
        assert [(o.length, o.primitive_length, o.repetition) for o in orbits] == [
            (2.0, 2.0, 1), (4.0, 2.0, 2)]

    def test_zero_pattern_empty(self):
        assert xg.enumerate_orbits(np.zeros((2, 2)), [1.0, 1.0], 10.0) == []

    def test_dimension_mismatch(self):
        with pytest.raises(GraphError):
            xg.enumerate_orbits(np.eye(2), [1.0], 3.0)

    def test_long_orbits_need_no_recursion(self):
        # 2,000 steps: far deeper than the interpreter's recursion limit
        orbits = xg.enumerate_orbits(np.array([[1.0]]), [0.01], 20.0)
        assert len(orbits) == 2000
        assert orbits[-1].repetition == 2000

    def test_cutoff_inclusive(self):
        orbits = xg.enumerate_orbits(np.array([[1.0]]), [1.0], 2.0)
        assert [o.length for o in orbits] == [1.0, 2.0]

    def test_canonical_rotation_is_minimal(self):
        pattern = np.ones((3, 3))
        orbits = xg.enumerate_orbits(pattern, [1.0, 1.0, 1.0], 3.0)
        for orb in orbits:
            rotations = [tuple(orb.bonds[i:] + orb.bonds[:i]) for i in range(len(orb.bonds))]
            assert orb.bonds == min(rotations)

    def test_length_equals_repetition_times_primitive(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            pattern = (rng.random((d, d)) < 0.6).astype(float)
            weights = 0.5 + rng.random(d)
            for orb in xg.enumerate_orbits(pattern, weights, 4.0 * float(np.min(weights))):
                assert abs(orb.length - orb.repetition * orb.primitive_length) <= 1e-12


def brute_force_orbits(pattern, weights, max_length):
    """Independent enumeration: filter all bond strings up to the step bound."""
    d = pattern.shape[0]
    w = np.asarray(weights, dtype=float)
    max_steps = int(max_length / np.min(w)) + 1
    found = {}
    for n in range(1, max_steps + 1):
        for seq in itertools.product(range(d), repeat=n):
            if any(pattern[seq[(i + 1) % n], seq[i]] == 0 for i in range(n)):
                continue
            length = float(sum(w[b] for b in seq))
            if length > max_length + 1e-12:
                continue
            canon = min(tuple(seq[i:] + seq[:i]) for i in range(n))
            found[canon] = length
    return found


def brute_force_case(seed):
    rng = np.random.default_rng(100 + seed)
    d = int(rng.integers(1, 4))
    pattern = (rng.random((d, d)) < 0.55).astype(float)
    weights = 0.4 + rng.random(d)
    return pattern, weights, 5.0 * float(np.min(weights))


class TestExhaustiveness:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        pattern, weights, max_length = brute_force_case(seed)
        fast = {o.bonds: o.length
                for o in xg.enumerate_orbits(pattern, weights, max_length)}
        slow = brute_force_orbits(pattern, weights, max_length)
        assert fast.keys() == slow.keys()
        for bonds, length in fast.items():
            assert length == pytest.approx(slow[bonds], abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_periods_match_brute_force(self, seed):
        # the period of a brute-force string is its smallest rotation onto
        # itself; the primitive length sums the bonds of one period
        pattern, weights, max_length = brute_force_case(seed)
        orbits = {o.bonds: o for o in xg.enumerate_orbits(pattern, weights, max_length)}
        for bonds in brute_force_orbits(pattern, weights, max_length):
            n = len(bonds)
            p = next(p for p in range(1, n + 1) if bonds[p:] + bonds[:p] == bonds)
            orb = orbits[bonds]
            assert orb.repetition == n // p
            assert orb.primitive_length == pytest.approx(
                float(sum(weights[b] for b in bonds[:p])), abs=1e-12)


#: weight families for the oracle comparison: generic, integer multiples of
#: one base length (many equal orbit lengths, cutoff hit exactly), all equal
WEIGHT_KINDS = ("random", "commensurate", "tied")


def random_case(seed):
    """d = 1..5, sparse or dense complex pattern, one of WEIGHT_KINDS."""
    rng = np.random.default_rng(300 + seed)
    d = 1 + seed % 5
    density = (0.4, 1.0)[seed // 5 % 2]
    kind = WEIGHT_KINDS[seed // 10 % 3]
    pattern = (rng.random((d, d)) < density) \
        * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    if kind == "random":
        weights = 0.4 + rng.random(d)
        max_length = (4.0 + 2.0 * rng.random()) * float(np.min(weights))
    elif kind == "commensurate":
        weights = 0.5 * rng.integers(1, 4, size=d).astype(float)
        max_length = 0.5 * int(rng.integers(5, 9))
    else:
        weights = np.full(d, 0.7)
        max_length = 0.7 * int(rng.integers(4, 7))
    return pattern, weights, max_length


def star4_kirchhoff():
    """Kirchhoff star with four edges: eight bonds, reflection at the tips."""
    rng = np.random.default_rng(4)
    lengths = 1.05 + 0.3 * rng.random(4)
    g = xg.MetricGraph.from_intervals([(1.0, math.exp(l)) for l in lengths],
                                      vertices=[("c", f"t{i}") for i in range(4)])
    dec = xg.decompose(xg.standard_bc("kirchhoff", g), xg.DilationMatrices.from_graph(g))
    system = xg.SecularSystem.bk2(dec, g)
    return system.bond_matrix(1.0), system.weights, 16.0


def first_order_e3():
    """Random unitary S on three edges: every step allowed."""
    rng = np.random.default_rng(3)
    return random_unitary(rng, 3), 1.3 + 0.4 * rng.random(3), 12.0


def directed_ring2():
    """Two directed edges in a ring with a random 2x2 unitary S."""
    rng = np.random.default_rng(2)
    return random_unitary(rng, 2), 1.65 + 0.2 * rng.random(2), 20.0


BENCH_SHAPED = {"star4-kirchhoff": star4_kirchhoff, "first-order-e3": first_order_e3,
                "directed-ring2": directed_ring2}


class TestAgainstReference:
    """The necklace recursion against the walk-then-canonicalise oracle:
    dataclass equality, so lengths must agree bit for bit."""

    @pytest.mark.parametrize("seed", range(30))
    def test_random_patterns(self, seed):
        pattern, weights, max_length = random_case(seed)
        assert xg.enumerate_orbits(pattern, weights, max_length) \
            == reference_orbits(pattern, weights, max_length)

    @pytest.mark.parametrize("name", sorted(BENCH_SHAPED))
    def test_bench_shaped_graphs(self, name):
        pattern, weights, max_length = BENCH_SHAPED[name]()
        orbits = xg.enumerate_orbits(pattern, weights, max_length)
        assert len(orbits) > 100
        assert orbits == reference_orbits(pattern, weights, max_length)

    def test_each_class_once(self):
        cases = [make() for make in BENCH_SHAPED.values()] \
            + [random_case(seed) for seed in range(30)]
        for case in cases:
            orbits = xg.enumerate_orbits(*case)
            assert len({o.bonds for o in orbits}) == len(orbits)


class TestAmplitudes:
    def test_ring_amplitude(self):
        c = 0.3
        s = np.array([[np.exp(-2j * np.pi * c)]])
        ell = math.log(2.5)
        orbits = xg.enumerate_orbits(s, [ell], 3.2 * ell)
        for orb in orbits:
            n = orb.repetition
            expected = ell * np.exp(-2j * np.pi * c * n)
            assert xg.orbit_amplitude(orb, s) == pytest.approx(expected, abs=1e-12)

    def test_reflecting_edge_amplitude(self):
        pattern = np.array([[0.0, -1.0], [-1.0, 0.0]])
        orbits = xg.enumerate_orbits(pattern, [1.0, 1.0], 2.0)
        (orb,) = orbits
        # two -1 entries along the bounce
        assert xg.orbit_amplitude(orb, pattern) == pytest.approx(2.0, abs=1e-14)

    def test_zero_entry_kills_amplitude(self):
        orbit = xg.PeriodicOrbit(bonds=(0, 1), length=2.0, primitive_length=2.0,
                                 repetition=1)
        s = np.array([[0.0, 1.0], [0.0, 0.0]])  # transition 1 -> 0 missing
        assert xg.orbit_amplitude(orbit, s) == 0.0

    def test_repetition_multiplicativity(self):
        rng = np.random.default_rng(11)
        s = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        weights = np.array([0.7, 0.9, 1.1])
        orbits = xg.enumerate_orbits(s, weights, 5.0 * 0.7)
        primitives = {o.bonds: o for o in orbits if o.repetition == 1}
        for orb in orbits:
            if orb.repetition == 1:
                continue
            p = orb.n_steps // orb.repetition
            prim = primitives[min(tuple(orb.bonds[i:] + orb.bonds[:i])[:p]
                                  for i in range(p))]
            prod_full = xg.orbit_amplitude(orb, s) / orb.primitive_length
            prod_prim = xg.orbit_amplitude(prim, s) / prim.primitive_length
            assert prod_full == pytest.approx(prod_prim ** orb.repetition, rel=1e-10)
