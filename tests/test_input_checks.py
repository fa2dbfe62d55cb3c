"""Each public entry point refuses a bad argument with its documented error
class, before any computation: one case per input check of the library
that no other test reaches."""

import math

import numpy as np
import pytest

import xpgraphs as xg
from xpgraphs import halfline

EDGE = xg.MetricGraph.from_intervals([(1.0, math.e)])
RING = xg.MetricGraph.from_intervals([(1.0, math.e)], directed=True)
PAIR = xg.MetricGraph.from_intervals([(1.0, math.e), (1.0, 2.0)])
#: log length 1e-3, so exp(-eta l) rounds to 1 on every line of a wide Gaussian
SHORT = xg.MetricGraph.from_intervals([(1.0, math.exp(1e-3))], directed=True)


def dirichlet_system(graph):
    dec = xg.decompose(xg.standard_bc("dirichlet", graph), xg.DilationMatrices.from_graph(graph))
    return xg.SecularSystem.bk2(dec, graph)


def ring_system():
    return xg.SecularSystem.bk(np.array([[1.0 + 0j]]), RING)


def one_step_orbit():
    return xg.PeriodicOrbit(bonds=(1,), length=1.0, primitive_length=1.0, repetition=1)


#: case -> (error class, message pattern, call)
CASES = {
    # extensions
    "validate-unknown-kind": (
        xg.ValidationError, "unknown operator kind",
        lambda: xg.validate_extension(np.eye(1), np.zeros((1, 1)), kind="x")),
    "s-matrix-of-squared-pair": (
        xg.ValidationError, "needs a first-order",
        lambda: xg.s_matrix_bk(xg.standard_bc("dirichlet", EDGE))),
    "decompose-first-order-pair": (
        xg.ValidationError, "needs a second-order",
        lambda: xg.decompose(xg.standard_bc("ring_phase", RING, c=0.3),
                             xg.DilationMatrices.from_graph(RING))),
    "decompose-other-graph": (
        xg.ValidationError, "do not match the extension size",
        lambda: xg.decompose(xg.standard_bc("dirichlet", PAIR),
                             xg.DilationMatrices.from_graph(EDGE))),
    "squared-extension-size": (
        xg.ValidationError, "S must be E x E",
        lambda: xg.squared_extension(np.eye(2), EDGE)),
    "interval-conditions-size": (
        xg.ValidationError, "must be 2E x 2E",
        lambda: xg.from_interval_conditions(np.eye(3), np.eye(3), EDGE)),
    "standard-bc-unknown-kind": (
        xg.ValidationError, "unknown boundary kind",
        lambda: xg.standard_bc("wobbly", EDGE)),
    # graph
    "orbits-max-length": (
        xg.GraphError, "max_length must be positive",
        lambda: xg.enumerate_orbits(np.ones((1, 1)), [1.0], 0.0)),
    "orbits-pattern-not-square": (
        xg.GraphError, "pattern must be square",
        lambda: xg.enumerate_orbits(np.ones((1, 2)), [1.0], 3.0)),
    "orbits-weight-not-positive": (
        xg.GraphError, "weights must be positive",
        lambda: xg.enumerate_orbits(np.ones((1, 1)), [0.0], 3.0)),
    "amplitude-short-matrix": (
        xg.GraphError, "does not cover",
        lambda: xg.orbit_amplitude(one_step_orbit(), np.eye(1))),
    # halfline
    "evolve-nonpositive-x": (
        xg.ValidationError, "x > 0",
        lambda: xg.evolve_bk(xg.fermi_packet, 1.0, np.array([1.0, -1.0]))),
    "kernel-nonpositive-x": (
        xg.ValidationError, "x, x0 > 0",
        lambda: xg.kernel_bk2(-1.0, 1.0, 1.0)),
    "green-nonpositive-x": (
        xg.ValidationError, "x, x0 > 0",
        lambda: xg.green_bk2(1.0, 0.0, 1.0)),
    "mellin-vanishing-packet": (
        xg.ValidationError, "vanishes",
        lambda: xg.mellin_amplitude(lambda x: 0.0 * x, 1.0)),
    # spectra
    "bk-system-size": (
        xg.ValidationError, "must equal the edge count",
        lambda: xg.SecularSystem.bk(np.eye(2), EDGE)),
    "bk2-system-size": (
        xg.ValidationError, "twice the edge count",
        lambda: xg.SecularSystem.bk2(dirichlet_system(PAIR).dec, EDGE)),
    "zero-mode-first-order": (
        xg.ValidationError, "squared operator",
        lambda: xg.zero_mode_test(ring_system())),
    "bound-states-first-order": (
        xg.ValidationError, "squared operator",
        lambda: xg.find_negative_eigenvalues(ring_system(), 1.0)),
    "bound-states-kappa-max": (
        xg.ValidationError, "kappa_max must be positive",
        lambda: xg.find_negative_eigenvalues(dirichlet_system(EDGE), 0.0)),
    # traces
    "gaussian-width": (
        xg.ValidationError, "width t must be positive",
        lambda: xg.gaussian(0.0)),
    "shifted-gaussian-width": (
        xg.ValidationError, "width t must be positive",
        lambda: xg.gaussian_shifted(-1.0, 2.0)),
    "orbit-sum-norm-above-one": (
        xg.ConditionViolated, "> 1",
        lambda: xg.trace_rhs_bk(RING, np.array([[2.0]]), xg.gaussian(1.0))),
    "orbit-sum-no-strip": (
        xg.ConditionViolated, "no strip",
        lambda: xg.trace_rhs_bk(SHORT, np.array([[1.0 + 1e-13]]), xg.gaussian(1e30),
                                orbit_cutoff=0.01)),
    "trace-rhs-size": (
        xg.ValidationError, "must equal the edge count",
        lambda: xg.trace_rhs_bk(RING, np.eye(2), xg.gaussian(1.0))),
    "heat-trace-time": (
        xg.ValidationError, "t must be positive",
        lambda: xg.heat_trace_pair(EDGE, 0.0)),
    "riemann-counting-energy": (
        xg.ValidationError, "energy must be positive",
        lambda: xg.riemann_counting(0.0)),
    "semiclassical-energy": (
        xg.ValidationError, "energy must be positive",
        lambda: xg.semiclassical_counts(-1.0)),
    "ebk-negative-n-max": (
        xg.ValidationError, "n_max must be nonnegative",
        lambda: xg.ebk_levels(1.0, 0.0, -1, "ring_bk")),
    "ebk-unknown-kind": (
        xg.ValidationError, "unknown EBK kind",
        lambda: xg.ebk_levels(1.0, 0.0, 3, "wobbly")),
    "counting-window-short": (
        xg.ValidationError, "does not reach k_start",
        lambda: xg.counting_comparison(xg.find_spectrum(ring_system(), (-10.0, 10.0)), RING,
                                       k_start=10.0)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_input_check(case):
    error, match, call = CASES[case]
    with pytest.raises(error, match=match):
        call()


def test_mellin_quadrature_that_does_not_converge():
    # a packet with jumps: the trapezoid error falls like 1/n and never
    # twice in a row below MELLIN_TOL, up to the shipped MELLIN_LEVELS
    with pytest.raises(xg.ConvergenceFailure,
                       match=f"within {halfline.MELLIN_LEVELS} refinements"):
        xg.mellin_amplitude(lambda x: np.where((x > 1.0) & (x < 2.0), 1.0, 0.0), 0.5)
