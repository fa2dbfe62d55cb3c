"""Exception types shared across the package.

Every failure mode that a caller can act on gets its own class; the CLI
maps them onto stable machine-readable error codes.
"""


class XpGraphsError(Exception):
    """Base class for all package-specific errors."""

    code = "ERROR"


class GraphError(XpGraphsError):
    """Malformed graph data (empty graph, bad interval, dangling vertex)."""

    code = "GRAPH_INVALID"


class HermiticityViolation(XpGraphsError):
    """Boundary matrices fail the A B+ = B A+ compatibility condition."""

    code = "HERMITICITY_VIOLATION"


class RankDeficient(XpGraphsError):
    """The concatenated boundary matrix (A, B) has numerical rank < m."""

    code = "RANK_DEFICIENT"


class RankAmbiguous(XpGraphsError):
    """Singular values of B' sit inside the rank-decision band.

    The caller must supply an explicit rank tolerance to disambiguate.
    """

    code = "RANK_AMBIGUOUS"


class SingularAtK(XpGraphsError):
    """S-matrix evaluation requested at a pole on the imaginary axis."""

    code = "SINGULAR_AT_K"


class ToleranceTooCoarse(XpGraphsError):
    """Root scan could not separate crossings within the refinement budget."""

    code = "TOLERANCE_TOO_COARSE"


class RangeExceeded(XpGraphsError):
    """Counting function outside the computed spectral window, half-line
    amplitude beyond ``halfline.AMPLITUDE_K_MAX``, or a trace sum beyond
    its size bound (``traces.ORBIT_STEPS_MAX`` and the like)."""

    code = "RANGE_EXCEEDED"


class InsufficientData(XpGraphsError):
    """Not enough eigenvalues for the requested fit."""

    code = "INSUFFICIENT_DATA"


class TailBoundExceeded(XpGraphsError):
    """Spectral sum truncation error exceeds the requested budget."""

    code = "TAIL_BOUND_EXCEEDED"


class ConditionViolated(XpGraphsError):
    """Trace-formula hypothesis l_min > l(sigma) fails for this extension."""

    code = "CONDITION_VIOLATED"


class ConvergenceFailure(XpGraphsError):
    """Adaptive quadrature did not reach the requested tolerance."""

    code = "CONVERGENCE_FAILURE"


class ParseError(XpGraphsError):
    """Job configuration could not be parsed."""

    code = "PARSE_ERROR"


class ValidationError(XpGraphsError):
    """Job configuration parsed but failed semantic validation."""

    code = "VALIDATION_ERROR"


class ComputeError(XpGraphsError):
    """A computation failed after validation succeeded."""

    code = "COMPUTE_ERROR"
