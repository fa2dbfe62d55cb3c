"""Spectral toolkit for the xp dilation operator and its square on compact
metric graphs with logarithmic edge lengths."""

from .errors import (
    ComputeError,
    ConditionViolated,
    ConvergenceFailure,
    GraphError,
    HermiticityViolation,
    InsufficientData,
    ParseError,
    RangeExceeded,
    RankAmbiguous,
    RankDeficient,
    SingularAtK,
    TailBoundExceeded,
    ToleranceTooCoarse,
    ValidationError,
    XpGraphsError,
)
from .extensions import (
    BK,
    BK2,
    Decomposition,
    DilationMatrices,
    ExtensionSpec,
    decompose,
    extension_from_smatrix,
    from_interval_conditions,
    is_squared_form,
    is_time_reversal,
    s_matrix_bk,
    s_matrix_bk2,
    squared_extension,
    standard_bc,
    validate_extension,
)
from .graph import (
    MetricEdge,
    MetricGraph,
    PeriodicOrbit,
    enumerate_orbits,
    orbit_amplitude,
)
from .halfline import (
    HalflineState,
    evolve_bk,
    fermi_amplitude_closed,
    fermi_packet,
    gamma_complex,
    generalized_eigenfunction,
    green_bk2,
    kernel_bk2,
    mellin_amplitude,
    reconstruct_from_amplitude,
    zeta_critical,
)
from .spectra import (
    SecularSystem,
    Spectrum,
    WeylFit,
    find_negative_eigenvalues,
    find_spectrum,
    secular,
    t_matrix,
    weyl_fit,
    zero_mode_test,
)
from .traces import (
    HeatTracePair,
    TestFunction,
    TraceReport,
    counting_comparison,
    ebk_levels,
    gaussian,
    gaussian_shifted,
    heat_trace_pair,
    riemann_counting,
    semiclassical_counts,
    tabulated,
    trace_lhs,
    trace_rhs_bk,
    trace_rhs_bk2,
)

__version__ = "0.1.0"
