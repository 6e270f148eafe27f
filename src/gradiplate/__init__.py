"""Spectral simulator and semigroup diagnostics for hinged thermoelastic
plates with second-gradient heat conduction."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DegenerateCapacity,
    EpsilonOutOfRange,
    GradiplateError,
    InsufficientSamples,
    NonDecreasingEnergy,
    NonFiniteResult,
    NonPositiveEnergy,
    PointOutsideDomain,
    PreconditionUnmet,
    SingularSystem,
)
from .model import (
    Direction,
    HilbertWeight,
    Interval,
    Mode,
    ModeMatrix,
    ModelParams,
    Rectangle,
    Regime,
    SpectralDomain,
    enumerate_modes,
    hilbert_weight,
    mode_matrix,
)
from .propagator import (
    EnergyBalanceReport,
    EnergyBreakdown,
    FieldValues,
    ModeState,
    SpectralState,
    Trajectory,
    TrajectorySample,
    energy_balance_report,
    energy_of,
    evolve,
    evolve_mode,
    state_from_coefficients,
    synthesize_field,
)
from .quasistatic import (
    QuasiDecayReport,
    QuasiParams,
    QuasiState,
    effective_capacity,
    evolve_theta,
    quasi_decay_report,
)
from .resolvent import (
    NondiffLimitReport,
    NondiffSequencePoint,
    ResolventRHS,
    ResolventScan,
    mode_resolvent_norm,
    nondiff_limit_check,
    nondiff_sequence,
    resolvent_norm,
    resonant_omega_grid,
    scan_imaginary_axis,
    solve_mode_resolvent,
)
from .spectrum import (
    DecayFit,
    ModeSpectrum,
    StripReport,
    asymptotic_strip,
    cubic_roots,
    fit_decay,
    mode_eigenvalues,
    spectral_abscissa,
)
from .functionals import (
    BackwardIdentityReport,
    ConvexityReport,
    ConvexityState,
    ConvexityTrajectory,
    GronwallReport,
    InstabilityReport,
    LyapunovSample,
    LyapunovSeries,
    PhiSolution,
    choose_weight_shift,
    convexity_residual_check,
    convexity_trajectory,
    gronwall_check,
    instability_lower_bound,
    lagrange_functionals,
    lyapunov_series,
    phi_coefficients,
    verify_backward_identities,
)
