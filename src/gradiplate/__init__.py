"""Spectral simulator and semigroup diagnostics for hinged thermoelastic
plates with second-gradient heat conduction.

The public names below load their submodule on first access (PEP 562), so
`import gradiplate` loads no submodule and a CLI process imports only the
modules its subcommand runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# submodule -> the public names it exports at package level
_EXPORTS = {
    "errors": (
        "ConfigError",
        "DegenerateCapacity",
        "EigenvalueOutOfRange",
        "EpsilonOutOfRange",
        "GradiplateError",
        "InsufficientSamples",
        "NonDecreasingEnergy",
        "NonFiniteResult",
        "NonPositiveEnergy",
        "PointOutsideDomain",
        "PreconditionUnmet",
        "SingularSystem",
    ),
    "model": (
        "Direction",
        "HilbertWeight",
        "Interval",
        "ModeMatrix",
        "ModelParams",
        "Modes",
        "Rectangle",
        "Regime",
        "SpectralDomain",
        "enumerate_modes",
        "hilbert_weight",
        "mode_matrix",
    ),
    "propagator": (
        "EnergyBalanceReport",
        "EnergyBreakdown",
        "EnergyHistory",
        "Evolution",
        "FieldValues",
        "ModeState",
        "SpectralState",
        "Trajectory",
        "energy_balance_report",
        "energy_of",
        "evolve",
        "evolve_mode",
        "state_from_coefficients",
        "synthesize_field",
    ),
    "quasistatic": (
        "QuasiDecayReport",
        "QuasiParams",
        "QuasiState",
        "effective_capacity",
        "evolve_theta",
        "quasi_decay_report",
    ),
    "resolvent": (
        "NondiffSequence",
        "ResolventRHS",
        "ResolventScan",
        "closed_form_gap",
        "gap_reach",
        "mode_resolvent_norm",
        "nondiff_sequence",
        "nondiff_target",
        "resolvent_norm",
        "resonant_omega_grid",
        "scan_imaginary_axis",
        "solve_mode_resolvent",
    ),
    "spectrum": (
        "DecayFit",
        "ModeSpectrum",
        "StripReport",
        "asymptotic_strip",
        "cubic_roots",
        "fit_decay",
        "mode_eigenvalues",
        "spectral_abscissa",
    ),
    "functionals": (
        "BackwardIdentityReport",
        "ConvexityReport",
        "ConvexityTrajectory",
        "GronwallReport",
        "InstabilityReport",
        "LyapunovSample",
        "LyapunovSeries",
        "PhiSolution",
        "choose_weight_shift",
        "convexity_residual_check",
        "convexity_trajectory",
        "gronwall_check",
        "instability_lower_bound",
        "lagrange_functionals",
        "lyapunov_series",
        "phi_coefficients",
        "verify_backward_identities",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name in _EXPORTS:
        # `gradiplate.model` after a bare `import gradiplate`
        return _import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SOURCE) | set(_EXPORTS))
