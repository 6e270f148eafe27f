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
        "NonFiniteResult",
        "PreconditionUnmet",
        "SingularSystem",
    ),
    "model": (
        "Direction",
        "Interval",
        "ModelParams",
        "Rectangle",
        "SpectralDomain",
        "enumerate_modes",
    ),
    "propagator": (
        "EnergyBalanceReport",
        "EnergyBreakdown",
        "EnergyHistory",
        "Evolution",
        "Trajectory",
        "energy_balance_report",
        "energy_of",
        "evolve",
    ),
    "quasistatic": (
        "QuasiDecayReport",
        "effective_capacity",
        "quasi_decay_report",
    ),
    "resolvent": (
        "ResolventScan",
        "resonant_omega_grid",
        "scan_imaginary_axis",
    ),
    "nondiff": (
        "NondiffSequence",
        "closed_form_gap",
        "gap_reach",
        "nondiff_sequence",
        "nondiff_target",
    ),
    "abscissa": (
        "spectral_abscissa",
    ),
    "backward": (
        "BackwardIdentityReport",
        "GronwallReport",
        "LyapunovSeries",
        "coupling_sums",
        "gronwall_check",
        "identity_rate",
        "lyapunov_series",
        "verify_backward_identities",
    ),
    "instability": (
        "ConvexityReport",
        "ConvexityTrajectory",
        "InstabilityReport",
        "PhiSolution",
        "choose_weight_shift",
        "convexity_residual_check",
        "convexity_trajectory",
        "instability_lower_bound",
        "phi_coefficients",
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
