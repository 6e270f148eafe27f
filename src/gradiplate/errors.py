"""Exception types shared across the package."""

from __future__ import annotations


class GradiplateError(Exception):
    """Base class for all package-specific errors."""


class NonFiniteResult(GradiplateError):
    """Evolution overflowed (expected only in the unstable regime at large t).

    Carries the first time at which a non-finite coefficient appeared.
    """

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


class InsufficientSamples(GradiplateError):
    """A trajectory-based diagnostic was given too few samples."""


class PointOutsideDomain(GradiplateError):
    """A field-evaluation point lies outside the spatial domain."""


class SingularSystem(GradiplateError):
    """A mode resolvent system was (numerically) singular.

    With c > 0 and eta != 0 the imaginary axis lies in the resolvent set.
    With eta = 0 the plate decouples and is undamped, so i omega =
    +-i sqrt(c/rho) lam is an eigenvalue, which a resonant frequency grid
    hits exactly; the CLI reports that as a failed check (exit 3).
    """


class EpsilonOutOfRange(GradiplateError):
    """The Lyapunov mixing parameter must lie strictly in (0, 1)."""


class NonPositiveEnergy(GradiplateError):
    """Decay fitting requires strictly positive energies."""


class NonDecreasingEnergy(GradiplateError):
    """Decay fitting requires decreasing energies (signals misuse with c <= 0)."""


class DegenerateCapacity(GradiplateError):
    """Quasi-static effective heat capacity a + eta^2/c is not positive."""


class PreconditionUnmet(GradiplateError):
    """A documented precondition of a diagnostic was violated.

    The violated condition is named in the message and kept in `condition`.
    """

    def __init__(self, condition: str):
        super().__init__(f"precondition unmet: {condition}")
        self.condition = condition


class ConfigError(GradiplateError):
    """A run configuration failed to parse or validate."""
