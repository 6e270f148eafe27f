"""Constitutive parameters, spectral domains, and per-mode generator blocks.

The coupled plate/heat system

    rho * u_tt = -c * Lap^2 u + eta * Lap theta
    a * theta_t = b * Lap theta - d * Lap^2 theta - eta * Lap u_t

with hinged boundary conditions (u = Lap u = theta = Lap theta = 0) is
diagonalized exactly by the Dirichlet-Laplacian sine eigenbasis on an
interval or a rectangle.  On the eigenspace of -Lap with eigenvalue lam the
operators reduce to Lap -> -lam and Lap^2 -> lam^2, so the whole dynamics
splits into independent 3x3 blocks acting on the coefficients (u, v, theta)
with v = u_t.  `ModelParams.block_rates` is the one definition of those
blocks: every layer takes their entries from it.

Eigenfunctions are unit-normalized in L2, so per-mode quadratic forms carry
no domain-volume factors.

`log_slope` is the line fit of the growth rate (`instability`) and the
decay rate (`quasistatic`): both modules import this one, and neither the
other.
"""

from __future__ import annotations

import enum
import math
from typing import Union

import numpy as np

from .errors import EigenvalueOutOfRange


class Direction(enum.Enum):
    """Orientation of the per-mode generator (time-reversed heat terms)."""

    FORWARD = "forward"
    BACKWARD = "backward"


class ModelParams:
    """Constitutive constants of the plate/heat system.

    Parameters
    ----------
    rho : mass density, > 0
    a : heat capacity, > 0
    b : thermal conductivity, > 0
    c : elasticity coefficient, nonzero; sign selects the regime
    d : second-gradient heat coefficient, >= 0.  The model proper has d > 0;
        d = 0 is accepted as the classical (no second gradient) contrast
        limit used by resolvent-scan diagnostics.
    eta : coupling constant.  The coupled model has eta != 0; eta = 0 is
        accepted as the decoupled contrast limit (plate and heat evolve
        independently), useful for closed-form checks.
    """

    __slots__ = ("rho", "a", "b", "c", "d", "eta")

    def __init__(self, rho: float, a: float, b: float, c: float, d: float, eta: float):
        for name, value in (("rho", rho), ("a", a), ("b", b)):
            if not value > 0:
                raise ValueError(f"{name} must be > 0, got {value}")
        if not d >= 0:
            raise ValueError(f"d must be >= 0, got {d}")
        if c == 0:
            raise ValueError("c must be nonzero")
        if not np.isfinite(eta):
            raise ValueError("eta must be finite")
        self.rho, self.a, self.b, self.c, self.d, self.eta = rho, a, b, c, d, eta

    @classmethod
    def unit(cls, **overrides) -> "ModelParams":
        """All-ones parameters, optionally overridden field by field."""
        values = dict(rho=1.0, a=1.0, b=1.0, c=1.0, d=1.0, eta=1.0)
        values.update(overrides)
        return cls(**values)

    def heat_weight(self, lam: float | np.ndarray) -> float | np.ndarray:
        """Dissipation weight b*lam + d*lam^2 of one mode (or of each lam)."""
        return self.b * lam + self.d * lam * lam

    def block_rates(self, lam: float | np.ndarray) -> tuple:
        """The rates (k, g, h) of one mode's block (or of each lam's):
        k = sqrt(|c|/rho) lam, g = eta lam / sqrt(rho a) and h = w/a, w the
        heat weight.  In the energy coordinates (sqrt|c| lam u, sqrt(rho) v,
        sqrt(a) theta) the forward block is

            [[0, k, 0], [-sign(c) k, 0, -g], [0, g, -h]],

        and backward in time the sign of h flips.  Each of k, |g| and h is
        made of products and sums of lam with nonnegative constants and a
        division by a positive one, each rounding monotonically, so its float
        is nondecreasing in lam, like its exact value."""
        return (
            math.sqrt(abs(self.c) / self.rho) * lam,
            self.eta / math.sqrt(self.rho * self.a) * lam,
            self.heat_weight(lam) / self.a,
        )


class Interval:
    """One-dimensional domain (0, length) with sine eigenfunctions."""

    __slots__ = ("length",)

    def __init__(self, length: float):
        if not length > 0:
            raise ValueError(f"length must be > 0, got {length}")
        self.length = length

    def __repr__(self) -> str:
        return f"Interval(length={self.length!r})"

    def eigenvalue(self, n: int) -> float:
        """Dirichlet-Laplacian eigenvalue (n*pi/L)^2, n >= 1."""
        if n < 1:
            raise ValueError("mode index must be >= 1")
        return (n * math.pi / self.length) ** 2


class Rectangle:
    """Two-dimensional domain (0, L1) x (0, L2) with product sine basis."""

    __slots__ = ("length1", "length2")

    def __init__(self, length1: float, length2: float):
        if not (length1 > 0 and length2 > 0):
            raise ValueError("rectangle side lengths must be > 0")
        self.length1, self.length2 = length1, length2

    def __repr__(self) -> str:
        return f"Rectangle(length1={self.length1!r}, length2={self.length2!r})"


SpectralDomain = Union[Interval, Rectangle]


def enumerate_modes(domain: SpectralDomain, count: int) -> np.ndarray:
    """The `count` smallest eigenvalues lam of the domain, ascending.

    Modes tied in lam (possible on rectangles) are interchangeable: no
    output can tell their order.  Eigenvalues that underflow to 0 or
    overflow raise EigenvalueOutOfRange, a ValueError.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    try:
        with np.errstate(over="ignore", divide="ignore"):
            lam = _smallest_eigenvalues(domain, count)
        in_range = np.all((lam > 0) & (lam < math.inf))
    except (OverflowError, ZeroDivisionError):
        in_range = False
    if not in_range:
        raise EigenvalueOutOfRange(
            f"the first {count} eigenvalues of {domain!r} leave the positive float range"
        )
    return lam


def _smallest_eigenvalues(domain: SpectralDomain, count: int) -> np.ndarray:
    if isinstance(domain, Interval):
        # lam = (n pi / L)^2 in Python's float power, as Interval.eigenvalue rounds it
        length = domain.length
        return np.array([(n * math.pi / length) ** 2 for n in range(1, count + 1)])

    # Rectangle: sort a box of (j, k), each lam = pi^2 (j^2/L1^2 + k^2/L2^2)
    # evaluated in that order.  The box starts near the Weyl count for the
    # domain's aspect ratio, at most count wide either way, and doubles until
    # no mode outside it can be smaller than the count-th smallest inside it.
    l1, l2 = domain.length1, domain.length2
    jn = min(math.ceil(2.0 * math.sqrt(count * l1 / (math.pi * l2))) + 1, count)
    kn = min(math.ceil(2.0 * math.sqrt(count * l2 / (math.pi * l1))) + 1, count)
    while True:
        j, k = np.divmod(np.arange(jn * kn), kn)
        lam = np.sort(math.pi**2 * ((j + 1) ** 2 / l1**2 + (k + 1) ** 2 / l2**2))[:count]
        # the smallest lam right of and above the box
        outside = min(
            math.pi**2 * ((jn + 1) ** 2 / l1**2 + 1.0 / l2**2),
            math.pi**2 * (1.0 / l1**2 + (kn + 1) ** 2 / l2**2),
        )
        if lam.size == count and lam[-1] <= outside:
            return lam
        jn *= 2
        kn *= 2


def log_slope(t: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log(y) against t, for y > 0 on at least two
    distinct t.  Both coordinates are centered on their means, and the
    slope is the ratio of the two sums in closed form: no LAPACK routine
    runs, whose first call costs a process more than 1 MB of memory."""
    dt = t - np.mean(t)
    log_y = np.log(y)
    return float(np.sum(dt * (log_y - np.mean(log_y))) / np.sum(dt * dt))
