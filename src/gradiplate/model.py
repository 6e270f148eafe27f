"""Constitutive parameters, spectral domains, and per-mode generator blocks.

The coupled plate/heat system

    rho * u_tt = -c * Lap^2 u + eta * Lap theta
    a * theta_t = b * Lap theta - d * Lap^2 theta - eta * Lap u_t

with hinged boundary conditions (u = Lap u = theta = Lap theta = 0) is
diagonalized exactly by the Dirichlet-Laplacian sine eigenbasis on an
interval or a rectangle.  On the eigenspace of -Lap with eigenvalue lam the
operators reduce to Lap -> -lam and Lap^2 -> lam^2, so the whole dynamics
splits into independent 3x3 blocks acting on the coefficients (u, v, theta)
with v = u_t.  This module builds those blocks and the weights of the
natural energy inner product.

Eigenfunctions are unit-normalized in L2, so per-mode quadratic forms carry
no domain-volume factors.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np


class Regime(enum.Enum):
    """Sign regime of the elasticity coefficient c.

    STABLE requires c > 0.  UNSTABLE and QUASISTATIC require c < 0; the
    quasi-static reduction additionally needs a + eta^2/c > 0, which is
    checked at use sites, not here.
    """

    STABLE = "stable"
    UNSTABLE = "unstable"
    QUASISTATIC = "quasistatic"


class Direction(enum.Enum):
    """Orientation of the per-mode generator (time-reversed heat terms)."""

    FORWARD = "forward"
    BACKWARD = "backward"


@dataclass(frozen=True)
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
    regime : optional explicit tag; inferred from sign(c) when omitted.
    """

    rho: float
    a: float
    b: float
    c: float
    d: float
    eta: float
    regime: Regime = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        for name in ("rho", "a", "b"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if not self.d >= 0:
            raise ValueError(f"d must be >= 0, got {self.d}")
        if self.c == 0:
            raise ValueError("c must be nonzero")
        if not np.isfinite(self.eta):
            raise ValueError("eta must be finite")
        if self.regime is None:
            inferred = Regime.STABLE if self.c > 0 else Regime.UNSTABLE
            object.__setattr__(self, "regime", inferred)
        else:
            if self.regime is Regime.STABLE and not self.c > 0:
                raise ValueError("regime Stable requires c > 0")
            if self.regime in (Regime.UNSTABLE, Regime.QUASISTATIC) and not self.c < 0:
                raise ValueError(f"regime {self.regime.value} requires c < 0")

    @classmethod
    def unit(cls, **overrides) -> "ModelParams":
        """All-ones parameters, optionally overridden field by field."""
        values = dict(rho=1.0, a=1.0, b=1.0, c=1.0, d=1.0, eta=1.0)
        values.update(overrides)
        return cls(**values)

    def heat_weight(self, lam: float | np.ndarray) -> float | np.ndarray:
        """Dissipation weight b*lam + d*lam^2 of one mode (or of each lam)."""
        return self.b * lam + self.d * lam * lam


@dataclass(frozen=True)
class Interval:
    """One-dimensional domain (0, length) with sine eigenfunctions."""

    length: float

    def __post_init__(self):
        if not self.length > 0:
            raise ValueError(f"length must be > 0, got {self.length}")

    def eigenvalue(self, n: int) -> float:
        """Dirichlet-Laplacian eigenvalue (n*pi/L)^2, n >= 1."""
        if n < 1:
            raise ValueError("mode index must be >= 1")
        return (n * math.pi / self.length) ** 2

    def eigenfunction(self, n: int, x: np.ndarray) -> np.ndarray:
        """Unit L2-normalized eigenfunction sqrt(2/L) sin(n pi x / L)."""
        return math.sqrt(2.0 / self.length) * np.sin(n * math.pi * x / self.length)


@dataclass(frozen=True)
class Rectangle:
    """Two-dimensional domain (0, L1) x (0, L2) with product sine basis."""

    length1: float
    length2: float

    def __post_init__(self):
        if not (self.length1 > 0 and self.length2 > 0):
            raise ValueError("rectangle side lengths must be > 0")

    def eigenvalue(self, index: tuple[int, int]) -> float:
        """Eigenvalue pi^2 (j^2/L1^2 + k^2/L2^2), j, k >= 1."""
        j, k = index
        if j < 1 or k < 1:
            raise ValueError("mode indices must be >= 1")
        return math.pi**2 * (j**2 / self.length1**2 + k**2 / self.length2**2)

    def eigenfunction(self, index: tuple[int, int], xy: np.ndarray) -> np.ndarray:
        j, k = index
        x = xy[..., 0]
        y = xy[..., 1]
        norm = 2.0 / math.sqrt(self.length1 * self.length2)
        return norm * np.sin(j * math.pi * x / self.length1) * np.sin(
            k * math.pi * y / self.length2
        )


SpectralDomain = Union[Interval, Rectangle]


@dataclass(frozen=True)
class Mode:
    """A Dirichlet-Laplacian eigenvalue with its index on the domain."""

    index: "int | tuple[int, int]"
    lam: float

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError(f"eigenvalue must be > 0, got {self.lam}")


def enumerate_modes(domain: SpectralDomain, count: int) -> tuple[Mode, ...]:
    """The `count` modes of smallest eigenvalue, ascending in lam.

    Degeneracies (possible on rectangles) are broken lexicographically on
    (j, k) so the enumeration is deterministic.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if isinstance(domain, Interval):
        return tuple(Mode(n, domain.eigenvalue(n)) for n in range(1, count + 1))

    # Rectangle: sort a box of (j, k) on (lam, j, k), lam evaluated as
    # Rectangle.eigenvalue does.  The box starts near the Weyl count for
    # the domain's aspect ratio and doubles until no mode outside it can
    # beat the count-th smallest inside it.
    l1, l2 = domain.length1, domain.length2
    jn = math.ceil(2.0 * math.sqrt(count * l1 / (math.pi * l2))) + 1
    kn = math.ceil(2.0 * math.sqrt(count * l2 / (math.pi * l1))) + 1
    while True:
        j, k = np.divmod(np.arange(jn * kn), kn)
        j += 1
        k += 1
        lam = math.pi**2 * (j**2 / l1**2 + k**2 / l2**2)
        order = np.lexsort((k, j, lam))[:count]
        outside_min = math.pi**2 * min(
            (jn + 1) ** 2 / l1**2 + 1.0 / l2**2, 1.0 / l1**2 + (kn + 1) ** 2 / l2**2
        )
        if order.size == count and lam[order[-1]] < outside_min:
            picked = zip(j[order].tolist(), k[order].tolist(), lam[order].tolist())
            return tuple(Mode((jj, kk), value) for jj, kk, value in picked)
        jn *= 2
        kn *= 2


@dataclass(frozen=True)
class ModeMatrix:
    """3x3 real generator block acting on one mode's (u, v, theta).

    Forward rows:
        (0, 1, 0)
        (-(c/rho) lam^2, 0, -(eta/rho) lam)
        (0, (eta/a) lam, -(b lam + d lam^2)/a)
    Backward is identical except the (3, 3) entry flips sign.
    """

    entries: np.ndarray
    direction: Direction

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.shape != (3, 3):
            raise ValueError("mode matrix must be 3x3")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)


def mode_matrix(
    params: ModelParams, lam: float, direction: Direction = Direction.FORWARD
) -> ModeMatrix:
    """Generator block of one mode, exact in host float arithmetic."""
    if not lam > 0:
        raise ValueError(f"lam must be > 0, got {lam}")
    return ModeMatrix(mode_blocks(params, np.array([lam]), direction)[0], direction)


def mode_blocks(
    params: ModelParams, lams: np.ndarray, direction: Direction = Direction.FORWARD
) -> np.ndarray:
    """The ModeMatrix entries of every lam in `lams`, shape (len(lams), 3, 3)."""
    heat = params.heat_weight(lams) / params.a
    sign = -1.0 if direction is Direction.FORWARD else 1.0
    blocks = np.zeros((lams.size, 3, 3))
    blocks[:, 0, 1] = 1.0
    blocks[:, 1, 0] = -(params.c / params.rho) * lams * lams
    blocks[:, 1, 2] = -(params.eta / params.rho) * lams
    blocks[:, 2, 1] = (params.eta / params.a) * lams
    blocks[:, 2, 2] = sign * heat
    return blocks


@dataclass(frozen=True)
class HilbertWeight:
    """Diagonal weights of the energy inner product on one mode.

    ||U||^2 = c ||Lap u||^2 + rho ||v||^2 + a ||theta||^2 restricted to a
    unit mode reads c lam^2 |u|^2 + rho |v|^2 + a |theta|^2.  For c < 0 the
    magnitude |c| is used and the result is flagged `pseudo_norm`: the
    quadratic form is then not a norm, but diagnostics still need a scale.
    """

    w_u: float
    w_v: float
    w_theta: float
    pseudo_norm: bool


def hilbert_weight(params: ModelParams, lam: float) -> HilbertWeight:
    if not lam > 0:
        raise ValueError(f"lam must be > 0, got {lam}")
    return HilbertWeight(
        w_u=abs(params.c) * lam * lam,
        w_v=params.rho,
        w_theta=params.a,
        pseudo_norm=params.c < 0,
    )
