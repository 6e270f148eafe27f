"""One-dimensional quasi-static reduction for negative elasticity.

Dropping plate inertia with c < 0 couples the fields through the elliptic
relation c u_xx = eta theta, so the temperature obeys the scalar equation

    (a + eta^2/c) theta_t = b theta_xx - d theta_xxxx

on the interval [0, L] (L = 1 by default) with hinged ends.  On the sine
basis each coefficient decays exactly:

    theta_n(t) = theta_n(0) exp(-(b lam_n + d lam_n^2) t / a_eff),
    u_n(t) = -eta theta_n(t) / (c lam_n),

valid only when the effective capacity a_eff = a + eta^2/c is positive;
configurations with a_eff <= 0 are refused (anti-dissipative heat flow is
outside the model's claim).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateCapacity
from .model import ModelParams

RELATION_TOLERANCE = 1e-12


def effective_capacity(params: ModelParams) -> float:
    """a + eta^2/c; requires c < 0 and a positive result."""
    if not params.c < 0:
        raise ValueError("quasi-static reduction requires c < 0")
    a_eff = params.a + params.eta**2 / params.c
    if not a_eff > 0:
        raise DegenerateCapacity(
            f"a + eta^2/c = {a_eff} is not positive; no dissipative scalar "
            "evolution exists for these constants"
        )
    return a_eff


@dataclass(frozen=True)
class QuasiParams:
    """Validated constants of the reduced scalar problem."""

    params: ModelParams
    a_eff: float
    length: float = 1.0

    def __post_init__(self):
        if not self.length > 0:
            raise ValueError("length must be > 0")

    @classmethod
    def from_params(cls, params: ModelParams, length: float = 1.0) -> "QuasiParams":
        return cls(params=params, a_eff=effective_capacity(params), length=length)

    def lam(self, n: int) -> float:
        return (n * math.pi / self.length) ** 2

    def rate(self, n: int) -> float:
        """Decay rate of theta_n, strictly increasing in n."""
        lam = self.lam(n)
        return (self.params.b * lam + self.params.d * lam**2) / self.a_eff


@dataclass(frozen=True)
class QuasiState:
    """Per-mode theta coefficients with the recovered plate coefficients."""

    t: float
    lams: np.ndarray
    theta: np.ndarray
    u: np.ndarray

    def relation_residual(self, params: ModelParams) -> float:
        """Max residual of c*u_xx = eta*theta per mode (should be ~0)."""
        lhs = params.c * (-self.lams) * self.u
        rhs = params.eta * self.theta
        scale = np.maximum(np.abs(rhs), 1.0)
        return float(np.max(np.abs(lhs - rhs) / scale, initial=0.0))


def evolve_theta(qparams: QuasiParams, theta0: Sequence[float], t: float) -> QuasiState:
    """Exact scalar evolution of the first len(theta0) modes to time t."""
    theta0 = np.asarray(theta0, dtype=float)
    return QuasiState(float(t), *_decay(qparams, theta0, t))


def _decay(qparams: QuasiParams, theta0: np.ndarray, t, shift: float = 0.0):
    """lams, theta_n = theta_n(0) exp(-(rate_n - shift) t) and u_n; a column
    of times t (shape (T, 1)) gives one row of modes per time."""
    lams = (np.arange(1, theta0.size + 1) * math.pi / qparams.length) ** 2
    p = qparams.params
    theta = theta0 * np.exp(-(p.heat_weight(lams) / qparams.a_eff - shift) * t)
    return lams, theta, -p.eta * theta / (p.c * lams)


@dataclass(frozen=True)
class QuasiDecayReport:
    """Decay of the plate H^2-seminorm against the slowest thermal rate.

    h2_seminorm[k] = sum_n lam_n^2 u_n(t_k)^2 is checked against
    K * exp(-2*rate1*t) * sum theta_n(0)^2 with the constant K measured,
    and the elliptic-relation Schwarz bound
    -c*int|u_xx|^2 <= |eta| * (int theta^2)^(1/2) (int |u_xx|^2)^(1/2)
    is verified pointwise (it is an equality here, up to rounding).
    `fit_rel_residual` is None when h2 has fewer than two normal samples
    in which the slowest excited mode alone makes it up to rounding (zero
    theta data, eta = 0, where u vanishes, or a horizon too short for the
    faster modes to die out).
    """

    t: np.ndarray
    theta_l2_sq: np.ndarray
    h2_seminorm: np.ndarray
    rate1: float
    fitted_rate: float
    fit_rel_residual: float | None
    k_measured: float
    envelope_holds: bool
    schwarz_max_ratio: float
    relation_residual_max: float


def quasi_decay_report(
    qparams: QuasiParams, theta0: Sequence[float], t_grid: Sequence[float]
) -> QuasiDecayReport:
    """Track the decay of u in H^2 along exact scalar evolution.

    The fitted rate is the late-time log-slope of the seminorm; for a
    single mode it equals 2*rate1 to rounding, for several modes the
    slowest excited mode dominates the tail, and the fit is judged
    against twice its rate.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size < 10:
        raise ValueError("need at least 10 time samples")
    if np.any(np.diff(t_grid) <= 0) or t_grid[0] != 0.0:
        raise ValueError("t_grid must start at 0 and increase strictly")
    theta0 = np.asarray(theta0, dtype=float)
    p = qparams.params

    column = t_grid[:, None]
    lams, theta, u = _decay(qparams, theta0, column)  # (samples, modes)
    theta_l2 = np.sum(theta**2, axis=1)
    h2_modes = lams**2 * u**2
    h2 = np.sum(h2_modes, axis=1)
    rhs = p.eta * theta
    relation = np.abs(p.c * (-lams) * u - rhs) / np.maximum(np.abs(rhs), 1.0)
    rate1 = qparams.rate(1)
    theta0_l2 = float(np.sum(theta0**2))

    # the ratios below are taken with exp(-rate1 t) divided out of every
    # mode analytically, so they hold where exp(-2 rate1 t) underflows
    _, theta_s, u_s = _decay(qparams, theta0, column, shift=rate1)
    theta_l2_s = np.sum(theta_s**2, axis=1)
    h2_s = np.sum(lams**2 * u_s**2, axis=1)

    # measured envelope constant: h2(t) <= K exp(-2 rate1 t) theta0_l2
    k_measured = float(np.max(h2_s)) / theta0_l2 if theta0_l2 else 0.0
    envelope_holds = bool(np.all(h2_s <= k_measured * theta0_l2 * (1.0 + 1e-12)))

    # late-window fit of the decay rate, on the normal (not subnormal)
    # samples of the tail, where the faster modes are below the rounding of
    # the slowest excited one; none when fewer than two samples are there
    fitted_rate, fit_rel_residual = 0.0, None
    excited = np.flatnonzero(theta0)
    slowest = int(excited[0]) if excited.size else 0
    rest = np.sum(h2_modes[:, slowest + 1:], axis=1)
    tail = (h2 >= np.finfo(float).tiny) & (rest <= np.finfo(float).eps * h2_modes[:, slowest])
    if np.count_nonzero(tail) >= 2:
        usable = tail & (t_grid >= 0.5 * t_grid[-1])
        if np.count_nonzero(usable) < 2:
            # the tail underflowed: its later half, and never fewer than
            # two samples
            t_tail = t_grid[tail]
            usable = tail & (t_grid >= min(0.5 * t_tail[-1], t_tail[-2]))
        fitted_rate = float(-np.polyfit(t_grid[usable], np.log(h2[usable]), 1)[0])
        # the tail decays at twice the rate of the slowest excited mode
        expected = 2.0 * qparams.rate(slowest + 1)
        fit_rel_residual = abs(fitted_rate - expected) / expected

    # Schwarz bound with k = |eta| (equality up to rounding)
    lhs = -p.c * h2_s
    rhs = abs(p.eta) * np.sqrt(theta_l2_s) * np.sqrt(h2_s)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = np.where(rhs > 0, lhs / rhs, 0.0)
    schwarz_max_ratio = float(np.max(ratios))

    return QuasiDecayReport(
        t=t_grid,
        theta_l2_sq=theta_l2,
        h2_seminorm=h2,
        rate1=rate1,
        fitted_rate=fitted_rate,
        fit_rel_residual=fit_rel_residual,
        k_measured=k_measured,
        envelope_holds=envelope_holds,
        schwarz_max_ratio=schwarz_max_ratio,
        relation_residual_max=float(np.max(relation, initial=0.0)),
    )
