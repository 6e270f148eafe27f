"""The `quasistatic` subcommand: the one-dimensional quasi-static
reduction for negative elasticity.

Dropping plate inertia with c < 0 couples the fields through the elliptic
relation c u_xx = eta theta, so the temperature obeys the scalar equation

    (a + eta^2/c) theta_t = b theta_xx - d theta_xxxx

on the interval [0, L] (L = 1 by default) with hinged ends.  On the sine
basis each coefficient decays exactly:

    theta_n(t) = theta_n(0) exp(-(b lam_n + d lam_n^2) t / a_eff),
    u_n(t) = -eta theta_n(t) / (c lam_n),

valid only when the effective capacity a_eff = a + eta^2/c is positive;
configurations with a_eff <= 0 are refused (anti-dissipative heat flow is
outside the model's claim).  The parser enumerates the len(initial_theta)
modes of Interval(L) (`RunConfig.lams`), and b lam_n + d lam_n^2 is
`ModelParams.heat_weight`.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .config import RunConfig, as_float, as_float_list, build_modes, build_time, require
from .errors import ConfigError, DegenerateCapacity
from .manifest import Check, RunOutput
from .model import Interval, ModelParams, log_slope


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


def _decay(params: ModelParams, lams, rates, theta0, t, shift: float = 0.0):
    """theta_n = theta_n(0) exp(-(rate_n - shift) t) and u_n; a column of
    times t (shape (T, 1)) gives one row of modes per time."""
    theta = theta0 * np.exp(-(rates - shift) * t)
    return theta, -params.eta * theta / (params.c * lams)


class QuasiDecayReport:
    """Decay of the plate H^2-seminorm against the slowest thermal rate.

    h2_seminorm[k] = sum_n lam_n^2 u_n(t_k)^2 is checked against
    K * exp(-2*rate1*t) * sum theta_n(0)^2 (`theta0_l2`) with the constant K measured,
    and the elliptic-relation Schwarz bound
    -c*int|u_xx|^2 <= |eta| * (int theta^2)^(1/2) (int |u_xx|^2)^(1/2)
    is verified pointwise (it is an equality here, up to rounding).
    `fit_rel_residual` is None when h2 has fewer than two normal samples
    in which the slowest excited mode alone makes it up to rounding (zero
    theta data, eta = 0, where u vanishes, or a horizon too short for the
    faster modes to die out).
    """

    __slots__ = (
        "t", "theta_l2_sq", "h2_seminorm", "a_eff", "rate1", "fitted_rate", "fit_rel_residual",
        "k_measured", "envelope_holds", "schwarz_max_ratio", "relation_residual_max", "theta0_l2",
    )

    def __init__(
        self, t: np.ndarray, theta_l2_sq: np.ndarray, h2_seminorm: np.ndarray, a_eff: float,
        rate1: float, fitted_rate: float, fit_rel_residual: float | None,
        k_measured: float, envelope_holds: bool, schwarz_max_ratio: float,
        relation_residual_max: float, theta0_l2: float,
    ):
        self.t, self.theta_l2_sq, self.h2_seminorm = t, theta_l2_sq, h2_seminorm
        self.a_eff, self.rate1, self.fitted_rate = a_eff, rate1, fitted_rate
        self.fit_rel_residual, self.k_measured = fit_rel_residual, k_measured
        self.envelope_holds, self.schwarz_max_ratio = envelope_holds, schwarz_max_ratio
        self.relation_residual_max, self.theta0_l2 = relation_residual_max, theta0_l2


def quasi_decay_report(
    params: ModelParams, lams: np.ndarray, theta0: Sequence[float], t_grid: Sequence[float]
) -> QuasiDecayReport:
    """Track the decay of u in H^2 along exact scalar evolution from the
    coefficients theta0 of the modes of eigenvalues `lams`, ascending.

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
    theta0, lams = np.asarray(theta0, dtype=float), np.asarray(lams, dtype=float)
    if theta0.shape != lams.shape:
        raise ValueError("need one theta0 coefficient per mode")
    a_eff = effective_capacity(params)
    # the decay rate of each theta_n, strictly increasing in n
    rates = params.heat_weight(lams) / a_eff

    column = t_grid[:, None]
    theta, u = _decay(params, lams, rates, theta0, column)  # (samples, modes)
    theta_l2 = np.sum(theta**2, axis=1)
    h2_modes = lams**2 * u**2
    h2 = np.sum(h2_modes, axis=1)
    rhs = params.eta * theta
    relation = np.abs(params.c * (-lams) * u - rhs) / np.maximum(np.abs(rhs), 1.0)
    rate1 = float(rates[0])
    theta0_l2 = float(np.sum(theta0**2))

    # the ratios below are taken with exp(-rate1 t) divided out of every
    # mode analytically, so they hold where exp(-2 rate1 t) underflows
    theta_s, u_s = _decay(params, lams, rates, theta0, column, shift=rate1)
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
        fitted_rate = -log_slope(t_grid[usable], h2[usable])
        # the tail decays at twice the rate of the slowest excited mode
        expected = 2.0 * float(rates[slowest])
        fit_rel_residual = abs(fitted_rate - expected) / expected

    # Schwarz bound with k = |eta| (equality up to rounding)
    lhs = -params.c * h2_s
    rhs = abs(params.eta) * np.sqrt(theta_l2_s) * np.sqrt(h2_s)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = np.where(rhs > 0, lhs / rhs, 0.0)
    schwarz_max_ratio = float(np.max(ratios))

    return QuasiDecayReport(
        t=t_grid,
        theta_l2_sq=theta_l2,
        h2_seminorm=h2,
        a_eff=a_eff,
        rate1=rate1,
        fitted_rate=fitted_rate,
        fit_rel_residual=fit_rel_residual,
        k_measured=k_measured,
        envelope_holds=envelope_holds,
        schwarz_max_ratio=schwarz_max_ratio,
        relation_residual_max=float(np.max(relation, initial=0.0)),
        theta0_l2=theta0_l2,
    )


def configure(cfg: RunConfig, raw: dict[str, str]) -> None:
    params, subcommand = cfg.params, cfg.subcommand
    if not params.c < 0:
        raise ConfigError("quasistatic requires c < 0")
    length = 1.0
    if "length" in raw:
        length = as_float(raw, "length")
        if not length > 0:
            raise ConfigError("length must be > 0")
    build_time(cfg, raw)
    # the decay report wants 10 samples
    if cfg.times.size < 10:
        raise ConfigError("quasistatic needs at least 10 time samples (round(t_end / dt) >= 9)")
    require(raw, ("initial_theta",), subcommand)
    cfg.initial_theta = as_float_list(raw, "initial_theta")
    if not cfg.initial_theta:
        raise ConfigError("initial_theta must contain at least one coefficient")
    squares, ratio = sum(x * x for x in cfg.initial_theta), params.eta / params.c
    if not (squares < math.inf and ratio * ratio * squares < math.inf):
        raise ConfigError("initial_theta: sum theta_n^2 or (eta/c)^2 sum theta_n^2 overflows")
    # refuse degenerate capacity at parse time
    try:
        a_eff = effective_capacity(params)
    except DegenerateCapacity as exc:
        raise ConfigError(f"DegenerateCapacity: {exc}") from exc
    cfg.domain = Interval(length)
    count = len(cfg.initial_theta)
    build_modes(cfg, count, "initial_theta")
    # the decay rates grow with n: the fastest must be finite
    if not params.heat_weight(float(cfg.lams[-1])) / a_eff < math.inf:
        raise ConfigError(
            f"length = {length!r}: for the initial_theta modes n = 1..{count}, "
            "lam_n^2 = (n pi / length)^4 or the decay rate leaves the float range"
        )


def run(cfg: RunConfig) -> RunOutput:
    report = quasi_decay_report(cfg.params, cfg.lams, cfg.initial_theta, cfg.times)
    checks = [
        Check("elliptic_relation", report.relation_residual_max <= 1e-12, report.relation_residual_max, 1e-12),
        Check("envelope_holds", report.envelope_holds, report.k_measured, float("inf")),
        Check("schwarz_bound", report.schwarz_max_ratio <= 1.0 + 1e-12, report.schwarz_max_ratio, 1.0 + 1e-12),
    ]
    if report.fit_rel_residual is not None:
        checks.insert(
            1,
            Check("decay_rate_fit", report.fit_rel_residual <= 1e-6, report.fit_rel_residual, 1e-6),
        )
    envelope = report.k_measured * np.exp(-2.0 * report.rate1 * report.t) * report.theta0_l2
    columns = {
        "t": report.t, "theta_l2_sq": report.theta_l2_sq, "u_h2_seminorm": report.h2_seminorm,
        "envelope": envelope,
    }
    return RunOutput(
        columns=columns,
        checks=checks,
        results={
            "a_eff": report.a_eff,
            "rate1": report.rate1,
            "fitted_rate": report.fitted_rate,
            "k_measured": report.k_measured,
        },
    )
