"""The `instability` subcommand: the convexity functional of negative
elasticity and its exponential lower bound.

With Phi solving

    b Lap Phi - d Lap^2 Phi = a theta(0) + eta Lap u(0)
    (per mode: w_n Phi_n = eta lam_n u_n(0) - a theta_n(0)),

w_n = b lam_n + d lam_n^2, and Psi = Phi + int_0^t theta ds, the functional

    F(t) = sum_n rho u_n^2 + int_0^t sum_n w_n Psi_n^2 ds + omega (t+t0)^2

has the closed derivatives

    F'(t)  = 2 rho sum u_n v_n + sum w_n Psi_n^2 + 2 omega (t+t0)
    F''(t) = 2 rho sum v_n^2 - 2 c sum lam_n^2 u_n^2 - 2 a sum theta_n^2 + 2 omega
           = 4 (kinetic - bending - thermal) + 2 omega

and the Schwarz inequality yields

    F'' F - (F' - nu)^2 >= -2 (omega + E(0)) F,   nu = sum w_n Phi_n^2,

for E(0) <= 0.  Choosing omega = -E(0) and a weight shift t0 large enough
that F'(0) > 2 nu gives the pointwise exponential lower bound

    F(t) >= (F'(0) F(0) / (F'(0) - 2 nu)) exp(((F'(0) - 2 nu)/F(0)) t)
            - 2 nu F(0) / (F'(0) - 2 nu).

Psi is a function of the state: the heat equation integrated once gives
w_n Psi_n(t) = eta lam_n u_n(t) - a theta_n(t), the problem of Phi with
the data at time t.  So F' sums that square over w_n, F'' follows from the
plate row (by the energy identity it equals
4 sum rho v_n^2 + 4 int_0^t D ds - 4 E(0) + 2 omega), and
int_0^t sum w_n Psi_n^2 ds is the running integral of a quadratic form of
the state, which the per-mode exponential kernel gives in closed form; no
time integral is taken by quadrature.  The time weight omega*(t+t0)^2 is
the form consistent with the derivatives 2*omega*(t+t0) and 2*omega.
Because Psi(0) = Phi, the shift condition F'(0) > 2 nu reduces to a
closed form and t0 never needs a numerical search (choose_weight_shift).
"""

from __future__ import annotations

import numpy as np

from .config import RunConfig, as_float, build_evolution
from .errors import ConfigError, InsufficientSamples, NonFiniteResult, PreconditionUnmet
from .manifest import Check, RunOutput
from .model import Direction, ModelParams, log_slope
from .propagator import Evolution, energy_of, evolution_sizes, live_modes

WEIGHT_CONVENTION = "omega*(t+t0)^2"
# choose_weight_shift adds this to the least shift that makes F'(0) > 2 nu
WEIGHT_SHIFT_PAD = 1.0

CONVEXITY_TOLERANCE_FACTOR = 1e-8
# F - bound may fall below 0 by this fraction of the largest bound
LOWER_BOUND_TOLERANCE_FACTOR = 1e-12


class PhiSolution:
    """Per-mode solution of b Lap Phi - d Lap^2 Phi = a theta(0) + eta Lap u(0)."""

    __slots__ = ("phi", "nu")

    def __init__(self, phi: np.ndarray, nu: float):
        self.phi, self.nu = phi, nu


def phi_coefficients(params: ModelParams, lams: np.ndarray, x: np.ndarray) -> PhiSolution:
    """Phi of the data x[mode, (u, v, theta)] over the modes `lams`; nu
    sums over its live modes."""
    w = params.heat_weight(lams)
    rhs = params.a * x[:, 2] - params.eta * lams * x[:, 0]
    phi = -rhs / w if lams.size else np.zeros(0)
    live = live_modes(x)
    return PhiSolution(phi=phi, nu=float(np.sum(w[live] * phi[live] ** 2)))


class ConvexityTrajectory:
    """F, F' and F'' along a trajectory, one entry per sample."""

    __slots__ = ("t", "f", "fdot", "fddot", "nu", "omega_const", "t0", "phi")

    def __init__(
        self, t: np.ndarray, f: np.ndarray, fdot: np.ndarray, fddot: np.ndarray,
        nu: float, omega_const: float, t0: float, phi: np.ndarray,
    ):
        self.t, self.f, self.fdot, self.fddot, self.nu = t, f, fdot, fddot, nu
        self.omega_const, self.t0, self.phi = omega_const, t0, phi


def convexity_trajectory(
    params: ModelParams,
    lams: np.ndarray,
    x0: np.ndarray,
    times,
    omega_const: float,
    t0: float,
) -> ConvexityTrajectory:
    """F, F', F'' of the forward trajectory from x0 over the modes `lams`
    at `times`, in one pass over the time blocks of an `Evolution` whose
    weight is q_n = r_n r_n^T / w_n, r_n = (eta lam_n, 0, -a):
    w_n Psi_n = r_n . x_n, so its running integral is
    int_0^t sum w_n Psi_n^2 ds.  F' and F'' are the closed forms of the
    module docstring.  Overflow of the states raises NonFiniteResult.
    Intended for negative elasticity but runs in any regime.
    """
    if omega_const < 0 or t0 < 0:
        raise ValueError("omega_const and t0 must be nonnegative")
    sol = phi_coefficients(params, lams, x0)
    # modes at rest add nothing to F: only the live ones are evolved and summed
    live = lams[live_modes(x0)]
    w = params.heat_weight(live)
    r = np.zeros((live.size, 3))
    r[:, 0], r[:, 2] = params.eta * live, -params.a
    evolution = Evolution(
        params, lams, x0, times, Direction.FORWARD, r[:, :, None] * r[:, None, :] / w[:, None, None]
    )
    t = evolution.t
    f, fdot, fddot = (np.empty(t.size) for _ in range(3))

    def fill(lo, x, columns, q_int) -> None:  # no temporary outlives its block
        hi = lo + x.shape[2]
        kinetic, bending, thermal = columns[:3]
        u, v = x[:, 0], x[:, 1]
        w_psi = r[:, :1] * u + r[:, 2:] * x[:, 2]
        shifted = t[lo:hi] + t0
        # mode sums over axis 0, not BLAS products: a product's bits follow
        # how it splits the samples among its threads
        f[lo:hi] = params.rho * np.sum(u**2, axis=0) + q_int + omega_const * shifted**2
        fdot[lo:hi] = (
            2.0 * params.rho * np.sum(u * v, axis=0)
            + np.sum(w_psi**2 / w[:, None], axis=0)
            + 2.0 * omega_const * shifted
        )
        fddot[lo:hi] = 4.0 * (kinetic - bending - thermal) + 2.0 * omega_const

    # the sums of F and F' may overflow in a block before the one whose
    # energy columns overflow, which then ends the run;
    # convexity_residual_check reports any others
    with np.errstate(over="ignore", invalid="ignore"):
        for block in evolution.blocks():
            fill(*block)
            del block  # no block outlives its turn
    return ConvexityTrajectory(t, f, fdot, fddot, sol.nu, omega_const, t0, sol.phi)


class ConvexityReport:
    """Pointwise convexity inequality F'' F - (F'-nu)^2 >= -2(omega+E0) F."""

    __slots__ = ("min_residual", "tolerance", "passed", "residuals")

    def __init__(self, min_residual: float, tolerance: float, passed: bool, residuals: np.ndarray):
        self.min_residual, self.tolerance = min_residual, tolerance
        self.passed, self.residuals = passed, residuals


def convexity_residual_check(states: ConvexityTrajectory, e0: float) -> ConvexityReport:
    """The convexity inequality at every sample.  A residual or scale that
    overflows, which F F'' does first as F grows, raises NonFiniteResult
    tagged with its first sample time."""
    f, fdot, fddot = states.f, states.fdot, states.fddot
    nu = states.nu
    omega = states.omega_const
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = fddot * f - (fdot - nu) ** 2 + 2.0 * (omega + e0) * f
        terms = np.abs(fddot * f) + (fdot - nu) ** 2 + 2.0 * abs(omega + e0) * f
    finite = np.isfinite(residuals) & np.isfinite(terms)
    if not np.all(finite):
        t_bad = float(states.t[int(np.argmin(finite))])
        raise NonFiniteResult(f"convexity functional overflowed at t={t_bad}", time=t_bad)
    scale = max(float(np.max(terms)), 1.0)
    tol = CONVEXITY_TOLERANCE_FACTOR * scale
    min_res = float(np.min(residuals))
    return ConvexityReport(
        min_residual=min_res,
        tolerance=tol,
        passed=min_res >= -tol,
        residuals=residuals,
    )


class InstabilityReport:
    """Pointwise check of the exponential lower bound on F.

    lower_bound holds C exp(m t) - B at every sample time; the bound holds
    when min_margin, the least F - lower_bound, is at least -tolerance.
    """

    __slots__ = (
        "holds", "min_margin", "tolerance", "bound_exponent", "growth_rate", "lower_bound",
    )

    def __init__(
        self, holds: bool, min_margin: float, tolerance: float, bound_exponent: float,
        growth_rate: float, lower_bound: np.ndarray,
    ):
        self.holds, self.min_margin, self.tolerance = holds, min_margin, tolerance
        self.bound_exponent, self.growth_rate = bound_exponent, growth_rate
        self.lower_bound = lower_bound


def instability_lower_bound(
    states: ConvexityTrajectory,
    e0: float,
    growth_window: tuple[float, float] | None = None,
) -> InstabilityReport:
    """Verify F(t) >= C exp(m t) - B pointwise and measure the growth rate.

    Requires E(0) < 0, or E(0) = 0 with F'(0) > 0; and F'(0) > 2 nu (pick
    t0 with choose_weight_shift).  The reported growth rate is half the
    late-window slope of log F, the amplitude-equivalent convention, fitted
    on `growth_window` (default: the last quarter of the samples, and at
    least the last two).
    """
    f0 = float(states.f[0])
    fdot0 = float(states.fdot[0])
    nu = states.nu
    zero_tol = 1e-12 * max(1.0, abs(f0))
    if not (e0 < 0 or (abs(e0) <= zero_tol and fdot0 > 0)):
        raise PreconditionUnmet("E(0) < 0 or (E(0) = 0 and Fdot(0) > 0)")
    if not fdot0 > 2.0 * nu:
        raise PreconditionUnmet("Fdot(0) > 2*nu (increase t0 or omega_const)")
    if not f0 > 0:
        raise PreconditionUnmet("F(0) > 0")

    m = (fdot0 - 2.0 * nu) / f0
    offset = 2.0 * nu * f0 / (fdot0 - 2.0 * nu)
    t, f = states.t, states.f
    # C - B = F(0): C e^{mt} - B = F(0) e^{mt} + B (e^{mt} - 1), which does
    # not cancel when C and B are both far larger than F(0)
    bound = f0 * np.exp(m * t) + offset * np.expm1(m * t)
    min_margin = float(np.min(f - bound))
    tolerance = LOWER_BOUND_TOLERANCE_FACTOR * float(np.max(np.abs(bound)))

    if growth_window is None:
        growth_window = (float(min(t[0] + 0.75 * (t[-1] - t[0]), t[-2])), float(t[-1]))
    lo, hi = growth_window
    mask = (t >= lo) & (t <= hi) & (f > 0)
    if np.count_nonzero(mask) < 2:
        raise InsufficientSamples("growth window contains fewer than 2 samples")
    return InstabilityReport(
        holds=min_margin >= -tolerance,
        min_margin=min_margin,
        tolerance=tolerance,
        bound_exponent=float(m),
        growth_rate=log_slope(t[mask], f[mask]) / 2.0,
        lower_bound=bound,
    )


def choose_weight_shift(
    params: ModelParams, lams: np.ndarray, x0: np.ndarray, omega_const: float
) -> float:
    """Smallest comfortable t0 making F'(0) > 2 nu for the data x0 over the
    modes `lams`: the least shift that works, plus WEIGHT_SHIFT_PAD.

    Psi(0) = Phi gives F'(0) = 2 rho <u0, v0> + nu + 2 omega t0 in closed
    form, so the shift is solved for directly instead of searched.  Raises
    PreconditionUnmet when no shift can work (omega_const = 0 with
    insufficient initial cross term).
    """
    if omega_const < 0:
        raise ValueError("omega_const must be nonnegative")
    sol = phi_coefficients(params, lams, x0)
    x = x0[live_modes(x0)]
    cross = 2.0 * params.rho * float(np.sum(x[:, 0] * x[:, 1]))
    needed = sol.nu - cross  # require 2*omega*t0 > needed
    if omega_const == 0.0:
        if needed < 0:
            return 0.0
        raise PreconditionUnmet(
            "Fdot(0) > 2*nu is unreachable with omega_const = 0"
        )
    return max(0.0, needed / (2.0 * omega_const)) + WEIGHT_SHIFT_PAD


def configure(cfg: RunConfig, raw: dict[str, str]) -> None:
    build_evolution(cfg, raw)
    if not cfg.params.c < 0:
        raise ConfigError("instability requires c < 0")
    cfg.omega_const = raw.get("omega_const", "auto")
    if cfg.omega_const != "auto":
        cfg.omega_const = as_float(raw, "omega_const")
        if cfg.omega_const < 0:
            raise ConfigError("omega_const must be nonnegative")
    cfg.t0 = raw.get("t0", "auto")
    if cfg.t0 != "auto":
        cfg.t0 = as_float(raw, "t0")
        if cfg.t0 < 0:
            raise ConfigError("t0 must be nonnegative")
    cfg.growth_fit_start = None
    if "growth_fit_start" in raw:
        cfg.growth_fit_start = as_float(raw, "growth_fit_start")
        # the fit needs two samples of the grid at or after it
        last_two = cfg.times[-2:].tolist()
        if not last_two[0] >= cfg.growth_fit_start:
            raise ConfigError(
                f"growth_fit_start = {cfg.growth_fit_start!r} leaves fewer than 2 time "
                f"samples to fit (the last two are {last_two[0]!r} and {last_two[1]!r})"
            )


def run(cfg: RunConfig) -> RunOutput:
    lams, x0 = cfg.lams, cfg.x0
    # the energy column's first entry, to the bit
    e0 = energy_of(cfg.params, lams, x0).total
    omega_const = cfg.omega_const
    if omega_const == "auto":
        omega_const = max(0.0, -e0)
    times = cfg.times
    window = None
    if cfg.growth_fit_start is not None:
        window = (cfg.growth_fit_start, float(times[-1]))
    try:
        t0 = cfg.t0
        if t0 == "auto":
            t0 = choose_weight_shift(cfg.params, lams, x0, omega_const)
        states = convexity_trajectory(cfg.params, lams, x0, times, omega_const, t0)
        convexity = convexity_residual_check(states, e0)
        bound = instability_lower_bound(states, e0, growth_window=window)
    except PreconditionUnmet as exc:
        # outside the instability theorem's hypotheses: the config is at fault
        raise ConfigError(
            f"instability: the data do not satisfy {exc.condition} (E(0) = {e0!r})"
        ) from exc

    checks = [
        Check("convexity_inequality", convexity.passed, convexity.min_residual, -convexity.tolerance),
        Check("exponential_lower_bound", bound.holds, bound.min_margin, -bound.tolerance),
    ]
    columns = {
        "t": states.t,
        "F": states.f,
        "Fdot": states.fdot,
        "Fddot": states.fddot,
        "convexity_residual": convexity.residuals,
        "lower_bound": bound.lower_bound,
        "margin": states.f - bound.lower_bound,
    }
    return RunOutput(
        columns=columns,
        checks=checks,
        results={
            "e0": e0,
            "omega_const": float(omega_const),
            "t0": float(t0),
            "nu": states.nu,
            "growth_rate": bound.growth_rate,
            "bound_exponent": bound.bound_exponent,
        },
        notes={"weight_convention": WEIGHT_CONVENTION},
        sizes=evolution_sizes(lams, x0, times),
    )
