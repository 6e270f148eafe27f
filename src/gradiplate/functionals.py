"""Lagrange-identity functionals and the convexity functional.

Two families of diagnostics live here.

Backward uniqueness.  Along the time-reversed system the quadratic forms

    L1 = 1/2 sum_n (rho |v_n|^2 + c lam_n^2 |u_n|^2 + a |theta_n|^2)
    L2 = 1/2 sum_n (rho |v_n|^2 + c lam_n^2 |u_n|^2 - a |theta_n|^2)

satisfy dL1/dt = + sum_n w_n theta_n^2 and
dL2/dt = - sum_n w_n theta_n^2 - 2 eta sum_n lam_n v_n theta_n with
w_n = b lam_n + d lam_n^2, and the mixture L = L2 + eps*L1 obeys a
Gronwall bound L(t) <= L(0) e^{k* t}.  Zero initial data therefore forces
the zero solution, which is the uniqueness witness.  L1 is the energy E and
L2 = kinetic + bending - thermal, so both are read off the trajectory's
energy columns (see `propagator`), as is the dissipation sum.

Convexity / instability (negative elasticity).  With Phi solving

    b Lap Phi - d Lap^2 Phi = a theta(0) + eta Lap u(0)
    (per mode: w_n Phi_n = eta lam_n u_n(0) - a theta_n(0))

and Psi = Phi + int_0^t theta ds, the functional

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

from .errors import EpsilonOutOfRange, InsufficientSamples, NonFiniteResult, PreconditionUnmet
from .model import Direction, ModelParams, log_slope
from .propagator import EnergyHistory, Evolution, live_modes

WEIGHT_CONVENTION = "omega*(t+t0)^2"
# choose_weight_shift adds this to the least shift that makes F'(0) > 2 nu
WEIGHT_SHIFT_PAD = 1.0

CONVEXITY_TOLERANCE_FACTOR = 1e-8
# F - bound may fall below 0 by this fraction of the largest bound
LOWER_BOUND_TOLERANCE_FACTOR = 1e-12


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon < 1.0:
        raise EpsilonOutOfRange(f"epsilon must be in (0, 1), got {epsilon}")


class LyapunovSeries:
    """L1, L2 and L = L2 + epsilon*L1 along a trajectory, one entry per
    sample."""

    __slots__ = ("t", "l1", "l2", "l", "epsilon")

    def __init__(
        self, t: np.ndarray, l1: np.ndarray, l2: np.ndarray, l: np.ndarray,
        epsilon: float,
    ):
        self.t, self.l1, self.l2, self.l, self.epsilon = t, l1, l2, l, epsilon


def lyapunov_series(history: EnergyHistory, epsilon: float) -> LyapunovSeries:
    """L1, L2 and L at every sample, read off the energy columns."""
    _check_epsilon(epsilon)
    l1 = history.total
    l2 = history.kinetic + history.bending - history.thermal
    return LyapunovSeries(history.t, l1, l2, l2 + epsilon * l1, epsilon)


def coupling_sums(lams: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_n lam_n v_n theta_n of the states x[mode, (u, v, theta),
    sample], one entry per sample, summed over (samples, modes) rows, so
    each sample sums as its own mode vector does."""
    return np.sum(np.ascontiguousarray((lams[:, None] * x[:, 1] * x[:, 2]).T), axis=1)


def identity_rate(params: ModelParams, lams: np.ndarray) -> float:
    """The fastest rate of the modes `lams`: the faster of the heat rate
    w/a and the plate frequency sqrt(|c|/rho) lam."""
    return float(np.max(
        np.maximum(params.heat_weight(lams) / params.a, abs(params.c / params.rho) ** 0.5 * lams),
        initial=0.0,
    ))


class BackwardIdentityReport:
    """Centered-difference check of the L1/L2 evolution identities.

    The centered difference errs by about h^2/6 |L'''|, and the third
    derivative of a quadratic form is of the order (2 rate)^3 times the
    energy norm, where `rate` is the fastest rate of the modes that carry
    data (`identity_rate`).  Residuals are therefore normalized by 2 rate
    times the largest energy norm; they shrink like (2 rate)^2 dt^2 / 6.
    """

    __slots__ = (
        "t", "dl1_fd", "dl1_analytic", "dl2_fd", "dl2_analytic", "max_rel_residual",
        "rate",
    )

    def __init__(
        self, t: np.ndarray, dl1_fd: np.ndarray, dl1_analytic: np.ndarray,
        dl2_fd: np.ndarray, dl2_analytic: np.ndarray, max_rel_residual: float,
        rate: float,
    ):
        self.t, self.dl1_fd, self.dl1_analytic = t, dl1_fd, dl1_analytic
        self.dl2_fd, self.dl2_analytic = dl2_fd, dl2_analytic
        self.max_rel_residual, self.rate = max_rel_residual, rate


def verify_backward_identities(
    params: ModelParams,
    history: EnergyHistory,
    series: LyapunovSeries,
    coupling: np.ndarray,
    rate: float,
    norm_max: float,
    direction: Direction = Direction.BACKWARD,
) -> BackwardIdentityReport:
    """Compare d(L1)/dt, d(L2)/dt finite differences with the closed forms.

    `series` holds L1 and L2 of the energy columns `history` (of any
    epsilon), `coupling` the `coupling_sums` of its live modes, `rate`
    their `identity_rate` and `norm_max` the largest of
    `history.energy_norm`.  Works for either orientation; the forward
    identities carry the opposite dissipation sign.
    """
    t, l1, l2 = series.t, series.l1, series.l2
    if t.size < 3:
        raise InsufficientSamples("identity check needs at least 3 samples")

    # centered three-point derivative, valid on non-uniform grids
    h1 = t[1:-1] - t[:-2]
    h2 = t[2:] - t[1:-1]
    def center(y):
        return (
            -h2 / (h1 * (h1 + h2)) * y[:-2]
            + (h2 - h1) / (h1 * h2) * y[1:-1]
            + h1 / (h2 * (h1 + h2)) * y[2:]
        )

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # dt near underflow
        dl1_fd, dl2_fd = center(l1), center(l2)
    diss = history.dissipation[1:-1]
    cross = 2.0 * params.eta * coupling[1:-1]
    if direction is Direction.BACKWARD:
        dl1_an, dl2_an = diss, -diss - cross
    else:
        dl1_an, dl2_an = -diss, diss - cross
    scale = max(2.0 * rate * norm_max, 1e-300)
    resid = max(
        np.max(np.abs(dl1_fd - dl1_an), initial=0.0),
        np.max(np.abs(dl2_fd - dl2_an), initial=0.0),
    )
    return BackwardIdentityReport(
        t=t[1:-1],
        dl1_fd=dl1_fd,
        dl1_analytic=dl1_an,
        dl2_fd=dl2_fd,
        dl2_analytic=dl2_an,
        max_rel_residual=float(resid / scale),
        rate=rate,
    )


class GronwallReport:
    """Smallest empirical k* with L(t) <= L(0) e^{k* t} along the samples.

    For zero initial data the report instead certifies L == 0.  k_star is
    None when L(0) < 0, where the bound carries no information.
    """

    __slots__ = ("k_star", "l0", "zero_data", "max_abs_l", "epsilon")

    def __init__(
        self, k_star: float | None, l0: float, zero_data: bool, max_abs_l: float,
        epsilon: float,
    ):
        self.k_star, self.l0, self.zero_data = k_star, l0, zero_data
        self.max_abs_l, self.epsilon = max_abs_l, epsilon


def gronwall_check(series: LyapunovSeries) -> GronwallReport:
    """Gronwall bound of the series' L = L2 + epsilon*L1."""
    l, t, epsilon = series.l, series.t, series.epsilon
    l0 = float(l[0])
    max_abs = float(np.max(np.abs(l)))
    if l0 == 0.0:
        return GronwallReport(None, l0, True, max_abs, epsilon)
    if l0 < 0.0:
        return GronwallReport(None, l0, False, max_abs, epsilon)
    mask = (t > 0) & (l > 0)
    if not np.any(mask):
        return GronwallReport(0.0, l0, False, max_abs, epsilon)
    k = np.max(np.log(l[mask] / l0) / t[mask])
    return GronwallReport(float(max(k, 0.0)), l0, False, max_abs, epsilon)


class PhiSolution:
    """Per-mode solution of b Lap Phi - d Lap^2 Phi = a theta(0) + eta Lap u(0)."""

    __slots__ = ("phi", "nu", "residual_max")

    def __init__(self, phi: np.ndarray, nu: float, residual_max: float):
        self.phi, self.nu, self.residual_max = phi, nu, residual_max


def phi_coefficients(params: ModelParams, lams: np.ndarray, x: np.ndarray) -> PhiSolution:
    """Phi of the data x[mode, (u, v, theta)] over the modes `lams`; nu
    sums over its live modes."""
    w = params.heat_weight(lams)
    rhs = params.a * x[:, 2] - params.eta * lams * x[:, 0]
    phi = -rhs / w if lams.size else np.zeros(0)
    residual = np.abs(-w * phi - rhs)
    scale = np.maximum(np.abs(rhs), 1.0)
    live = live_modes(x)
    return PhiSolution(
        phi=phi,
        nu=float(np.sum(w[live] * phi[live] ** 2)),
        residual_max=float(np.max(residual / scale, initial=0.0)),
    )


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

    __slots__ = ("min_residual", "scale", "tolerance", "passed", "residuals")

    def __init__(
        self, min_residual: float, scale: float, tolerance: float, passed: bool,
        residuals: np.ndarray,
    ):
        self.min_residual, self.scale, self.tolerance = min_residual, scale, tolerance
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
        scale=scale,
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
        "holds", "min_margin", "tolerance", "bound_exponent", "growth_rate",
        "growth_window", "lower_bound",
    )

    def __init__(
        self, holds: bool, min_margin: float, tolerance: float, bound_exponent: float,
        growth_rate: float, growth_window: tuple[float, float], lower_bound: np.ndarray,
    ):
        self.holds, self.min_margin, self.tolerance = holds, min_margin, tolerance
        self.bound_exponent, self.growth_rate = bound_exponent, growth_rate
        self.growth_window, self.lower_bound = growth_window, lower_bound


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
        growth_window=(lo, hi),
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
