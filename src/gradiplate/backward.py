"""The `backward` subcommand: Lagrange-identity functionals along the
time-reversed system, the witness of backward uniqueness.

Along the time-reversed system the quadratic forms

    L1 = 1/2 sum_n (rho |v_n|^2 + c lam_n^2 |u_n|^2 + a |theta_n|^2)
    L2 = 1/2 sum_n (rho |v_n|^2 + c lam_n^2 |u_n|^2 - a |theta_n|^2)

satisfy dL1/dt = + sum_n w_n theta_n^2 and
dL2/dt = - sum_n w_n theta_n^2 - 2 eta sum_n lam_n v_n theta_n with
w_n = b lam_n + d lam_n^2, and the mixture L = L2 + eps*L1 obeys a
Gronwall bound L(t) <= L(0) e^{k* t}.  Zero initial data therefore forces
the zero solution, which is the uniqueness witness.  L1 is the energy E and
L2 = kinetic + bending - thermal, so both are read off the trajectory's
energy columns (see `propagator`), as is the dissipation sum.
"""

from __future__ import annotations

import numpy as np

from .config import RunConfig, as_float, build_evolution
from .errors import ConfigError, EpsilonOutOfRange, InsufficientSamples
from .manifest import Check, RunOutput
from .model import Direction, ModelParams
from .propagator import EnergyHistory, Evolution, energy_balance_report, evolution_sizes


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon < 1.0:
        raise EpsilonOutOfRange(f"epsilon must be in (0, 1), got {epsilon}")


class LyapunovSeries:
    """L1, L2 and L = L2 + epsilon*L1 along a trajectory, one entry per
    sample."""

    __slots__ = ("t", "l1", "l2", "l")

    def __init__(self, t: np.ndarray, l1: np.ndarray, l2: np.ndarray, l: np.ndarray):
        self.t, self.l1, self.l2, self.l = t, l1, l2, l


def lyapunov_series(history: EnergyHistory, epsilon: float) -> LyapunovSeries:
    """L1, L2 and L at every sample, read off the energy columns."""
    _check_epsilon(epsilon)
    l1 = history.total
    l2 = history.kinetic + history.bending - history.thermal
    return LyapunovSeries(history.t, l1, l2, l2 + epsilon * l1)


def coupling_sums(lams: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_n lam_n v_n theta_n of the states x[mode, (u, v, theta),
    sample], one entry per sample, summed over (samples, modes) rows, so
    each sample sums as its own mode vector does."""
    return np.sum(np.ascontiguousarray((lams[:, None] * x[:, 1] * x[:, 2]).T), axis=1)


def identity_rate(params: ModelParams, lams: np.ndarray) -> float:
    """The fastest rate of the modes `lams`: the larger of the heat rate h
    and the plate frequency k of `ModelParams.block_rates`.  It leaves out
    the coupling rate g, so on strongly coupled modes it may understate the
    block's norm."""
    k, _, h = params.block_rates(lams)
    return float(np.max(np.maximum(h, k), initial=0.0))


class BackwardIdentityReport:
    """Centered-difference check of the L1/L2 evolution identities.

    The centered difference errs by about h^2/6 |L'''|, and the third
    derivative of a quadratic form is of the order (2 rate)^3 times the
    energy norm, where `rate` is the fastest rate of the modes that carry
    data (`identity_rate`).  Residuals are therefore normalized by 2 rate
    times the largest energy norm; they shrink like (2 rate)^2 dt^2 / 6.
    """

    __slots__ = ("t", "dl1_fd", "dl1_analytic", "dl2_fd", "dl2_analytic", "max_rel_residual")

    def __init__(
        self, t: np.ndarray, dl1_fd: np.ndarray, dl1_analytic: np.ndarray,
        dl2_fd: np.ndarray, dl2_analytic: np.ndarray, max_rel_residual: float,
    ):
        self.t, self.dl1_fd, self.dl1_analytic = t, dl1_fd, dl1_analytic
        self.dl2_fd, self.dl2_analytic = dl2_fd, dl2_analytic
        self.max_rel_residual = max_rel_residual


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
    )


class GronwallReport:
    """Smallest empirical k* with L(t) <= L(0) e^{k* t} along the samples.

    For zero initial data the report instead certifies L == 0.  k_star is
    None when L(0) < 0, where the bound carries no information.
    """

    __slots__ = ("k_star", "l0", "zero_data", "max_abs_l")

    def __init__(self, k_star: float | None, l0: float, zero_data: bool, max_abs_l: float):
        self.k_star, self.l0, self.zero_data, self.max_abs_l = k_star, l0, zero_data, max_abs_l


def gronwall_check(series: LyapunovSeries) -> GronwallReport:
    """Gronwall bound of the series' L = L2 + epsilon*L1."""
    l, t = series.l, series.t
    l0 = float(l[0])
    max_abs = float(np.max(np.abs(l)))
    if l0 == 0.0:
        return GronwallReport(None, l0, True, max_abs)
    if l0 < 0.0:
        return GronwallReport(None, l0, False, max_abs)
    mask = (t > 0) & (l > 0)
    if not np.any(mask):
        return GronwallReport(0.0, l0, False, max_abs)
    k = np.max(np.log(l[mask] / l0) / t[mask])
    return GronwallReport(float(max(k, 0.0)), l0, False, max_abs)


def configure(cfg: RunConfig, raw: dict[str, str]) -> None:
    build_evolution(cfg, raw)
    # the identities use central differences, which need an interior
    # sample of the grid
    if cfg.times.size < 3:
        raise ConfigError("backward needs at least 3 time samples (round(t_end / dt) >= 2)")
    cfg.epsilon = 0.5
    if "epsilon" in raw:
        cfg.epsilon = as_float(raw, "epsilon")
        if not 0 < cfg.epsilon < 1:
            raise ConfigError("epsilon must be in (0, 1)")


def run(cfg: RunConfig) -> RunOutput:
    evolution = Evolution(cfg.params, cfg.lams, cfg.x0, cfg.times, Direction.BACKWARD)
    coupling = np.empty(evolution.t.size)

    def couple(lo: int, x: np.ndarray) -> None:
        coupling[lo : lo + x.shape[2]] = coupling_sums(evolution.lams, x)

    history = evolution.history(couple)
    # L1 and L2 do not depend on epsilon: one series serves every check
    series = lyapunov_series(history, cfg.epsilon)
    rate = identity_rate(cfg.params, evolution.lams)
    # the largest energy norm scales both identity checks: summed once
    norm_max = float(np.max(history.energy_norm))
    identities = verify_backward_identities(
        cfg.params, history, series, coupling, rate, norm_max, Direction.BACKWARD
    )
    gronwall = gronwall_check(series)
    balance = energy_balance_report(history, Direction.BACKWARD)

    # second-order finite differences: residual ~ (2*rate)^2 dt^2 / 6
    fd_tol = 10.0 * (2.0 * rate * cfg.dt) ** 2 / 6.0

    balance_scaled = balance.max_abs_error / balance.error_scale(norm_max)
    checks = [
        Check("identity_residual", identities.max_rel_residual <= fd_tol, identities.max_rel_residual, fd_tol),
        Check(
            "energy_identity_reversed",
            balance_scaled <= 1e-6,
            balance_scaled,
            1e-6,
        ),
    ]
    if gronwall.zero_data:
        checks.append(Check("zero_data_stays_zero", gronwall.max_abs_l == 0.0, gronwall.max_abs_l, 0.0))
    elif gronwall.k_star is not None:
        checks.append(Check("k_star_finite", bool(np.isfinite(gronwall.k_star)), gronwall.k_star, float("inf")))

    # the finite differences exist at the interior samples only
    columns = {
        "t": identities.t,
        "L1": series.l1[1:-1],
        "L2": series.l2[1:-1],
        "L": series.l[1:-1],
        "dL1_fd": identities.dl1_fd,
        "dL1_analytic": identities.dl1_analytic,
        "dL2_fd": identities.dl2_fd,
        "dL2_analytic": identities.dl2_analytic,
    }
    results = {
        "energy_norm_max": norm_max,
        "identity_residual": identities.max_rel_residual,
        "l0": gronwall.l0,
        "max_abs_l": gronwall.max_abs_l,
    }
    if gronwall.k_star is not None:
        results["k_star"] = gronwall.k_star
    return RunOutput(
        columns=columns,
        checks=checks,
        results=results,
        sizes=evolution_sizes(cfg.lams, cfg.x0, evolution.t),
    )
