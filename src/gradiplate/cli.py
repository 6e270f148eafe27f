"""Command-line front end: every analysis as a subcommand with CSV output.

Usage:

    gradiplate <subcommand> --config <path> [--out <dir>] [--params k=v ...]

Subcommands: simulate, resolvent-scan, nondiff, spectrum, backward,
instability, quasistatic.  Each run writes `<subcommand>.csv` (fixed header
row, 17-significant-digit scientific notation, '.') plus `manifest.txt`
with the config echo, per-check pass/fail lines, measured values, and
timings.  CSV bytes are identical across runs of the same config; the
manifest's timing lines are the only nondeterministic output.

Exit codes: 0 success, 2 configuration error, 3 invariant-check failure,
4 non-finite evolution (unstable overflow).  The manifest is written on
the failure paths too.

Every energy value a handler reports (E, D, L1, L2 and the E(0) of the
instability bound) is read off the trajectory's energy columns, so one run
never sums the energy quadratic form twice.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .config import RunConfig, load_config
from .errors import ConfigError, GradiplateError, NonFiniteResult
from .model import Direction, Regime, enumerate_modes

# each handler imports the modules it runs when it runs, so a process loads
# only the modules of its own subcommand
if TYPE_CHECKING:
    from .propagator import EnergyBalanceReport, Trajectory

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECK = 3
EXIT_NONFINITE = 4


@dataclass
class Check:
    name: str
    passed: bool
    value: float
    tolerance: float


@dataclass
class RunOutput:
    csv_name: str
    header: list[str]
    rows: list[tuple]
    checks: list[Check]
    results: dict[str, float]
    notes: dict[str, str]


def _conversion(value) -> str:
    """The %-conversion of one CSV or manifest value: 17 significant
    digits round-trip float64 exactly."""
    if isinstance(value, (int, np.integer)):
        return "%d"
    if isinstance(value, str):
        return "%s"
    return "%.16e"


def _fmt(value) -> str:
    return _conversion(value) % (value,)


def _time_grid(cfg: RunConfig) -> np.ndarray:
    n = int(round(cfg.t_end / cfg.dt))
    return cfg.dt * np.arange(n + 1)


def _columns_to_rows(*columns: np.ndarray) -> list[tuple]:
    """CSV rows from equally long 1-D columns."""
    return list(zip(*(col.tolist() for col in columns)))


def _identity_scale(report: EnergyBalanceReport, trajectory: Trajectory) -> float:
    """Scale of the energy identity's residual: E(t) sums terms as large as
    the energy norm kinetic + |bending| + thermal, which for c < 0 can grow
    by hundreds of orders of magnitude while E stays near E(0)."""
    norm = trajectory.kinetic + np.abs(trajectory.bending) + trajectory.thermal
    return max(report.denominator, float(np.max(norm)))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _run_simulate(cfg: RunConfig) -> RunOutput:
    from .propagator import energy_balance_report, evolve

    times = _time_grid(cfg)
    trajectory = evolve(cfg.params, cfg.initial_state(), times, Direction.FORWARD)
    report = energy_balance_report(trajectory, Direction.FORWARD)

    e, d = trajectory.total, trajectory.dissipation
    scale = _identity_scale(report, trajectory)
    residual_scaled = report.max_abs_error / scale
    checks = [
        Check("energy_identity", residual_scaled <= 1e-8, residual_scaled, 1e-8),
        Check("dissipation_nonnegative", bool(np.min(d) >= 0.0), float(np.min(d)), 0.0),
    ]
    if cfg.params.regime is Regime.STABLE:
        max_increase = float(np.max(np.diff(e), initial=-np.inf))
        slack = 1e-12 * scale
        checks.append(Check("energy_monotone", max_increase <= slack, max_increase, slack))

    rows = _columns_to_rows(
        trajectory.t, e, trajectory.kinetic, trajectory.bending, trajectory.thermal, d,
        report.residuals,
    )
    return RunOutput(
        csv_name="simulate.csv",
        header=["t", "E", "kinetic", "bending", "thermal", "D", "energy_balance_residual"],
        rows=rows,
        checks=checks,
        results={
            "e0": report.e0,
            "max_residual_vs_e0": report.max_abs_residual,
            "max_residual_vs_scale": residual_scaled,
        },
        notes={},
    )


def _run_resolvent_scan(cfg: RunConfig) -> RunOutput:
    from .resolvent import resonant_omega_grid, scan_imaginary_axis

    if cfg.omega_grid_kind == "log":
        grid = np.geomspace(cfg.omega_min, cfg.omega_max, cfg.omega_points)
    elif cfg.omega_grid_kind == "linear":
        grid = np.linspace(cfg.omega_min, cfg.omega_max, cfg.omega_points)
    else:
        grid = resonant_omega_grid(
            cfg.params, cfg.domain, cfg.mode_count, cfg.omega_min, cfg.omega_max
        )
        if grid.size == 0:
            raise ConfigError(
                "no resonant frequencies fall inside [omega_min, omega_max]"
            )
    scan = scan_imaginary_axis(cfg.params, cfg.domain, grid, cfg.mode_count)
    checks = [
        Check("norms_finite", bool(np.all(np.isfinite(scan.norms))), float(np.max(scan.norms)), float("inf")),
        Check("omega_sign_symmetry", scan.sign_gap <= 1e-10, scan.sign_gap, 1e-10),
    ]
    rows = _columns_to_rows(scan.omegas, scan.norms)
    return RunOutput(
        csv_name="resolvent_scan.csv",
        header=["omega", "resolvent_norm"],
        rows=rows,
        checks=checks,
        results={
            "sup_norm": scan.sup_norm,
            "tail_min": scan.tail_min,
            "tail_start": scan.tail_start,
            "limit_peak": scan.limit_peak,
        },
        notes={},
    )


def _run_nondiff(cfg: RunConfig) -> RunOutput:
    from .resolvent import nondiff_limit_check, nondiff_sequence

    modes = enumerate_modes(cfg.domain, cfg.n_max)
    points = [
        nondiff_sequence(cfg.params, cfg.domain, n, cfg.branch, modes=modes)
        for n in range(1, cfg.n_max + 1)
    ]
    report = nondiff_limit_check(
        cfg.params, cfg.domain, cfg.n_max, cfg.branch, points=points
    )
    max_alg = max(max(p.alg1_residual, p.alg2_residual) for p in points)
    checks = [
        Check("amplitude_system_residual", max_alg <= 1e-12, max_alg, 1e-12),
        Check("limit_gap", report.gap_at_end <= cfg.gap_tolerance, report.gap_at_end, cfg.gap_tolerance),
    ]
    target = report.target
    rows = [
        (
            p.n,
            p.lam,
            p.omega,
            p.q,
            p.p.real,
            p.p.imag,
            p.norm_v_sq,
            p.norm_v_sq_weighted,
            abs(p.norm_v_sq - target) / target,
        )
        for p in points
    ]
    return RunOutput(
        csv_name="nondiff.csv",
        header=[
            "n",
            "lambda",
            "omega",
            "q",
            "p_re",
            "p_im",
            "norm_v_sq",
            "norm_v_sq_weighted",
            "gap_to_limit",
        ],
        rows=rows,
        checks=checks,
        results={"target": target, "gap_at_n_max": report.gap_at_end},
        notes={"matching_norm": report.matching_norm},
    )


def _run_spectrum(cfg: RunConfig) -> RunOutput:
    from .spectrum import mode_spectra, row_max, spectral_abscissa

    lams = np.geomspace(cfg.lambda_min, cfg.lambda_max, cfg.lambda_points)
    roots, classification, residuals = mode_spectra(cfg.params, lams)
    max_real = row_max(roots.real)
    residual_max = residuals.max(axis=-1)
    max_residual = float(np.max(residual_max))
    scan_abscissa = float(row_max(max_real))
    modal_abscissa = spectral_abscissa(cfg.params, cfg.domain, cfg.mode_count)

    checks = [Check("root_residuals", max_residual <= 1e-10, max_residual, 1e-10)]
    # exponential stability needs the coupling: with eta = 0 the plate roots
    # +-i sqrt(c/rho) lam lie on the imaginary axis
    if cfg.params.regime is Regime.STABLE and cfg.params.eta != 0:
        value = max(scan_abscissa, modal_abscissa)
        checks.append(Check("abscissa_negative", value < 0.0, value, 0.0))

    # roots.view(float) interleaves the columns root1_re, root1_im, ...
    rows = _columns_to_rows(
        lams, *roots.view(float).T, max_real, residual_max,
        np.char.replace(classification, " ", "_"),
    )
    results = {
        "abscissa_lambda_scan": scan_abscissa,
        "abscissa_modes": modal_abscissa,
        "max_root_residual": max_residual,
    }
    if cfg.params.c > 0 and cfg.params.d > 0:
        results["strip_limit"] = -cfg.params.eta**2 / (2 * cfg.params.rho * cfg.params.d)
    return RunOutput(
        csv_name="spectrum.csv",
        header=[
            "lambda",
            "root1_re",
            "root1_im",
            "root2_re",
            "root2_im",
            "root3_re",
            "root3_im",
            "max_real",
            "residual_max",
            "classification",
        ],
        rows=rows,
        checks=checks,
        results=results,
        notes={},
    )


def _run_backward(cfg: RunConfig) -> RunOutput:
    from .functionals import gronwall_check, lyapunov_series, verify_backward_identities
    from .propagator import energy_balance_report, evolve

    times = _time_grid(cfg)
    trajectory = evolve(cfg.params, cfg.initial_state(), times, Direction.BACKWARD)
    # L1 and L2 do not depend on epsilon: one series serves every check
    series = lyapunov_series(cfg.params, trajectory, cfg.epsilon)
    identities = verify_backward_identities(
        cfg.params, trajectory, Direction.BACKWARD, series=series
    )
    gronwall = gronwall_check(cfg.params, trajectory, cfg.epsilon, series=series)
    balance = energy_balance_report(trajectory, Direction.BACKWARD)

    # second-order finite differences: residual ~ (2*rate)^2 dt^2 / 6,
    # with the rate taken over the modes that actually carry data
    active = np.any(trajectory.x[:, :, 0] != 0.0, axis=1)
    active_rates = [
        max(
            cfg.params.heat_weight(m.lam) / cfg.params.a,
            abs(cfg.params.c / cfg.params.rho) ** 0.5 * m.lam,
        )
        for m, on in zip(trajectory.modes, active)
        if on
    ]
    rate = max(active_rates, default=0.0)
    fd_tol = 10.0 * (2.0 * rate) ** 2 * cfg.dt**2 / 6.0

    scale = _identity_scale(balance, trajectory)
    balance_scaled = balance.max_abs_error / scale
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
    rows = _columns_to_rows(
        identities.t,
        series.l1[1:-1],
        series.l2[1:-1],
        series.l[1:-1],
        identities.dl1_fd,
        identities.dl1_analytic,
        identities.dl2_fd,
        identities.dl2_analytic,
    )
    results = {
        "identity_residual": identities.max_rel_residual,
        "l0": gronwall.l0,
        "max_abs_l": gronwall.max_abs_l,
    }
    if gronwall.k_star is not None:
        results["k_star"] = gronwall.k_star
    return RunOutput(
        csv_name="backward.csv",
        header=["t", "L1", "L2", "L", "dL1_fd", "dL1_analytic", "dL2_fd", "dL2_analytic"],
        rows=rows,
        checks=checks,
        results=results,
        notes={},
    )


def _run_instability(cfg: RunConfig) -> RunOutput:
    from .functionals import (
        FDDOT_E0_COEFFICIENT,
        WEIGHT_CONVENTION,
        choose_weight_shift,
        convexity_residual_check,
        convexity_trajectory,
        instability_lower_bound,
    )
    from .propagator import evolve

    initial = cfg.initial_state()
    times = _time_grid(cfg)
    trajectory = evolve(cfg.params, initial, times, Direction.FORWARD)
    e0 = float(trajectory.total[0])
    omega_const = cfg.omega_const
    if omega_const == "auto":
        omega_const = max(0.0, -e0)
    t0 = cfg.t0
    if t0 == "auto":
        t0 = choose_weight_shift(cfg.params, initial, omega_const)

    states = convexity_trajectory(cfg.params, trajectory, omega_const, t0)
    convexity = convexity_residual_check(states, e0)
    window = None
    if cfg.growth_fit_start is not None:
        window = (cfg.growth_fit_start, float(times[-1]))
    bound = instability_lower_bound(states, e0, growth_window=window)

    checks = [
        Check("convexity_inequality", convexity.passed, convexity.min_residual, -convexity.tolerance),
        Check("exponential_lower_bound", bound.holds, bound.min_margin, 0.0),
    ]
    rows = _columns_to_rows(
        states.t,
        states.f,
        states.fdot,
        states.fddot,
        convexity.residuals,
        bound.lower_bound,
        states.f - bound.lower_bound,
    )
    return RunOutput(
        csv_name="instability.csv",
        header=["t", "F", "Fdot", "Fddot", "convexity_residual", "lower_bound", "margin"],
        rows=rows,
        checks=checks,
        results={
            "e0": e0,
            "omega_const": float(omega_const),
            "t0": float(t0),
            "nu": states.nu,
            "growth_rate": bound.growth_rate,
            "bound_exponent": bound.bound_exponent,
        },
        notes={
            "weight_convention": WEIGHT_CONVENTION,
            "fddot_e0_coefficient": str(FDDOT_E0_COEFFICIENT),
        },
    )


def _run_quasistatic(cfg: RunConfig) -> RunOutput:
    from .quasistatic import QuasiParams, quasi_decay_report

    qparams = QuasiParams.from_params(cfg.params, cfg.length)
    report = quasi_decay_report(qparams, cfg.initial_theta, _time_grid(cfg))

    theta0_l2 = float(np.sum(np.asarray(cfg.initial_theta) ** 2))
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
    envelope = report.k_measured * np.exp(-2.0 * report.rate1 * report.t) * theta0_l2
    rows = _columns_to_rows(report.t, report.theta_l2_sq, report.h2_seminorm, envelope)
    return RunOutput(
        csv_name="quasistatic.csv",
        header=["t", "theta_l2_sq", "u_h2_seminorm", "envelope"],
        rows=rows,
        checks=checks,
        results={
            "a_eff": qparams.a_eff,
            "rate1": report.rate1,
            "fitted_rate": report.fitted_rate,
            "k_measured": report.k_measured,
        },
        notes={},
    )


HANDLERS = {
    "simulate": _run_simulate,
    "resolvent-scan": _run_resolvent_scan,
    "nondiff": _run_nondiff,
    "spectrum": _run_spectrum,
    "backward": _run_backward,
    "instability": _run_instability,
    "quasistatic": _run_quasistatic,
}


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------

def _write_csv(path: str, header: list[str], rows: list[tuple]) -> None:
    # every row has the column kinds of the first, so one format serves all
    line = ",".join(_conversion(v) for v in rows[0]) + "\n" if rows else ""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % row for row in rows)


def _write_manifest(
    out_dir: str,
    subcommand: str,
    status: str,
    exit_code: int,
    cfg: RunConfig | None,
    output: RunOutput | None,
    started: float,
    error: str | None = None,
) -> None:
    lines = [
        f"tool = gradiplate {__version__}",
        f"subcommand = {subcommand}",
        f"status = {status}",
        f"exit_code = {exit_code}",
    ]
    if error is not None:
        lines.append(f"error = {error}")
    if cfg is not None:
        for key in sorted(cfg.raw):
            lines.append(f"config.{key} = {cfg.raw[key]}")
    if output is not None:
        for check in output.checks:
            lines.append(f"check.{check.name}.pass = {'true' if check.passed else 'false'}")
            lines.append(f"check.{check.name}.value = {_fmt(check.value)}")
            lines.append(f"check.{check.name}.tolerance = {_fmt(check.tolerance)}")
        for key in sorted(output.results):
            lines.append(f"result.{key} = {_fmt(output.results[key])}")
        for key in sorted(output.notes):
            lines.append(f"note.{key} = {output.notes[key]}")
    lines.append(f"timing.total_seconds = {time.perf_counter() - started:.3f}")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "manifest.txt"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradiplate",
        description="Spectral diagnostics for hinged thermoelastic plates "
        "with second-gradient heat conduction.",
    )
    parser.add_argument("--version", action="version", version=f"gradiplate {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    descriptions = {
        "simulate": "evolve the truncated system and audit the energy identity",
        "resolvent-scan": "scan the resolvent norm along the imaginary axis",
        "nondiff": "resonant-drive sequence and its nonzero resolvent limit",
        "spectrum": "mode eigenvalues, abscissa, and the vertical-strip limit",
        "backward": "time-reversed evolution identities and Gronwall bound",
        "instability": "convexity functional and exponential lower bound (c < 0)",
        "quasistatic": "scalar quasi-static reduction and plate decay (c < 0)",
    }
    for name, desc in descriptions.items():
        p = sub.add_parser(name, help=desc, description=desc)
        p.add_argument("--config", required=True, help="path to key=value config file")
        p.add_argument("--out", default="gradiplate-out", help="output directory")
        p.add_argument(
            "--params",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key (repeatable)",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    subcommand = args.subcommand

    try:
        cfg = load_config(args.config, subcommand, args.params)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        output = HANDLERS[subcommand](cfg)
    except NonFiniteResult as exc:
        _write_manifest(
            args.out, subcommand, "nonfinite", EXIT_NONFINITE, cfg, None, started,
            error=f"{exc} (t={exc.time})",
        )
        print(f"non-finite result: {exc}", file=sys.stderr)
        return EXIT_NONFINITE
    except GradiplateError as exc:
        _write_manifest(
            args.out, subcommand, "check_failure", EXIT_CHECK, cfg, None, started,
            error=str(exc),
        )
        print(f"check failure: {exc}", file=sys.stderr)
        return EXIT_CHECK

    all_passed = all(check.passed for check in output.checks)
    status = "ok" if all_passed else "check_failure"
    exit_code = EXIT_OK if all_passed else EXIT_CHECK
    os.makedirs(args.out, exist_ok=True)
    _write_csv(os.path.join(args.out, output.csv_name), output.header, output.rows)
    _write_manifest(args.out, subcommand, status, exit_code, cfg, output, started)
    if not all_passed:
        failed = ", ".join(c.name for c in output.checks if not c.passed)
        print(f"checks failed: {failed}", file=sys.stderr)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
