"""Command-line front end: every analysis as a subcommand with CSV output.

Usage:

    gradiplate <subcommand> --config <path> [--out <dir>] [--params k=v ...]

Subcommands: simulate, resolvent-scan, nondiff, spectrum, backward,
instability, quasistatic.  Each run writes `<subcommand>.csv`
(`resolvent_scan.csv` for resolvent-scan; fixed header row,
17-significant-digit scientific notation, '.') plus `manifest.txt` with
the config echo, per-check pass/fail lines, measured values, the
time of each phase (parse, handler, write) and the peak RSS.  CSV bytes
are identical across runs of the same config; the manifest's timing and
peak RSS lines are the only nondeterministic output.

Exit codes: 0 success, 2 configuration error, 3 invariant-check failure,
4 non-finite evolution (unstable overflow).  The manifest is written on
the check and overflow failure paths too; a configuration error, found by
the parser or by a handler, writes no output.

Every energy value a handler reports along a trajectory (E, D, L1, L2,
F'') is read off the trajectory's energy columns, so one run never sums the
energy quadratic form twice per sample.  `instability` sums it once more,
for the initial state alone: its E(0) decides the theorem's hypotheses
before anything is evolved.
"""

from __future__ import annotations

import argparse
import gc
import os
import resource
import sys
import time
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import __version__
from .config import RunConfig, load_config
from .errors import (
    ConfigError,
    EigenvalueOutOfRange,
    GradiplateError,
    NonFiniteResult,
    PreconditionUnmet,
)
from .model import Direction, Regime

# each handler imports the modules it runs when it runs, so a process loads
# only the modules of its own subcommand
if TYPE_CHECKING:
    from .propagator import EnergyBalanceReport

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECK = 3
EXIT_NONFINITE = 4


class Check:
    """One pass/fail line of the manifest: a measured value and its gate."""

    __slots__ = ("name", "passed", "value", "tolerance")

    def __init__(self, name: str, passed: bool, value: float, tolerance: float):
        self.name, self.passed, self.value, self.tolerance = name, passed, value, tolerance


class RunOutput:
    """What a handler hands to the writers: the CSV and the manifest lines."""

    __slots__ = ("csv_name", "header", "columns", "checks", "results", "notes", "sizes")

    def __init__(
        self,
        csv_name: str,
        header: list[str],
        columns: list[np.ndarray],
        checks: list[Check],
        results: dict[str, float],
        notes: dict[str, str],
        sizes: dict[str, int] | None = None,
    ):
        self.csv_name, self.header, self.columns = csv_name, header, columns
        self.checks, self.results, self.notes = checks, results, notes
        self.sizes = {} if sizes is None else sizes


def _fmt(value) -> str:
    """One manifest value, in the number format of the CSV columns: 17
    significant digits round-trip float64 exactly."""
    if isinstance(value, (int, np.integer)):
        return "%d" % value
    if isinstance(value, str):
        return value
    return "%.16e" % value


def _time_grid(cfg: RunConfig) -> np.ndarray:
    n = int(round(cfg.t_end / cfg.dt))
    return cfg.dt * np.arange(n + 1)


def _identity_scale(report: EnergyBalanceReport, norm_max: float) -> float:
    """Scale of the energy identity's residual: E(t) sums terms as large as
    the energy norm kinetic + |bending| + thermal, whose largest value over
    the grid is `norm_max`, and which for c < 0 can grow by hundreds of
    orders of magnitude while E stays near E(0)."""
    return max(report.denominator, norm_max)


def _evolution_sizes(cfg: RunConfig, times: np.ndarray) -> dict[str, int]:
    from .propagator import live_modes, time_blocks

    live = live_modes(cfg.x0).size
    return {
        "modes": cfg.lams.size,
        "live_modes": live,
        "samples": times.size,
        "time_blocks": len(time_blocks(live, times.size)),
    }


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _run_simulate(cfg: RunConfig) -> RunOutput:
    from .propagator import Evolution, energy_balance_report

    evolution = Evolution(cfg.params, cfg.lams, cfg.x0, _time_grid(cfg), Direction.FORWARD)
    history = evolution.history()
    report = energy_balance_report(history, Direction.FORWARD)

    e, d = history.total, history.dissipation
    scale = _identity_scale(report, float(np.max(history.energy_norm)))
    residual_scaled = report.max_abs_error / scale
    checks = [
        Check("energy_identity", residual_scaled <= 1e-8, residual_scaled, 1e-8),
        Check("dissipation_nonnegative", bool(np.min(d) >= 0.0), float(np.min(d)), 0.0),
    ]
    if cfg.params.regime is Regime.STABLE:
        max_increase = float(np.max(np.diff(e), initial=-np.inf))
        slack = 1e-12 * scale
        checks.append(Check("energy_monotone", max_increase <= slack, max_increase, slack))

    columns = [
        history.t, e, history.kinetic, history.bending, history.thermal, d,
        report.residuals,
    ]
    return RunOutput(
        csv_name="simulate.csv",
        header=["t", "E", "kinetic", "bending", "thermal", "D", "energy_balance_residual"],
        columns=columns,
        checks=checks,
        results={
            "e0": report.e0,
            "max_residual_vs_e0": report.max_abs_residual,
            "max_residual_vs_scale": residual_scaled,
        },
        notes={},
        sizes=_evolution_sizes(cfg, evolution.t),
    )


def _run_resolvent_scan(cfg: RunConfig) -> RunOutput:
    from .resolvent import resonant_omega_grid, scan_imaginary_axis

    if cfg.omega_grid_kind == "log":
        grid = np.geomspace(cfg.omega_min, cfg.omega_max, cfg.omega_points)
    elif cfg.omega_grid_kind == "linear":
        grid = np.linspace(cfg.omega_min, cfg.omega_max, cfg.omega_points)
    else:
        grid = resonant_omega_grid(cfg.params, cfg.lams, cfg.omega_min, cfg.omega_max)
        if grid.size == 0:
            raise ConfigError(
                "no resonant frequencies fall inside [omega_min, omega_max]"
            )
    scan = scan_imaginary_axis(cfg.params, cfg.lams, grid)
    checks = [
        Check("norms_finite", bool(np.all(np.isfinite(scan.norms))), float(np.max(scan.norms)), float("inf")),
        Check("omega_sign_symmetry", scan.sign_gap <= 1e-10, scan.sign_gap, 1e-10),
    ]
    columns = [scan.omegas, scan.norms]
    return RunOutput(
        csv_name="resolvent_scan.csv",
        header=["omega", "resolvent_norm"],
        columns=columns,
        checks=checks,
        results={
            "sup_norm": scan.sup_norm,
            "tail_min": scan.tail_min,
            "tail_start": scan.tail_start,
            "limit_peak": scan.limit_peak,
        },
        notes={},
        sizes={
            "modes": cfg.lams.size,
            "omegas": scan.omegas.size,
            "kept_blocks": scan.kept_blocks,
            "jacobi_calls": scan.jacobi_calls,
        },
    )


def _run_nondiff(cfg: RunConfig) -> RunOutput:
    from .resolvent import closed_form_gap, gap_reach, nondiff_sequence

    params, tolerance = cfg.params, cfg.gap_tolerance
    seq = nondiff_sequence(params, cfg.domain, cfg.n_max, cfg.branch)
    lam = seq.lam
    # the gap decreases in lambda: above tolerance at lambda_{n_max}, no run
    # to this n_max can pass
    end_gap = closed_form_gap(params, float(lam[-1]))
    if end_gap > tolerance:
        lam_star, n = gap_reach(params, cfg.domain, tolerance)
        reach = f"it falls to that from lambda = {lam_star!r} on" if n is None else (
            f"the smallest n_max that reaches it is {max(n, 10)}"
        )
        raise ConfigError(
            f"nondiff: the limit gap at n_max = {cfg.n_max} is {end_gap!r} in closed "
            f"form, above gap_tolerance = {tolerance!r}; {reach}"
        )
    max_alg = float(max(np.max(seq.alg1_residual), np.max(seq.alg2_residual)))
    # |v_n|^2 against its real expansion in lambda_n, target (1 + gap), which
    # also checks the gap formula the refusal above relies on
    expansion = seq.target * (1.0 + closed_form_gap(params, lam))
    expansion_error = float(np.max(np.abs(seq.norm_v_sq - expansion) / expansion))
    checks = [
        Check("amplitude_system_residual", max_alg <= 1e-12, max_alg, 1e-12),
        Check("norm_v_sq_expansion", expansion_error <= 1e-12, expansion_error, 1e-12),
        Check("limit_gap", seq.gap_at_end <= tolerance, seq.gap_at_end, tolerance),
    ]
    columns = [
        seq.n, lam, seq.omega, seq.q, seq.p.real, seq.p.imag, seq.norm_v_sq,
        seq.norm_v_sq_weighted, seq.gap,
    ]
    return RunOutput(
        csv_name="nondiff.csv",
        header=["n", "lambda", "omega", "q", "p_re", "p_im", "norm_v_sq", "norm_v_sq_weighted", "gap_to_limit"],
        columns=columns,
        checks=checks,
        results={"target": seq.target, "gap_at_n_max": seq.gap_at_end},
        notes={"matching_norm": seq.matching_norm},
    )


def _run_spectrum(cfg: RunConfig) -> RunOutput:
    from .spectrum import mode_spectra, row_max, spectral_abscissa

    lams = np.geomspace(cfg.lambda_min, cfg.lambda_max, cfg.lambda_points)
    roots, classification, residuals = mode_spectra(cfg.params, lams)
    max_real = row_max(roots.real)
    residual_max = residuals.max(axis=-1)
    max_residual = float(np.max(residual_max))
    scan_abscissa = float(row_max(max_real))
    modal_abscissa = spectral_abscissa(cfg.params, cfg.lams)

    checks = [Check("root_residuals", max_residual <= 1e-10, max_residual, 1e-10)]
    # exponential stability needs the coupling: with eta = 0 the plate roots
    # +-i sqrt(c/rho) lam lie on the imaginary axis
    if cfg.params.regime is Regime.STABLE and cfg.params.eta != 0:
        value = max(scan_abscissa, modal_abscissa)
        checks.append(Check("abscissa_negative", value < 0.0, value, 0.0))

    # roots.view(float) interleaves the columns root1_re, root1_im, ...
    columns = [
        lams, *roots.view(float).T, max_real, residual_max,
        np.char.replace(classification, " ", "_"),
    ]
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
        columns=columns,
        checks=checks,
        results=results,
        notes={},
    )


def _run_backward(cfg: RunConfig) -> RunOutput:
    from .functionals import (
        coupling_sums, gronwall_check, identity_rate, lyapunov_series, verify_backward_identities,
    )
    from .propagator import Evolution, energy_balance_report

    evolution = Evolution(cfg.params, cfg.lams, cfg.x0, _time_grid(cfg), Direction.BACKWARD)
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
    fd_tol = 10.0 * (2.0 * identities.rate * cfg.dt) ** 2 / 6.0

    scale = _identity_scale(balance, norm_max)
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
    columns = [
        identities.t,
        series.l1[1:-1],
        series.l2[1:-1],
        series.l[1:-1],
        identities.dl1_fd,
        identities.dl1_analytic,
        identities.dl2_fd,
        identities.dl2_analytic,
    ]
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
        columns=columns,
        checks=checks,
        results=results,
        notes={},
        sizes=_evolution_sizes(cfg, evolution.t),
    )


def _run_instability(cfg: RunConfig) -> RunOutput:
    from .functionals import (
        WEIGHT_CONVENTION,
        choose_weight_shift,
        convexity_residual_check,
        convexity_trajectory,
        instability_lower_bound,
    )
    from .propagator import energy_of

    lams, x0 = cfg.lams, cfg.x0
    # the energy column's first entry, to the bit
    e0 = energy_of(cfg.params, lams, x0).total
    omega_const = cfg.omega_const
    if omega_const == "auto":
        omega_const = max(0.0, -e0)
    times = _time_grid(cfg)
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
    columns = [
        states.t,
        states.f,
        states.fdot,
        states.fddot,
        convexity.residuals,
        bound.lower_bound,
        states.f - bound.lower_bound,
    ]
    return RunOutput(
        csv_name="instability.csv",
        header=["t", "F", "Fdot", "Fddot", "convexity_residual", "lower_bound", "margin"],
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
        sizes=_evolution_sizes(cfg, times),
    )


def _run_quasistatic(cfg: RunConfig) -> RunOutput:
    from .quasistatic import quasi_decay_report

    qparams = cfg.qparams
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
    columns = [report.t, report.theta_l2_sq, report.h2_seminorm, envelope]
    return RunOutput(
        csv_name="quasistatic.csv",
        header=["t", "theta_l2_sq", "u_h2_seminorm", "envelope"],
        columns=columns,
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

def _peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB (1e6 bytes)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss counts bytes on macOS and KiB elsewhere
    return peak / 1e6 if sys.platform == "darwin" else peak * 1024 / 1e6


class _Phases:
    """Wall time of each phase of one run, for the manifest's timing lines."""

    def __init__(self) -> None:
        self.started = self.last = time.perf_counter()
        self.seconds: dict[str, float] = {}

    def end(self, phase: str) -> None:
        now = time.perf_counter()
        self.seconds[phase] = now - self.last
        self.last = now


def _write_manifest(
    out_dir: str,
    subcommand: str,
    status: str,
    exit_code: int,
    cfg: RunConfig,
    output: RunOutput | None,
    phases: _Phases,
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
        for key, size in output.sizes.items():
            lines.append(f"size.{key} = {size}")
    # the write phase covers the CSV and this manifest up to its timing lines
    phases.end("write")
    for phase, seconds in phases.seconds.items():
        lines.append(f"timing.{phase}_seconds = {seconds:.6f}")
    lines.append(f"timing.total_seconds = {phases.last - phases.started:.6f}")
    lines.append(f"peak_rss_mb = {_peak_rss_mb():.1f}")
    with open(os.path.join(out_dir, "manifest.txt"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# subcommand -> the help line of its parser
DESCRIPTIONS = {
    "simulate": "evolve the truncated system and audit the energy identity",
    "resolvent-scan": "scan the resolvent norm along the imaginary axis",
    "nondiff": "resonant-drive sequence and its nonzero resolvent limit",
    "spectrum": "mode eigenvalues, abscissa, and the vertical-strip limit",
    "backward": "time-reversed evolution identities and Gronwall bound",
    "instability": "convexity functional and exponential lower bound (c < 0)",
    "quasistatic": "scalar quasi-static reduction and plate decay (c < 0)",
}


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The parser of the command line `argv`.

    When argv's first entry names a subcommand, that is the only subparser
    built; the usage line still lists every subcommand, so the help, usage
    and error texts are those of the parser with all seven.
    """
    parser = argparse.ArgumentParser(
        prog="gradiplate",
        description="Spectral diagnostics for hinged thermoelastic plates "
        "with second-gradient heat conduction.",
    )
    parser.add_argument("--version", action="version", version=f"gradiplate {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    names = list(DESCRIPTIONS)
    if argv and argv[0] in DESCRIPTIONS:
        names = [argv[0]]
        sub.metavar = "{%s}" % ",".join(DESCRIPTIONS)
    for name in names:
        desc = DESCRIPTIONS[name]
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
    phases = _Phases()
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    subcommand = args.subcommand

    output = error = message = None
    try:
        cfg = load_config(args.config, subcommand, args.params)
        phases.end("parse")
        output = HANDLERS[subcommand](cfg)
    except (ConfigError, EigenvalueOutOfRange) as exc:
        # found by the parser, or by a handler that needs its modes to see it
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        # an accepted config can still ask for arrays larger than memory
        print(f"config error: the run does not fit in memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonFiniteResult as exc:
        status, exit_code, error = "nonfinite", EXIT_NONFINITE, f"{exc} (t={exc.time})"
        message = f"non-finite result: {exc}"
    except GradiplateError as exc:
        status, exit_code, error = "check_failure", EXIT_CHECK, str(exc)
        message = f"check failure: {exc}"
    else:
        failed = [c.name for c in output.checks if not c.passed]
        status, exit_code = ("check_failure", EXIT_CHECK) if failed else ("ok", EXIT_OK)
        if failed:
            message = f"checks failed: {', '.join(failed)}"
    phases.end("handler")

    os.makedirs(args.out, exist_ok=True)
    if output is not None:
        from .csvout import write_csv

        write_csv(os.path.join(args.out, output.csv_name), output.header, output.columns)
    _write_manifest(args.out, subcommand, status, exit_code, cfg, output, phases, error)
    if message is not None:
        print(message, file=sys.stderr)
    return exit_code


def entry() -> None:
    """Process entry of the `gradiplate` script and `python -m gradiplate.cli`.

    The exiting process needs none of its heap, so it is frozen before the
    exit: the interpreter's shutdown cycle collections skip frozen objects,
    and would otherwise walk every object numpy made at import.  `main`
    never freezes, so in-process callers keep their garbage collection.
    """
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
