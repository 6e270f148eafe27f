"""The benchmark's workloads: which gradiplate invocations each one runs.

Every config is fixed.  The seed draws one factor in [1, 1.01) per run and
scales grid endpoints (t_end, omega_max, lambda_max) and explicit
initial-data amplitudes by it, so different seeds give different inputs of
the same size.  It never chooses between configs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

PI = "3.141592653589793"
UNIT_MODEL = ("rho = 1", "a = 1", "b = 1", "c = 1", "d = 1", "eta = 1")
UNSTABLE_MODEL = ("rho = 1", "a = 1", "b = 1", "c = -1", "d = 1", "eta = 1")
README_PRESET = "first-mode-bend+thermal-pulse"

CSV_NAMES = {
    "simulate": "simulate.csv",
    "resolvent-scan": "resolvent_scan.csv",
    "nondiff": "nondiff.csv",
    "spectrum": "spectrum.csv",
    "backward": "backward.csv",
    "instability": "instability.csv",
    "quasistatic": "quasistatic.csv",
}
SUBCOMMANDS = tuple(CSV_NAMES)


@dataclass(frozen=True)
class Invocation:
    """One `gradiplate <subcommand> --config <file>` process."""

    subcommand: str
    config: tuple[str, ...]
    # checks this invocation is known to fail (a recorded program defect);
    # it still counts as failed, but does not make the run incorrect
    known_failing_checks: frozenset[str] = field(default_factory=frozenset)

    @property
    def csv_name(self) -> str:
        return CSV_NAMES[self.subcommand]

    def config_text(self) -> str:
        return "\n".join(self.config) + "\n"


WHY = {
    "time-domain": "README-size simulate, instability and backward: evolve's "
    "per-sample objects, quadrature and functionals; resolvent and spectrum idle",
    "frequency-domain": "resolvent scan, nondiff and spectrum at README size: "
    "the resolvent and spectrum kernels, with no trajectory built",
    "wide-plate": "rectangle with thousands of modes and few samples: per-mode "
    "kernel cost, a wide resolvent stack and rectangle mode enumeration",
    "cold-start": "all seven subcommands at test-suite sizes: interpreter, "
    "import, config and output writing dominate the math",
}
NAMES = tuple(WHY)


def _num(x: float) -> str:
    return repr(float(x))


def _interval(modes: int) -> tuple[str, ...]:
    return ("domain = interval", f"length = {PI}", f"mode_count = {modes}")


def _rectangle(modes: int) -> tuple[str, ...]:
    return ("domain = rectangle", f"length1 = {PI}", "length2 = 2", f"mode_count = {modes}")


def scale_factor(seed: int) -> float:
    return random.Random(seed).uniform(1.0, 1.01)


def _time_domain(f: float) -> tuple[Invocation, ...]:
    return (
        Invocation("simulate", UNIT_MODEL + _interval(64) + (
            f"t_end = {_num(10 * f)}", "dt = 0.001", f"initial = {README_PRESET}",
        )),
        Invocation("instability", UNSTABLE_MODEL + _interval(64) + (
            f"t_end = {_num(10 * f)}", "dt = 0.001", "initial = first-mode-bend",
        )),
        Invocation("backward", UNIT_MODEL + _interval(64) + (
            f"t_end = {_num(1 * f)}", "dt = 0.001", "initial = first-mode-bend",
        )),
    )


def _frequency_domain(f: float) -> tuple[Invocation, ...]:
    return (
        Invocation("resolvent-scan", UNIT_MODEL + _interval(64) + (
            "omega_min = 0.1", f"omega_max = {_num(1e4 * f)}",
            "omega_points = 2000", "omega_grid = log",
        )),
        Invocation("nondiff", UNIT_MODEL + _interval(64) + ("n_max = 1000",)),
        Invocation("spectrum", UNIT_MODEL + _interval(64) + (
            f"lambda_max = {_num(1e8 * f)}", "lambda_points = 2000",
        )),
    )


def _wide_plate(f: float) -> tuple[Invocation, ...]:
    return (
        # Known defect: the rectangle's thermal-pulse modes outrun the
        # Simpson quadrature at dt = 1e-3, so the energy identity misses its
        # 1e-8 gate (about 2e-7) and the program exits 3.  The preset stays.
        Invocation(
            "simulate",
            UNIT_MODEL + _rectangle(4096) + (
                f"t_end = {_num(0.01 * f)}", "dt = 0.001", f"initial = {README_PRESET}",
            ),
            known_failing_checks=frozenset({"energy_identity"}),
        ),
        Invocation("resolvent-scan", UNIT_MODEL + _rectangle(2048) + (
            "omega_min = 0.1", f"omega_max = {_num(1e4 * f)}",
            "omega_points = 200", "omega_grid = log",
        )),
        Invocation("nondiff", UNIT_MODEL + _rectangle(64) + ("n_max = 300",)),
    )


def _cold_start(f: float) -> tuple[Invocation, ...]:
    # the sizes tests/test_cli.py uses
    return (
        Invocation("simulate", UNIT_MODEL + _interval(4) + (
            f"t_end = {_num(1 * f)}", "dt = 0.001", "initial = first-mode-bend",
        )),
        Invocation("resolvent-scan", UNIT_MODEL + _interval(16) + (
            "omega_min = 5", f"omega_max = {_num(200 * f)}",
            "omega_points = 40", "omega_grid = resonant",
        )),
        Invocation("nondiff", UNIT_MODEL + _interval(30) + ("n_max = 30",)),
        Invocation("spectrum", UNIT_MODEL + _interval(16) + (
            f"lambda_max = {_num(1e6 * f)}", "lambda_points = 50",
        )),
        Invocation("backward", UNIT_MODEL + _interval(2) + (
            f"t_end = {_num(1 * f)}", "dt = 0.001",
            f"initial_u = {_num(f)}", f"initial_theta = {_num(f)}", "epsilon = 0.5",
        )),
        Invocation("instability", UNSTABLE_MODEL + _interval(1) + (
            f"t_end = {_num(6 * f)}", "dt = 0.001", f"initial_u = {_num(f)}",
        )),
        Invocation("quasistatic", (
            "rho = 1", "a = 1", "b = 1", "c = -2", "d = 1", "eta = 1",
            f"t_end = {_num(0.02 * f)}", "dt = 0.0001", f"initial_theta = {_num(f)}",
        )),
    )


_BUILDERS = {
    "time-domain": _time_domain,
    "frequency-domain": _frequency_domain,
    "wide-plate": _wide_plate,
    "cold-start": _cold_start,
}


def build(name: str, seed: int) -> tuple[Invocation, ...]:
    """The invocations of workload `name`, with inputs drawn from `seed`."""
    return _BUILDERS[name](scale_factor(seed))
