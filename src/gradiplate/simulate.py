"""The `simulate` subcommand: evolve the truncated system and audit the
energy identity E(t) + int_0^t D ds = E(0) along the trajectory (see
`propagator`)."""

from __future__ import annotations

import numpy as np

from .config import RunConfig, build_evolution
from .manifest import Check, RunOutput
from .model import Direction
from .propagator import Evolution, energy_balance_report, evolution_sizes

configure = build_evolution


def run(cfg: RunConfig) -> RunOutput:
    evolution = Evolution(cfg.params, cfg.lams, cfg.x0, cfg.times, Direction.FORWARD)
    history = evolution.history()
    report = energy_balance_report(history, Direction.FORWARD)

    e, d = history.total, history.dissipation
    norm_max = float(np.max(history.energy_norm))
    scale = report.error_scale(norm_max)
    residual_scaled = report.max_abs_error / scale
    checks = [
        Check("energy_identity", residual_scaled <= 1e-8, residual_scaled, 1e-8),
        Check("dissipation_nonnegative", bool(np.min(d) >= 0.0), float(np.min(d)), 0.0),
    ]
    if cfg.params.c > 0:
        max_increase = float(np.max(np.diff(e), initial=-np.inf))
        slack = 1e-12 * scale
        checks.append(Check("energy_monotone", max_increase <= slack, max_increase, slack))

    columns = {
        "t": history.t, "E": e, "kinetic": history.kinetic, "bending": history.bending,
        "thermal": history.thermal, "D": d, "energy_balance_residual": report.residuals,
    }
    return RunOutput(
        columns=columns,
        checks=checks,
        results={
            "e0": report.e0,
            "energy_norm_max": norm_max,
            "max_residual_vs_e0": report.max_abs_residual,
            "max_residual_vs_scale": residual_scaled,
        },
        sizes=evolution_sizes(cfg.lams, cfg.x0, evolution.t),
    )
