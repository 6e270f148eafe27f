"""The spectral abscissa, and the `spectrum` subcommand: the mode roots
over a lambda grid (see `spectrum`), the abscissa of the run's modes, and
the vertical-strip limit -eta^2/(2 rho d) of the complex pair."""

from __future__ import annotations

import numpy as np

from .config import RunConfig, as_float, as_int, build_domain, require
from .errors import ConfigError
from .manifest import Check, RunOutput
from .model import ModelParams
from .spectrum import THREE_REAL, mode_spectra


def row_max(values: np.ndarray) -> np.ndarray:
    """Max over the last axis, taking the first maximal entry as Python's
    max() does, so a -0.0 tied with 0.0 keeps its sign."""
    first = np.argmax(values, axis=-1)[..., None]
    return np.take_along_axis(values, first, axis=-1)[..., 0]


def spectral_abscissa(params: ModelParams, lams: np.ndarray) -> float:
    """Max real part of any eigenvalue of the modes `lams`."""
    roots, _, _ = mode_spectra(params, lams)
    return float(row_max(row_max(roots.real)))


def configure(cfg: RunConfig, raw: dict[str, str]) -> None:
    build_domain(cfg, raw)
    require(raw, ("lambda_max", "lambda_points"), cfg.subcommand)
    cfg.lambda_min = as_float(raw, "lambda_min") if "lambda_min" in raw else 1.0
    cfg.lambda_max = as_float(raw, "lambda_max")
    cfg.lambda_points = as_int(raw, "lambda_points")
    if not (0 < cfg.lambda_min < cfg.lambda_max):
        raise ConfigError("need 0 < lambda_min < lambda_max")
    if cfg.lambda_points < 2:
        raise ConfigError("lambda_points must be >= 2")


def run(cfg: RunConfig) -> RunOutput:
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
    if cfg.params.c > 0 and cfg.params.eta != 0:
        value = max(scan_abscissa, modal_abscissa)
        checks.append(Check("abscissa_negative", value < 0.0, value, 0.0))

    # roots.view(float) interleaves the columns root1_re, root1_im, ...
    root_names = [f"root{k}_{part}" for k in (1, 2, 3) for part in ("re", "im")]
    columns = {
        "lambda": lams,
        **dict(zip(root_names, roots.view(float).T)),
        "max_real": max_real,
        "residual_max": residual_max,
        "classification": np.where(classification == THREE_REAL, "three_real", "one_real_+_complex_pair"),
    }
    results = {
        "abscissa_lambda_scan": scan_abscissa,
        "abscissa_modes": modal_abscissa,
        "max_root_residual": max_residual,
    }
    if cfg.params.c > 0 and cfg.params.d > 0:
        results["strip_limit"] = -cfg.params.eta**2 / (2 * cfg.params.rho * cfg.params.d)
    return RunOutput(columns=columns, checks=checks, results=results)
