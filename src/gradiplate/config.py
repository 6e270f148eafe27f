"""Run configuration: plain-text key=value files, one key per line.

Format rules: `key = value` pairs, `#` starts a comment, blank lines are
ignored, keys may not repeat, and unknown keys are rejected.  The full key
set is documented in the README; each subcommand accepts the shared model
keys plus its own options.  All numeric constraints on the model constants
are enforced at parse time so command handlers never see invalid params.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import ConfigError, DegenerateCapacity
from .model import (
    Interval,
    ModelParams,
    Rectangle,
    Regime,
    SpectralDomain,
    enumerate_modes,
)

if TYPE_CHECKING:
    from .propagator import SpectralState

PARAM_KEYS = ("rho", "a", "b", "c", "d", "eta")
COMMON_KEYS = set(PARAM_KEYS) | {"regime"}
DOMAIN_KEYS = {"domain", "length", "length1", "length2", "mode_count"}
TIME_KEYS = {"t_end", "dt"}
INITIAL_KEYS = {"initial", "initial_u", "initial_v", "initial_theta"}

SUBCOMMAND_KEYS: dict[str, set[str]] = {
    "simulate": COMMON_KEYS | DOMAIN_KEYS | TIME_KEYS | INITIAL_KEYS,
    "resolvent-scan": COMMON_KEYS
    | DOMAIN_KEYS
    | {"omega_min", "omega_max", "omega_points", "omega_grid"},
    "nondiff": COMMON_KEYS | DOMAIN_KEYS | {"n_max", "branch", "gap_tolerance"},
    "spectrum": COMMON_KEYS
    | DOMAIN_KEYS
    | {"lambda_min", "lambda_max", "lambda_points"},
    "backward": COMMON_KEYS | DOMAIN_KEYS | TIME_KEYS | INITIAL_KEYS | {"epsilon"},
    "instability": COMMON_KEYS
    | DOMAIN_KEYS
    | TIME_KEYS
    | INITIAL_KEYS
    | {"omega_const", "t0", "growth_fit_start"},
    "quasistatic": COMMON_KEYS | {"length", "t_end", "dt", "initial_theta"},
}

PRESETS = ("zero", "first-mode-bend", "thermal-pulse")


def parse_config_text(text: str) -> dict[str, str]:
    """Raw key -> value mapping; syntax errors raise ConfigError."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def _as_float(raw: dict[str, str], key: str) -> float:
    try:
        return float(raw[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: not a number: {raw[key]!r}") from exc


def _as_int(raw: dict[str, str], key: str) -> int:
    try:
        return int(raw[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: not an integer: {raw[key]!r}") from exc


def _as_float_list(raw: dict[str, str], key: str) -> list[float]:
    try:
        return [float(tok) for tok in raw[key].split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"{key}: not a comma-separated number list: {raw[key]!r}") from exc


def _require(raw: dict[str, str], keys: Sequence[str], subcommand: str) -> None:
    missing = [k for k in keys if k not in raw]
    if missing:
        raise ConfigError(f"{subcommand}: missing required keys: {', '.join(missing)}")


@dataclass
class RunConfig:
    """Typed view of one run configuration (subcommand-specific fields may
    be None when the subcommand does not use them)."""

    subcommand: str
    raw: dict[str, str]
    params: ModelParams
    domain: SpectralDomain | None = None
    mode_count: int | None = None
    t_end: float | None = None
    dt: float | None = None
    initial_u: list[float] = field(default_factory=list)
    initial_v: list[float] = field(default_factory=list)
    initial_theta: list[float] = field(default_factory=list)
    omega_min: float | None = None
    omega_max: float | None = None
    omega_points: int | None = None
    omega_grid_kind: str = "log"
    n_max: int | None = None
    branch: int = +1
    gap_tolerance: float = 0.01
    lambda_min: float | None = None
    lambda_max: float | None = None
    lambda_points: int | None = None
    epsilon: float = 0.5
    omega_const: "float | str | None" = None
    t0: "float | str | None" = None
    growth_fit_start: float | None = None
    length: float = 1.0

    def initial_state(self) -> SpectralState:
        from .propagator import state_from_coefficients

        if self.domain is None or self.mode_count is None:
            raise ConfigError("initial state needs a domain and mode_count")
        return state_from_coefficients(
            self.domain,
            self.mode_count,
            u=self.initial_u,
            v=self.initial_v,
            theta=self.initial_theta,
        )


def preset_coefficients(
    names: str, lams: np.ndarray
) -> tuple[list[float], list[float], list[float]]:
    """Initial coefficient lists for a '+'-joined preset expression.

    zero: all coefficients zero.
    first-mode-bend: unit displacement in the lowest mode.
    thermal-pulse: smooth temperature bump theta_n = exp(1 - lam_n/lam_1),
    spectrally concentrated so sampled trajectories resolve its decay.
    """
    n = lams.size
    u = np.zeros(n)
    v = np.zeros(n)
    theta = np.zeros(n)
    for name in names.split("+"):
        name = name.strip()
        if name == "zero":
            continue
        elif name == "first-mode-bend":
            u[0] += 1.0
        elif name == "thermal-pulse":
            theta += np.exp(1.0 - lams / lams[0])
        else:
            raise ConfigError(
                f"unknown preset {name!r}; expected one of {', '.join(PRESETS)}"
            )
    return u.tolist(), v.tolist(), theta.tolist()


def _build_params(raw: dict[str, str], subcommand: str) -> ModelParams:
    _require(raw, PARAM_KEYS, subcommand)
    regime = None
    if "regime" in raw:
        try:
            regime = Regime(raw["regime"])
        except ValueError as exc:
            raise ConfigError(
                f"regime: expected stable|unstable|quasistatic, got {raw['regime']!r}"
            ) from exc
    try:
        return ModelParams(
            rho=_as_float(raw, "rho"),
            a=_as_float(raw, "a"),
            b=_as_float(raw, "b"),
            c=_as_float(raw, "c"),
            d=_as_float(raw, "d"),
            eta=_as_float(raw, "eta"),
            regime=regime,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_domain(raw: dict[str, str], subcommand: str) -> tuple[SpectralDomain, int]:
    _require(raw, ("domain", "mode_count"), subcommand)
    kind = raw["domain"]
    try:
        if kind == "interval":
            _require(raw, ("length",), subcommand)
            domain: SpectralDomain = Interval(_as_float(raw, "length"))
        elif kind == "rectangle":
            _require(raw, ("length1", "length2"), subcommand)
            domain = Rectangle(_as_float(raw, "length1"), _as_float(raw, "length2"))
        else:
            raise ConfigError(f"domain: expected interval|rectangle, got {kind!r}")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    mode_count = _as_int(raw, "mode_count")
    if mode_count < 1:
        raise ConfigError("mode_count must be >= 1")
    return domain, mode_count


def _build_initial(cfg: RunConfig, raw: dict[str, str]) -> None:
    has_preset = "initial" in raw
    has_lists = any(k in raw for k in ("initial_u", "initial_v", "initial_theta"))
    if has_preset and has_lists:
        raise ConfigError("give either 'initial' presets or coefficient lists, not both")
    if not has_preset and not has_lists:
        raise ConfigError("missing initial data: set 'initial' or coefficient lists")
    if has_preset:
        lams = np.array([m.lam for m in enumerate_modes(cfg.domain, cfg.mode_count)])
        cfg.initial_u, cfg.initial_v, cfg.initial_theta = preset_coefficients(
            raw["initial"], lams
        )
    else:
        cfg.initial_u = _as_float_list(raw, "initial_u") if "initial_u" in raw else []
        cfg.initial_v = _as_float_list(raw, "initial_v") if "initial_v" in raw else []
        cfg.initial_theta = (
            _as_float_list(raw, "initial_theta") if "initial_theta" in raw else []
        )
        too_long = max(len(cfg.initial_u), len(cfg.initial_v), len(cfg.initial_theta))
        if too_long > cfg.mode_count:
            raise ConfigError(
                f"initial coefficient list longer than mode_count ({too_long} > {cfg.mode_count})"
            )


def _build_time(cfg: RunConfig, raw: dict[str, str], subcommand: str) -> None:
    _require(raw, ("t_end", "dt"), subcommand)
    cfg.t_end = _as_float(raw, "t_end")
    cfg.dt = _as_float(raw, "dt")
    if not (cfg.t_end > 0 and cfg.dt > 0 and cfg.dt <= cfg.t_end):
        raise ConfigError("need 0 < dt <= t_end")


def build_config(raw: dict[str, str], subcommand: str) -> RunConfig:
    """Validate the raw mapping against one subcommand's schema."""
    if subcommand not in SUBCOMMAND_KEYS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    allowed = SUBCOMMAND_KEYS[subcommand]
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ConfigError(f"{subcommand}: unknown keys: {', '.join(unknown)}")

    params = _build_params(raw, subcommand)
    cfg = RunConfig(subcommand=subcommand, raw=dict(raw), params=params)

    if subcommand == "quasistatic":
        if not params.c < 0:
            raise ConfigError("quasistatic requires c < 0")
        if "length" in raw:
            cfg.length = _as_float(raw, "length")
            if not cfg.length > 0:
                raise ConfigError("length must be > 0")
        _build_time(cfg, raw, subcommand)
        # the decay report wants 10 samples of dt * (0, 1, ..., round(t_end / dt))
        if round(cfg.t_end / cfg.dt) < 9:
            raise ConfigError("quasistatic needs at least 10 time samples (round(t_end / dt) >= 9)")
        _require(raw, ("initial_theta",), subcommand)
        cfg.initial_theta = _as_float_list(raw, "initial_theta")
        if not cfg.initial_theta:
            raise ConfigError("initial_theta must contain at least one coefficient")
        from .quasistatic import effective_capacity

        # refuse degenerate capacity at parse time
        try:
            effective_capacity(params)
        except DegenerateCapacity as exc:
            raise ConfigError(f"DegenerateCapacity: {exc}") from exc
        return cfg

    cfg.domain, cfg.mode_count = _build_domain(raw, subcommand)

    if subcommand in ("simulate", "backward", "instability"):
        _build_time(cfg, raw, subcommand)
        _build_initial(cfg, raw)

    if subcommand == "resolvent-scan":
        if not params.c > 0:
            raise ConfigError("resolvent-scan requires the stable regime (c > 0)")
        _require(raw, ("omega_min", "omega_max", "omega_points"), subcommand)
        cfg.omega_min = _as_float(raw, "omega_min")
        cfg.omega_max = _as_float(raw, "omega_max")
        cfg.omega_points = _as_int(raw, "omega_points")
        if not (0 < cfg.omega_min < cfg.omega_max):
            raise ConfigError("need 0 < omega_min < omega_max")
        if cfg.omega_points < 1:
            raise ConfigError("omega_points must be >= 1")
        cfg.omega_grid_kind = raw.get("omega_grid", "log")
        if cfg.omega_grid_kind not in ("log", "linear", "resonant"):
            raise ConfigError("omega_grid must be log|linear|resonant")
    elif subcommand == "nondiff":
        if not params.c > 0:
            raise ConfigError("nondiff requires the stable regime (c > 0)")
        if params.eta == 0:
            raise ConfigError("nondiff requires eta != 0")
        # the resolvent limit d^2/eta^4 is nonzero only for d > 0
        if not params.d > 0:
            raise ConfigError("nondiff requires d > 0")
        _require(raw, ("n_max",), subcommand)
        cfg.n_max = _as_int(raw, "n_max")
        if cfg.n_max < 10:
            raise ConfigError("n_max must be >= 10")
        if "branch" in raw:
            cfg.branch = _as_int(raw, "branch")
            if cfg.branch not in (1, -1):
                raise ConfigError("branch must be 1 or -1")
        if "gap_tolerance" in raw:
            cfg.gap_tolerance = _as_float(raw, "gap_tolerance")
    elif subcommand == "spectrum":
        _require(raw, ("lambda_max", "lambda_points"), subcommand)
        cfg.lambda_min = _as_float(raw, "lambda_min") if "lambda_min" in raw else 1.0
        cfg.lambda_max = _as_float(raw, "lambda_max")
        cfg.lambda_points = _as_int(raw, "lambda_points")
        if not (0 < cfg.lambda_min < cfg.lambda_max):
            raise ConfigError("need 0 < lambda_min < lambda_max")
        if cfg.lambda_points < 2:
            raise ConfigError("lambda_points must be >= 2")
    elif subcommand == "backward":
        # the identities use central differences, which need an interior
        # sample of the grid dt * (0, 1, ..., round(t_end / dt))
        if round(cfg.t_end / cfg.dt) < 2:
            raise ConfigError("backward needs at least 3 time samples (round(t_end / dt) >= 2)")
        if "epsilon" in raw:
            cfg.epsilon = _as_float(raw, "epsilon")
            if not 0 < cfg.epsilon < 1:
                raise ConfigError("epsilon must be in (0, 1)")
    elif subcommand == "instability":
        if not params.c < 0:
            raise ConfigError("instability requires c < 0")
        cfg.omega_const = raw.get("omega_const", "auto")
        if cfg.omega_const != "auto":
            cfg.omega_const = _as_float(raw, "omega_const")
            if cfg.omega_const < 0:
                raise ConfigError("omega_const must be nonnegative")
        cfg.t0 = raw.get("t0", "auto")
        if cfg.t0 != "auto":
            cfg.t0 = _as_float(raw, "t0")
            if cfg.t0 < 0:
                raise ConfigError("t0 must be nonnegative")
        if "growth_fit_start" in raw:
            cfg.growth_fit_start = _as_float(raw, "growth_fit_start")
    return cfg


def load_config(path: str, subcommand: str, overrides: Sequence[str] = ()) -> RunConfig:
    """Read, override (--params key=value), and validate a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        raw[key] = value
    return build_config(raw, subcommand)
