"""Run configuration: plain-text key=value files, one key per line.

Format rules: `key = value` pairs, `#` starts a comment, blank lines are
ignored, keys may not repeat, and unknown keys are rejected.  The full key
set is documented in the README; each subcommand accepts the shared model
keys plus its own options.  All numeric constraints on the model constants
are enforced at parse time so command handlers never see invalid params.
"""

from __future__ import annotations

import math
import sys
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
    from .quasistatic import QuasiParams

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
        value = float(raw[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: not a number: {raw[key]!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{key}: not a finite number: {raw[key]!r}")
    return value


def _as_int(raw: dict[str, str], key: str) -> int:
    try:
        return int(raw[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: not an integer: {raw[key]!r}") from exc


def _as_float_list(raw: dict[str, str], key: str) -> list[float]:
    tokens = raw[key].split(",")
    if len(tokens) > 1 and not tokens[-1].strip():
        tokens.pop()  # one trailing comma
    # an empty entry would shift every later coefficient to a lower mode
    if not all(tok.strip() for tok in tokens):
        raise ConfigError(f"{key}: empty entry in the number list {raw[key]!r}")
    try:
        values = [float(tok) for tok in tokens]
    except ValueError as exc:
        raise ConfigError(f"{key}: not a comma-separated number list: {raw[key]!r}") from exc
    if not all(math.isfinite(value) for value in values):
        raise ConfigError(f"{key}: not a list of finite numbers: {raw[key]!r}")
    return values


def _require(raw: dict[str, str], keys: Sequence[str], subcommand: str) -> None:
    missing = [k for k in keys if k not in raw]
    if missing:
        raise ConfigError(f"{subcommand}: missing required keys: {', '.join(missing)}")


class RunConfig:
    """Typed view of one run configuration (subcommand-specific fields may
    be None when the subcommand does not use them).

    `lams` holds the eigenvalues of the first mode_count modes, ascending:
    the run's one enumeration of its modes.  `x0` holds the initial data
    x0[mode, (u, v, theta)] over them, and `qparams` the reduced constants
    of `quasistatic`.
    """

    __slots__ = (
        "subcommand", "raw", "params", "domain", "lams", "x0", "t_end", "dt",
        "initial_theta", "omega_min", "omega_max",
        "omega_points", "omega_grid_kind", "n_max", "branch", "gap_tolerance",
        "lambda_min", "lambda_max", "lambda_points", "epsilon", "omega_const",
        "t0", "growth_fit_start", "qparams",
    )

    def __init__(
        self,
        subcommand: str,
        raw: dict[str, str],
        params: ModelParams,
        domain: SpectralDomain | None = None,
        lams: np.ndarray | None = None,
        x0: np.ndarray | None = None,
        t_end: float | None = None,
        dt: float | None = None,
        initial_theta: list[float] | None = None,
        omega_min: float | None = None,
        omega_max: float | None = None,
        omega_points: int | None = None,
        omega_grid_kind: str = "log",
        n_max: int | None = None,
        branch: int = +1,
        gap_tolerance: float = 0.01,
        lambda_min: float | None = None,
        lambda_max: float | None = None,
        lambda_points: int | None = None,
        epsilon: float = 0.5,
        omega_const: float | str | None = None,
        t0: float | str | None = None,
        growth_fit_start: float | None = None,
        qparams: QuasiParams | None = None,
    ):
        self.subcommand, self.raw, self.params = subcommand, raw, params
        self.domain, self.lams, self.x0, self.t_end, self.dt = domain, lams, x0, t_end, dt
        self.initial_theta = [] if initial_theta is None else initial_theta
        self.omega_min, self.omega_max, self.omega_points = omega_min, omega_max, omega_points
        self.omega_grid_kind = omega_grid_kind
        self.n_max, self.branch, self.gap_tolerance = n_max, branch, gap_tolerance
        self.lambda_min, self.lambda_max, self.lambda_points = lambda_min, lambda_max, lambda_points
        self.epsilon, self.omega_const, self.t0 = epsilon, omega_const, t0
        self.growth_fit_start, self.qparams = growth_fit_start, qparams


def preset_coefficients(names: str, lams: np.ndarray) -> np.ndarray:
    """Initial data x0[mode, (u, v, theta)] over the modes `lams` for a
    '+'-joined preset expression.

    zero: all coefficients zero.
    first-mode-bend: unit displacement in the lowest mode.
    thermal-pulse: smooth temperature bump theta_n = exp(1 - lam_n/lam_1),
    spectrally concentrated so sampled trajectories resolve its decay.
    """
    x0 = np.zeros((lams.size, 3))
    for name in names.split("+"):
        name = name.strip()
        if name == "zero":
            continue
        elif name == "first-mode-bend":
            x0[0, 0] += 1.0
        elif name == "thermal-pulse":
            x0[:, 2] += np.exp(1.0 - lams / lams[0])
        else:
            raise ConfigError(
                f"unknown preset {name!r}; expected one of {', '.join(PRESETS)}"
            )
    return x0


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


def _build_domain(raw: dict[str, str], subcommand: str) -> tuple[SpectralDomain, np.ndarray]:
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
    try:
        lams = enumerate_modes(domain, mode_count)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # the mode blocks square lam: lam_1^2 and lam_N^2 must be normal floats
    if not all(sys.float_info.min <= lam * lam < math.inf for lam in lams[[0, -1]].tolist()):
        keys = "length" if kind == "interval" else "length1, length2"
        raise ConfigError(f"{keys}, mode_count: lam_1^2 or lam_N^2 of {domain!r} leaves the normal float range")
    return domain, lams


def _build_initial(cfg: RunConfig, raw: dict[str, str]) -> None:
    keys = ("initial_u", "initial_v", "initial_theta")
    has_preset = "initial" in raw
    has_lists = any(k in raw for k in keys)
    if has_preset and has_lists:
        raise ConfigError("give either 'initial' presets or coefficient lists, not both")
    if not has_preset and not has_lists:
        raise ConfigError("missing initial data: set 'initial' or coefficient lists")
    if has_preset:
        cfg.x0 = preset_coefficients(raw["initial"], cfg.lams)
        return
    # every list parses before any length is judged
    columns = [_as_float_list(raw, key) if key in raw else [] for key in keys]
    too_long = max(map(len, columns))
    if too_long > cfg.lams.size:
        raise ConfigError(
            f"initial coefficient list longer than mode_count ({too_long} > {cfg.lams.size})"
        )
    cfg.x0 = np.zeros((cfg.lams.size, 3))
    for i, column in enumerate(columns):
        cfg.x0[: len(column), i] = column


def _build_time(cfg: RunConfig, raw: dict[str, str], subcommand: str) -> None:
    _require(raw, ("t_end", "dt"), subcommand)
    cfg.t_end = _as_float(raw, "t_end")
    cfg.dt = _as_float(raw, "dt")
    if not (cfg.t_end > 0 and cfg.dt > 0 and cfg.dt <= cfg.t_end):
        raise ConfigError("need 0 < dt <= t_end")
    # the grid of round(t_end / dt) + 1 samples must be an array numpy can index
    steps = cfg.t_end / cfg.dt
    if not steps < sys.maxsize:
        raise ConfigError(f"t_end / dt = {steps!r} samples: more than an array can hold")


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
        length = 1.0
        if "length" in raw:
            length = _as_float(raw, "length")
            if not length > 0:
                raise ConfigError("length must be > 0")
        _build_time(cfg, raw, subcommand)
        # the decay report wants 10 samples of dt * (0, 1, ..., round(t_end / dt))
        if round(cfg.t_end / cfg.dt) < 9:
            raise ConfigError("quasistatic needs at least 10 time samples (round(t_end / dt) >= 9)")
        _require(raw, ("initial_theta",), subcommand)
        cfg.initial_theta = _as_float_list(raw, "initial_theta")
        if not cfg.initial_theta:
            raise ConfigError("initial_theta must contain at least one coefficient")
        squares, ratio = sum(x * x for x in cfg.initial_theta), params.eta / params.c
        if not (squares < math.inf and ratio * ratio * squares < math.inf):
            raise ConfigError("initial_theta: sum theta_n^2 or (eta/c)^2 sum theta_n^2 overflows")
        from .quasistatic import QuasiParams

        # refuse degenerate capacity at parse time
        try:
            cfg.qparams = qparams = QuasiParams.from_params(params, length)
        except DegenerateCapacity as exc:
            raise ConfigError(f"DegenerateCapacity: {exc}") from exc
        # the run squares lam_n = (n pi / length)^2, which grows with n:
        # lam_1^2 and lam_N^2 must be normal floats, and the fastest rate finite
        count = len(cfg.initial_theta)
        try:
            squares = [qparams.lam(n) ** 2 for n in (1, count)]
            fastest = qparams.rate(count)
        except OverflowError:
            squares, fastest = [], math.inf
        if not (fastest < math.inf and all(sys.float_info.min <= x < math.inf for x in squares)):
            raise ConfigError(
                f"length = {length!r}: for the initial_theta modes n = 1..{count}, "
                "lam_n^2 = (n pi / length)^4 or the decay rate leaves the float range"
            )
        return cfg

    cfg.domain, cfg.lams = _build_domain(raw, subcommand)

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
        from .resolvent import nondiff_target

        try:
            nondiff_target(params)
        except ValueError as exc:
            raise ConfigError(f"nondiff: {exc}") from exc
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
            if not cfg.gap_tolerance > 0:
                raise ConfigError("gap_tolerance must be > 0")
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
            # the fit needs two samples of dt * (0, 1, ..., n) at or after it
            n = round(cfg.t_end / cfg.dt)
            if not cfg.dt * (n - 1) >= cfg.growth_fit_start:
                raise ConfigError(
                    f"growth_fit_start = {cfg.growth_fit_start!r} leaves fewer than 2 time "
                    f"samples to fit (the last two are {cfg.dt * (n - 1)!r} and {cfg.dt * n!r})"
                )
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
