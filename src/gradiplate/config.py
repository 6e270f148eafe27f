"""Run configuration: plain-text key=value files, one key per line.

Format rules: `key = value` pairs, `#` starts a comment, blank lines are
ignored, keys may not repeat, and unknown keys are rejected.  The full key
set is documented in the README; each subcommand accepts the shared model
keys plus its own options.  All numeric constraints on the model constants
are enforced at parse time so command handlers never see invalid params.

This module holds the rules every subcommand shares: the syntax, the key
sets, the model constants, the run's modes (`build_modes` enumerates
them, under one range rule), the time grid and the initial data of the
subcommands that take them.  Each subcommand's own rules are the
`configure` function of its module (`MODULES`), next to its handler.
"""

from __future__ import annotations

import math
import sys
from importlib import import_module
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .model import Interval, ModelParams, Rectangle, enumerate_modes

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
# subcommand -> the module of its handler `run(cfg)` and its config rules
# `configure(cfg, raw)`
MODULES = {
    "simulate": "simulate",
    "resolvent-scan": "resolvent",
    "nondiff": "nondiff",
    "spectrum": "abscissa",
    "backward": "backward",
    "instability": "instability",
    "quasistatic": "quasistatic",
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


def as_float(raw: dict[str, str], key: str) -> float:
    try:
        value = float(raw[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: not a number: {raw[key]!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{key}: not a finite number: {raw[key]!r}")
    return value


def as_int(raw: dict[str, str], key: str) -> int:
    try:
        return int(raw[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: not an integer: {raw[key]!r}") from exc


def as_float_list(raw: dict[str, str], key: str) -> list[float]:
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


def require(raw: dict[str, str], keys: Sequence[str], subcommand: str) -> None:
    missing = [k for k in keys if k not in raw]
    if missing:
        raise ConfigError(f"{subcommand}: missing required keys: {', '.join(missing)}")


class RunConfig:
    """Typed view of one run configuration.

    `params` holds the model constants.  `lams` holds the eigenvalues of
    the run's modes, ascending (the first mode_count, n_max or
    len(initial_theta) of them): the run's one enumeration of its modes,
    and `domain` their domain; `x0` holds the initial data
    x0[mode, (u, v, theta)] over them, and `times` the time grid
    dt * (0, 1, ..., round(t_end / dt)).  The subcommand's `configure` sets
    these, where it takes them, and its own fields (the omega grid,
    `n_max`, ...).
    """

    def __init__(self, subcommand: str, raw: dict[str, str], params: ModelParams):
        self.subcommand, self.raw, self.params = subcommand, raw, params
        self.domain = self.lams = self.x0 = self.times = None


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
    require(raw, PARAM_KEYS, subcommand)
    # `regime` only restates the sign of c, which selects the regime
    regime = raw.get("regime")
    if regime not in (None, "stable", "unstable", "quasistatic"):
        raise ConfigError(f"regime: expected stable|unstable|quasistatic, got {regime!r}")
    try:
        params = ModelParams(
            rho=as_float(raw, "rho"),
            a=as_float(raw, "a"),
            b=as_float(raw, "b"),
            c=as_float(raw, "c"),
            d=as_float(raw, "d"),
            eta=as_float(raw, "eta"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if regime == "stable" and params.c < 0:
        raise ConfigError("regime Stable requires c > 0")
    if regime in ("unstable", "quasistatic") and params.c > 0:
        raise ConfigError(f"regime {regime} requires c < 0")
    return params


def read_domain(cfg: RunConfig, raw: dict[str, str]) -> int:
    """`domain`, from the domain keys; returns their mode_count."""
    subcommand = cfg.subcommand
    require(raw, ("domain", "mode_count"), subcommand)
    kind = raw["domain"]
    try:
        if kind == "interval":
            require(raw, ("length",), subcommand)
            domain = Interval(as_float(raw, "length"))
        elif kind == "rectangle":
            require(raw, ("length1", "length2"), subcommand)
            domain = Rectangle(as_float(raw, "length1"), as_float(raw, "length2"))
        else:
            raise ConfigError(f"domain: expected interval|rectangle, got {kind!r}")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    mode_count = as_int(raw, "mode_count")
    if mode_count < 1:
        raise ConfigError("mode_count must be >= 1")
    cfg.domain = domain
    return mode_count


def build_modes(cfg: RunConfig, count: int, count_key: str) -> None:
    """`lams`, the `count` smallest eigenvalues of `domain`, whose number
    the key `count_key` sets."""
    domain = cfg.domain
    try:
        lams = enumerate_modes(domain, count)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # the mode blocks square lam: lam_1^2 and lam_N^2 must be normal floats
    if not all(sys.float_info.min <= lam * lam < math.inf for lam in lams[[0, -1]].tolist()):
        keys = "length" if isinstance(domain, Interval) else "length1, length2"
        raise ConfigError(f"{keys}, {count_key}: lam_1^2 or lam_N^2 of {domain!r} leaves the normal float range")
    cfg.lams = lams


def build_domain(cfg: RunConfig, raw: dict[str, str]) -> None:
    """`domain` and its `lams`, from the domain keys."""
    build_modes(cfg, read_domain(cfg, raw), "mode_count")


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
    columns = [as_float_list(raw, key) if key in raw else [] for key in keys]
    too_long = max(map(len, columns))
    if too_long > cfg.lams.size:
        raise ConfigError(
            f"initial coefficient list longer than mode_count ({too_long} > {cfg.lams.size})"
        )
    cfg.x0 = np.zeros((cfg.lams.size, 3))
    for i, column in enumerate(columns):
        cfg.x0[: len(column), i] = column


def build_time(cfg: RunConfig, raw: dict[str, str]) -> None:
    """`dt` and the grid `times` of `t_end` and `dt`, which an array must
    hold."""
    require(raw, ("t_end", "dt"), cfg.subcommand)
    t_end = as_float(raw, "t_end")
    cfg.dt = as_float(raw, "dt")
    if not (t_end > 0 and cfg.dt > 0 and cfg.dt <= t_end):
        raise ConfigError("need 0 < dt <= t_end")
    # the grid of round(t_end / dt) + 1 samples must be an array numpy can index
    steps = t_end / cfg.dt
    if not steps < sys.maxsize:
        raise ConfigError(f"t_end / dt = {steps!r} samples: more than an array can hold")
    cfg.times = cfg.dt * np.arange(round(steps) + 1)


def build_evolution(cfg: RunConfig, raw: dict[str, str]) -> None:
    """The rules `simulate`, `backward` and `instability` share: the
    domain, the time grid and the initial data, in that order."""
    build_domain(cfg, raw)
    build_time(cfg, raw)
    _build_initial(cfg, raw)


def command(subcommand: str):
    """The module of `subcommand` (see `MODULES`), imported on first use."""
    return import_module(f"{__package__}.{MODULES[subcommand]}")


def build_config(raw: dict[str, str], subcommand: str) -> RunConfig:
    """Validate the raw mapping against one subcommand's schema."""
    if subcommand not in SUBCOMMAND_KEYS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    allowed = SUBCOMMAND_KEYS[subcommand]
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ConfigError(f"{subcommand}: unknown keys: {', '.join(unknown)}")

    cfg = RunConfig(subcommand, dict(raw), _build_params(raw, subcommand))
    command(subcommand).configure(cfg, raw)
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
