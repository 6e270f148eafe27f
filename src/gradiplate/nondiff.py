"""The `nondiff` subcommand: the high-frequency sequence that keeps the
resolvent from vanishing.

Driving mode n with the right-hand side (0, phi_n, 0) at the resonant
frequency omega_n = sqrt(c/rho) lam_n produces the explicit solution

    u = p phi_n,  v = i omega_n p phi_n,  theta = q phi_n,
    q = 1/(eta lam_n),
    p = (i a omega_n + d lam_n^2 + b lam_n) / (i eta^2 lam_n^3 sqrt(c/rho)),

whose velocity component satisfies |v|^2 -> d^2/eta^4 as n grows.  A
nonzero limit along a frequency sequence rules out resolvent decay at
infinity, hence any smoothing of the solution semigroup, even though the
system is exponentially stable.  Setting d = 0 restores decay ~ 1/omega,
which the scan exposes as a contrast diagnostic.

The parser enumerates the n_max modes of the sequence (`RunConfig.lams`);
`mode_count` is a required, validated key that the sequence does not read.
"""

from __future__ import annotations

import math

import numpy as np

from .config import RunConfig, as_float, as_int, build_modes, read_domain, require
from .errors import ConfigError, EigenvalueOutOfRange
from .manifest import Check, RunOutput
from .model import Interval, ModelParams, SpectralDomain


class NondiffSequence:
    """The resonant-drive sequence n = 1..n_max as arrays, one entry per term.

    `norm_v_sq` is the plain L2 value |v|^2 = omega^2 |p|^2, whose limit
    `target` = d^2/eta^4 (the class constant `matching_norm` records that),
    and `gap` is |norm_v_sq - target| / target; `norm_v_sq_weighted` carries
    the energy weight rho, and `norm_u_sq` is the full energy norm of the
    solution.  The residuals measure back-substitution into the 2x2
    amplitude system at exact resonance, row by row.
    """

    __slots__ = (
        "n", "lam", "omega", "p", "q", "norm_u_sq", "norm_v_sq", "norm_v_sq_weighted",
        "gap", "alg1_residual", "alg2_residual", "target", "gap_at_end",
    )
    matching_norm = "l2"

    def __init__(
        self, n: np.ndarray, lam: np.ndarray, omega: np.ndarray, p: np.ndarray,
        q: np.ndarray, norm_u_sq: np.ndarray, norm_v_sq: np.ndarray,
        norm_v_sq_weighted: np.ndarray, gap: np.ndarray, alg1_residual: np.ndarray,
        alg2_residual: np.ndarray, target: float, gap_at_end: float,
    ):
        self.n, self.lam, self.omega, self.p, self.q = n, lam, omega, p, q
        self.norm_u_sq, self.norm_v_sq = norm_u_sq, norm_v_sq
        self.norm_v_sq_weighted, self.gap = norm_v_sq_weighted, gap
        self.alg1_residual, self.alg2_residual = alg1_residual, alg2_residual
        self.target, self.gap_at_end = target, gap_at_end


def nondiff_target(params: ModelParams) -> float:
    """The limit d^2/eta^4 of |v_n|^2; ValueError unless it is a finite
    positive float."""
    try:
        target = params.d**2 / params.eta**4
    except (OverflowError, ZeroDivisionError):
        target = math.inf
    if not 0 < target < math.inf:
        raise ValueError(
            f"the resonant-drive limit needs d^2/eta^4 to be a finite positive float; "
            f"with d = {params.d!r} and eta = {params.eta!r} it is not"
        )
    return target


@np.errstate(all="ignore")  # the terms are judged at the end
def nondiff_sequence(params: ModelParams, lams: np.ndarray, branch: int = +1) -> NondiffSequence:
    """Closed-form solution of the resonant-drive system for the modes
    n = 1, 2, ... of eigenvalues `lams`, in one array pass.

    branch selects the sign of omega_n = +-sqrt(c/rho) lam_n; the negative
    branch conjugates p and leaves |v|^2 unchanged.

    The amplitude pair (p, q) is normalized so the mass-scaled velocity row
    (the one multiplied through by rho) carries a unit load: solving the
    block system with the abstract right-hand side (0, 1/rho, 0)
    reproduces exactly (p, i omega p, q).  For rho = 1 the two conventions
    coincide.

    Eigenvalues whose terms leave the float range (lam^2, lam^3 and their
    products overflow, or 1/(eta lam) does) raise EigenvalueOutOfRange, a
    ValueError, which the CLI reports as a configuration error.
    """
    if not params.c > 0:
        raise ValueError("resonant-drive sequence requires c > 0")
    if params.eta == 0:
        raise ValueError("resonant-drive sequence requires eta != 0")
    if branch not in (+1, -1):
        raise ValueError("branch must be +1 or -1")
    lam = np.asarray(lams, dtype=float)
    if lam.size < 1:
        raise ValueError("the sequence needs at least one mode")
    target = nondiff_target(params)
    omega = branch * params.block_rates(lam)[0]
    q = 1.0 / (params.eta * lam)
    # p = (i a omega + heat) / (i x) in real arithmetic, rounded as the
    # complex division by a purely imaginary number rounds it
    heat = params.heat_weight(lam)
    x = params.eta**2 * lam**3 * math.sqrt(params.c / params.rho)
    p = branch * (params.a * omega / x) - 1j * (branch * (heat / x))

    # back-substitution.  Row 1, p (c lam^2 - rho omega^2) + q eta lam = 1,
    # reads q eta lam = 1 at exact resonance: the rounding of omega_n would
    # leave |p| c lam^2 eps in it, however accurate p is.  p is checked by
    # row 2, -i eta omega lam p + q (i a omega + heat) = 0, relative to the
    # size of its terms.
    alg2 = -1j * params.eta * omega * lam * p + q * (1j * params.a * omega + heat)
    alg2_scale = np.abs(params.eta * omega * lam * p) + np.abs(q) * (
        np.abs(params.a * omega) + heat
    )
    abs_p = np.hypot(p.real, p.imag)
    norm_p_sq = abs_p**2
    # where |p|^2 underflows, |v|^2 may still be a normal float
    norm_v_sq = np.where(
        norm_p_sq < np.finfo(float).tiny, (omega * abs_p) ** 2, omega**2 * norm_p_sq
    )
    gap = np.abs(norm_v_sq - target) / target
    seq = NondiffSequence(
        n=np.arange(1, lam.size + 1),
        lam=lam,
        omega=omega,
        p=p,
        q=q,
        norm_u_sq=params.c * lam**2 * norm_p_sq + params.rho * norm_v_sq + params.a * q**2,
        norm_v_sq=norm_v_sq,
        norm_v_sq_weighted=params.rho * norm_v_sq,
        gap=gap,
        alg1_residual=np.abs(q * params.eta * lam - 1.0),
        alg2_residual=np.abs(alg2) / np.maximum(alg2_scale, 1e-300),
        target=target,
        gap_at_end=float(gap[-1]),
    )
    # an overflow reaches a column as inf or nan, except through x and
    # alg2_scale, which only divide: p or a residual would read 0 instead
    terms = (x, alg2_scale, omega, q, p, seq.norm_u_sq, seq.norm_v_sq_weighted,
             gap, seq.alg1_residual, seq.alg2_residual)
    if not all(np.all(np.isfinite(term)) for term in terms):
        raise EigenvalueOutOfRange(
            f"the terms of the first {lam.size} modes, up to lam = {float(lam[-1])!r} (lam^2, "
            "lam^3 and their products) leave the float range"
        )
    return seq


def closed_form_gap(params: ModelParams, lam):
    """The gap |v|^2 / target - 1 at eigenvalue `lam`, from the expansion
    |v|^2 = (d + b/lam)^2/eta^4 + a^2 c/(rho eta^4 lam^2):
    2b/(d lam) + (b^2 + a^2 c/rho)/(d^2 lam^2).  It never increases with
    lam, in floating point too, since every operation in it rounds
    monotonically."""
    dl = params.d * lam
    return 2.0 * params.b / dl + (params.b**2 + params.a**2 * params.c / params.rho) / (dl * dl)


# Most lattice rows gap_reach counts on a rectangle.
REACH_ROWS = 1 << 20


def gap_reach(
    params: ModelParams, domain: SpectralDomain, tolerance: float
) -> tuple[float, int | None]:
    """Where the closed-form gap falls to `tolerance` > 0: the eigenvalue
    lam* at which it equals `tolerance`, and the smallest n with
    closed_form_gap(lam_n) <= tolerance.  n is counted, not enumerated: in
    closed form on an interval, by a lattice count over the rows of a
    rectangle, and it is None past REACH_ROWS rows (2^52 modes on an interval).
    """
    big = params.b**2 + params.a**2 * params.c / params.rho
    # the positive root in 1/lam of gap = tolerance, in a form without cancellation
    lam_star = (params.b + math.sqrt(params.b**2 + big * tolerance)) / params.d / tolerance

    def short(lam):
        return closed_form_gap(params, lam) > tolerance

    # the mode counts from sqrt(lam*) are off by less than one: one step
    # against the gap itself makes each exact
    if isinstance(domain, Interval):
        count = domain.length * math.sqrt(lam_star) / math.pi
        if not count < 2.0**52:
            return lam_star, None
        n = int(count) + 1
        if short(domain.eigenvalue(n)):
            return lam_star, n + 1
        return lam_star, n - 1 if n > 1 and not short(domain.eigenvalue(n - 1)) else n
    l1, l2 = domain.length1, domain.length2
    rows = l1 * math.sqrt(lam_star) / math.pi
    if not rows < REACH_ROWS:
        return lam_star, None
    j = np.arange(1, int(rows) + 2)
    k = np.floor(l2 * np.sqrt(np.maximum(lam_star / math.pi**2 - j**2 / l1**2, 0.0))).astype(int)
    # lambda_jk as enumerate_modes evaluates it
    lam_jk = [math.pi**2 * (j**2 / l1**2 + kk**2 / l2**2) for kk in (k, k + 1)]
    k = np.where((k >= 1) & ~short(lam_jk[0]), k - 1, k + short(lam_jk[1]))
    return lam_star, int(k.sum()) + 1


def configure(cfg: RunConfig, raw: dict[str, str]) -> None:
    read_domain(cfg, raw)
    params = cfg.params
    if not params.c > 0:
        raise ConfigError("nondiff requires the stable regime (c > 0)")
    if params.eta == 0:
        raise ConfigError("nondiff requires eta != 0")
    # the resolvent limit d^2/eta^4 is nonzero only for d > 0
    if not params.d > 0:
        raise ConfigError("nondiff requires d > 0")
    try:
        nondiff_target(params)
    except ValueError as exc:
        raise ConfigError(f"nondiff: {exc}") from exc
    require(raw, ("n_max",), cfg.subcommand)
    cfg.n_max = as_int(raw, "n_max")
    if cfg.n_max < 10:
        raise ConfigError("n_max must be >= 10")
    cfg.branch, cfg.gap_tolerance = 1, 0.01
    if "branch" in raw:
        cfg.branch = as_int(raw, "branch")
        if cfg.branch not in (1, -1):
            raise ConfigError("branch must be 1 or -1")
    if "gap_tolerance" in raw:
        cfg.gap_tolerance = as_float(raw, "gap_tolerance")
        if not cfg.gap_tolerance > 0:
            raise ConfigError("gap_tolerance must be > 0")
    build_modes(cfg, cfg.n_max, "n_max")


def run(cfg: RunConfig) -> RunOutput:
    params, tolerance = cfg.params, cfg.gap_tolerance
    seq = nondiff_sequence(params, cfg.lams, cfg.branch)
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
    columns = {
        "n": seq.n, "lambda": lam, "omega": seq.omega, "q": seq.q, "p_re": seq.p.real,
        "p_im": seq.p.imag, "norm_v_sq": seq.norm_v_sq,
        "norm_v_sq_weighted": seq.norm_v_sq_weighted, "gap_to_limit": seq.gap,
    }
    return RunOutput(
        columns=columns,
        checks=checks,
        results={"target": seq.target, "gap_at_n_max": seq.gap_at_end},
        notes={"matching_norm": seq.matching_norm},
    )
