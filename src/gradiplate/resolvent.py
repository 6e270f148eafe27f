"""Per-mode resolvent solves, imaginary-axis norm scans, and the
high-frequency sequence that keeps the resolvent from vanishing.

For c > 0 the imaginary axis lies in the resolvent set, so every block
system (i omega I - M_lam) x = g is solvable.  The operator norm measured
here is the one induced by the energy inner product: the largest singular
value of W^(1/2) (i omega I - M_lam)^(-1) W^(-1/2) with
W = diag(c lam^2, rho, a); the reported scan norm is the sup over the
included modes.

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
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import SingularSystem
from .model import (
    Mode,
    ModelParams,
    SpectralDomain,
    enumerate_modes,
    mode_matrix,
)
from .propagator import ModeState

RESIDUAL_LIMIT = 1e-12


@dataclass(frozen=True)
class ResolventRHS:
    """Coefficients of one mode of the driving term G = (g1, g2, g3)."""

    g1: complex
    g2: complex
    g3: complex

    def as_array(self) -> np.ndarray:
        arr = np.array([self.g1, self.g2, self.g3], dtype=complex)
        if not np.all(np.isfinite(arr.view(float))):
            raise ValueError("right-hand side must be finite")
        return arr


def _require_stable(params: ModelParams, what: str) -> None:
    if not params.c > 0:
        raise ValueError(f"{what} requires c > 0")


def solve_mode_resolvent(
    params: ModelParams, lam: float, omega: float, rhs: ResolventRHS
) -> ModeState:
    """Solve (i omega I - M_lam) x = g for one mode block.

    The solution is refined to a relative residual <= 1e-12; failure to
    reach that (only possible if i*omega sits on the block spectrum, which
    c > 0 excludes) raises SingularSystem.
    """
    _require_stable(params, "mode resolvent")
    m = mode_matrix(params, lam).entries
    a = 1j * omega * np.eye(3) - m
    g = rhs.as_array()
    try:
        x = np.linalg.solve(a, g)
        # one step of iterative refinement tightens the worst cases
        x = x + np.linalg.solve(a, g - a @ x)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"singular resolvent block at omega={omega}, lam={lam}") from exc
    g_norm = np.linalg.norm(g)
    if g_norm > 0:
        residual = np.linalg.norm(a @ x - g) / g_norm
        if not residual <= RESIDUAL_LIMIT:
            raise SingularSystem(
                f"resolvent residual {residual:.3e} exceeds {RESIDUAL_LIMIT} "
                f"at omega={omega}, lam={lam}"
            )
    return ModeState(*x)


def _weight_factors(params: ModelParams, lam: float) -> tuple[np.ndarray, np.ndarray]:
    w_sqrt = np.array([math.sqrt(params.c) * lam, math.sqrt(params.rho), math.sqrt(params.a)])
    return w_sqrt, 1.0 / w_sqrt


def mode_resolvent_norm(params: ModelParams, lam: float, omega: float) -> float:
    """Energy-weighted operator norm of one block's resolvent."""
    _require_stable(params, "resolvent norm")
    m = mode_matrix(params, lam).entries
    a = 1j * omega * np.eye(3) - m
    try:
        r = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"singular resolvent block at omega={omega}, lam={lam}") from exc
    w_sqrt, w_isqrt = _weight_factors(params, lam)
    weighted = (w_sqrt[:, None] * r) * w_isqrt[None, :]
    value = float(np.linalg.svd(weighted, compute_uv=False)[0])
    if not np.isfinite(value):
        raise SingularSystem(f"non-finite resolvent norm at omega={omega}, lam={lam}")
    return value


def resolvent_norm(
    params: ModelParams, domain: SpectralDomain, omega: float, mode_count: int
) -> float:
    """Sup over the first mode_count modes of the weighted block norm."""
    _require_stable(params, "resolvent norm")
    modes = enumerate_modes(domain, mode_count)
    return max(mode_resolvent_norm(params, mode.lam, omega) for mode in modes)


@dataclass(frozen=True)
class ResolventScan:
    """Imaginary-axis scan of the truncated resolvent norm.

    `tail_min` is the minimum over grid points with |omega| >= half the
    largest |omega| scanned; a tail bounded away from zero is the
    non-smoothing signature.  `limit_peak` = 2 rho d / eta^2 is the
    verified asymptotic value of the resonant-peak norm (0 when d = 0),
    i.e. d/eta^2 scaled by the normalization constant 2 rho.
    """

    omegas: np.ndarray
    norms: np.ndarray
    mode_count: int
    sup_norm: float
    tail_min: float
    tail_start: float
    limit_peak: float


def scan_imaginary_axis(
    params: ModelParams,
    domain: SpectralDomain,
    omega_grid,
    mode_count: int,
) -> ResolventScan:
    """Weighted resolvent norms over an omega grid (sup over modes).

    The grid is the caller's choice; aligning it with the resonant
    frequencies sqrt(c/rho)*lam_n (see resonant_omega_grid) makes the tail
    diagnostic track the non-vanishing sequence rather than the dips
    between resonances.
    """
    _require_stable(params, "imaginary-axis scan")
    omegas = np.atleast_1d(np.asarray(omega_grid, dtype=float))
    if omegas.size == 0:
        raise ValueError("omega grid must be nonempty")
    lams = np.array([m.lam for m in enumerate_modes(domain, mode_count)])

    # stacked 3x3 solves: blocks indexed by (omega, mode)
    m_all = np.stack([mode_matrix(params, lam).entries for lam in lams])  # (M,3,3)
    a_all = (
        1j * omegas[:, None, None, None] * np.eye(3)[None, None]
        - m_all[None, :, :, :]
    )  # (W,M,3,3)
    r_all = np.linalg.inv(a_all)
    w_sqrt = np.stack([_weight_factors(params, lam)[0] for lam in lams])  # (M,3)
    weighted = r_all * w_sqrt[None, :, :, None] / w_sqrt[None, :, None, :]
    svals = np.linalg.svd(weighted, compute_uv=False)[..., 0]  # (W,M)
    norms = np.max(svals, axis=1)
    if not np.all(np.isfinite(norms)):
        raise SingularSystem("non-finite norm encountered during scan")

    tail_start = 0.5 * float(np.max(np.abs(omegas)))
    tail = norms[np.abs(omegas) >= tail_start]
    limit_peak = (
        2.0 * params.rho * params.d / params.eta**2 if params.eta != 0 else math.inf
    )
    return ResolventScan(
        omegas=omegas,
        norms=norms,
        mode_count=mode_count,
        sup_norm=float(np.max(norms)),
        tail_min=float(np.min(tail)),
        tail_start=tail_start,
        limit_peak=limit_peak,
    )


def resonant_omega_grid(
    params: ModelParams,
    domain: SpectralDomain,
    mode_count: int,
    omega_min: float,
    omega_max: float,
    fill: int = 0,
) -> np.ndarray:
    """Frequencies sqrt(c/rho)*lam_n within [omega_min, omega_max], plus an
    optional log-spaced filler, sorted and deduplicated."""
    _require_stable(params, "resonant grid")
    if not 0 < omega_min < omega_max:
        raise ValueError("need 0 < omega_min < omega_max")
    factor = math.sqrt(params.c / params.rho)
    res = [
        factor * mode.lam
        for mode in enumerate_modes(domain, mode_count)
        if omega_min <= factor * mode.lam <= omega_max
    ]
    pts = list(res)
    if fill > 0:
        pts.extend(np.geomspace(omega_min, omega_max, fill).tolist())
    return np.unique(np.asarray(sorted(pts), dtype=float))


@dataclass(frozen=True)
class NondiffSequencePoint:
    """One term of the resonant-drive sequence with its amplitudes.

    `norm_v_sq` is the plain L2 value |v|^2 = omega^2 |p|^2 (the quantity
    with limit d^2/eta^4); `norm_v_sq_weighted` carries the energy weight
    rho.  `norm_u_sq` is the full energy norm of the solution.  Residuals
    measure back-substitution into the 2x2 amplitude system.
    """

    n: int
    lam: float
    omega: float
    p: complex
    q: float
    norm_u_sq: float
    norm_v_sq: float
    norm_v_sq_weighted: float
    alg1_residual: float
    alg2_residual: float


def nondiff_sequence(
    params: ModelParams,
    domain: SpectralDomain,
    n: int,
    branch: int = +1,
    *,
    modes: Sequence[Mode] | None = None,
) -> NondiffSequencePoint:
    """Closed-form solution of the resonant-drive system for mode n.

    branch selects the sign of omega_n = +-sqrt(c/rho) lam_n; the negative
    branch conjugates p and leaves |v|^2 unchanged.  `modes`, when given,
    is `enumerate_modes(domain, N)` for some N >= n, computed once for a
    whole sequence: its first n entries are `enumerate_modes(domain, n)`.

    The amplitude pair (p, q) is normalized so the mass-scaled velocity row
    (the one multiplied through by rho) carries a unit load; driving
    solve_mode_resolvent with the abstract right-hand side (0, 1/rho, 0)
    reproduces exactly (p, i omega p, q).  For rho = 1 the two conventions
    coincide.
    """
    _require_stable(params, "resonant-drive sequence")
    if params.eta == 0:
        raise ValueError("resonant-drive sequence requires eta != 0")
    if branch not in (+1, -1):
        raise ValueError("branch must be +1 or -1")
    if n < 1:
        raise ValueError("mode index must be >= 1")
    if modes is None:
        modes = enumerate_modes(domain, n)
    elif len(modes) < n:
        raise ValueError(f"modes holds {len(modes)} modes, need {n}")
    lam = modes[n - 1].lam
    root = math.sqrt(params.c / params.rho)
    omega = branch * root * lam
    q = 1.0 / (params.eta * lam)
    p = branch * (
        (1j * params.a * omega + params.d * lam**2 + params.b * lam)
        / (1j * params.eta**2 * lam**3 * root)
    )

    # back-substitution into the amplitude system
    alg1 = p * (params.c * lam**2 - params.rho * omega**2) + q * params.eta * lam
    alg1_residual = abs(alg1 - 1.0)
    alg2 = -1j * params.eta * omega * lam * p + q * (
        1j * params.a * omega + params.d * lam**2 + params.b * lam
    )
    alg2_scale = abs(params.eta * omega * lam * p) + abs(q) * (
        abs(params.a * omega) + params.d * lam**2 + params.b * lam
    )
    alg2_residual = abs(alg2) / max(alg2_scale, 1e-300)

    norm_v_sq = omega**2 * abs(p) ** 2
    return NondiffSequencePoint(
        n=n,
        lam=lam,
        omega=omega,
        p=complex(p),
        q=q,
        norm_u_sq=params.c * lam**2 * abs(p) ** 2
        + params.rho * norm_v_sq
        + params.a * q**2,
        norm_v_sq=norm_v_sq,
        norm_v_sq_weighted=params.rho * norm_v_sq,
        alg1_residual=float(alg1_residual),
        alg2_residual=float(alg2_residual),
    )


@dataclass(frozen=True)
class NondiffLimitReport:
    """Convergence of |v_n|^2 toward the limit d^2/eta^4.

    The limit is attained by the plain L2 velocity norm (`matching_norm`
    records that); the energy-weighted value converges to rho * target.
    """

    ns: np.ndarray
    norm_v_sq: np.ndarray
    target: float
    gap_at_end: float
    matching_norm: str = "l2"


def nondiff_limit_check(
    params: ModelParams,
    domain: SpectralDomain,
    n_max: int,
    branch: int = +1,
    *,
    points: Sequence[NondiffSequencePoint] | None = None,
) -> NondiffLimitReport:
    """`points`, when given, must be the sequence terms n = 1..n_max
    already computed by `nondiff_sequence`."""
    if n_max < 10:
        raise ValueError("n_max must be >= 10")
    ns = np.arange(1, n_max + 1)
    if points is None:
        modes = enumerate_modes(domain, n_max)
        points = [nondiff_sequence(params, domain, int(n), branch, modes=modes) for n in ns]
    elif [p.n for p in points] != ns.tolist():
        raise ValueError(f"points must be the terms n = 1..{n_max}")
    values = np.array([p.norm_v_sq for p in points])
    target = params.d**2 / params.eta**4
    gap = abs(values[-1] - target) / target if target > 0 else math.inf
    return NondiffLimitReport(ns=ns, norm_v_sq=values, target=target, gap_at_end=float(gap))
