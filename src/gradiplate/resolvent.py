"""Per-mode resolvent solves, imaginary-axis norm scans, and the
high-frequency sequence that keeps the resolvent from vanishing.

For c > 0 and eta != 0 the imaginary axis lies in the resolvent set, so
every block system (i omega I - M_lam) x = g is solvable.  With eta = 0 the
plate decouples and is undamped, i omega = +-i sqrt(c/rho) lam is an
eigenvalue, and a block there raises SingularSystem.  The operator norm
measured here is the one induced by the energy inner product: the largest
singular value of W^(1/2) (i omega I - M_lam)^(-1) W^(-1/2) with
W = diag(c lam^2, rho, a); the reported scan norm is the sup over the
included modes.

In these energy coordinates a block is tridiagonal,

    A~ = [[i omega, -k, 0], [k, i omega, g], [0, -g, i omega + h]],
    k = sqrt(c/rho) lam,  g = |eta| lam / sqrt(rho a),  h = (b lam + d lam^2)/a

(the sign of eta is a unitary similarity), and ||A~^-1|| is
sigma_max(adj A~) / |det A~|.  The norm kernel divides each block by a power
of two mu near max(|omega|, k, g, h), which is exact and keeps |omega| up to
1e300 and lam up to 1e10 clear of overflow and underflow.  With
delta = (k - omega)(k + omega) the determinant is h delta + i omega
(delta + g^2), and the Hermitian Gram matrix adj^H adj has closed-form
entries.  Each Gram block is scaled by a power of two near its largest
entry, and its top eigenvalue comes from cyclic complex Jacobi sweeps run
until every off-diagonal entry is below roundoff; Jacobi keeps that
eigenvalue accurate where the top two coincide, which a closed-form cubic
does not.  Blocks go through the kernel BLOCK_BUDGET at a time, and so do
the kept blocks of successive passes through Jacobi, so the working set is
fixed whatever the grid; every operation is elementwise, so a block's norm
has the same bits whichever pass or Jacobi call holds it.

A scan keeps one number per omega, the sup over modes, and at a given omega
only the few modes near resonance can reach it.  The Gram matrix is
positive semidefinite, so its top eigenvalue lies between its largest
diagonal entry and its trace: from the diagonal and |det| alone, every
block gets a lower bound `low` and an upper bound `high` on its norm.  In
each omega row the bar is the largest `low`, and a block whose `high` is
below the bar cannot hold the sup; it skips the off-diagonal entries and
the Jacobi sweeps.  Both bounds are widened by _PRUNE_MARGIN, far above the
few ulps by which Jacobi's top eigenvalue can leave [max diagonal, trace],
before the power-of-two rescaling, whose rounding is monotone.  So the
block that sets the bar is kept and its norm is at least the bar, every
pruned norm is below it, and the sup has the bits of the max over all
blocks.  The bar belongs to a row, not to a pass, and a nan or inf bound
keeps its block.

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
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import SingularSystem
from .model import Interval, ModelParams, SpectralDomain, enumerate_modes, mode_matrix

if TYPE_CHECKING:
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
    c > 0 and eta != 0 exclude) raises SingularSystem.
    """
    from .propagator import ModeState

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


# Blocks per kernel pass.  The pass holds a few dozen float arrays of this
# length, so the scan's working set stays fixed whatever its W x M.
BLOCK_BUDGET = 1 << 13
# Cyclic Jacobi sweeps per pass; Gram blocks have reached roundoff within 4
# sweeps on every grid tried.
MAX_SWEEPS = 16
# Off-diagonal entries below this fraction of the block's trace are roundoff.
_ROUNDOFF = 2.0**-53
# Relative slack on each side of a block's norm bounds, far above the few
# ulps by which Jacobi's top eigenvalue can leave [max diagonal, trace].
_PRUNE_MARGIN = 1e-12


def _rotate(dp, dq, pq, pr, qr, thr2):
    """One complex Jacobi rotation of the pair (p, q) of a stack of
    Hermitian 3x3 blocks.

    `dp`, `dq` are the real diagonal entries, and `pq`, `pr`, `qr` the
    entries G_pq, G_pr, G_qr as (real, imaginary) pairs, r being the third
    index.  With G_pq = |G_pq| e, the rotation is diag(1, conj(e)) times
    the real rotation that annihilates the real symmetric 2x2 block left
    behind.  Blocks with |G_pq|^2 <= thr2 are left bit for bit as they
    are, so a block's result does not depend on the blocks beside it.
    """
    re, im = pq
    r2 = _abs2(pq)
    rot = r2 > thr2
    r = np.where(rot, np.sqrt(r2), 1.0)
    diff = dq - dp
    # t = tan(theta) with |theta| <= pi/4 and tan(2 theta) = 2 |G_pq| / (dq - dp)
    t = np.copysign(2.0 * r, diff) / (np.abs(diff) + np.sqrt(diff * diff + 4.0 * r * r))
    t = np.where(rot, t, 0.0)
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    er = np.where(rot, re / r, 1.0)
    ei = np.where(rot, im / r, 0.0)
    tr = t * r
    # e G_qr
    qr_r = er * qr[0] - ei * qr[1]
    qr_i = er * qr[1] + ei * qr[0]
    return (
        dp - tr,
        dq + tr,
        (np.where(rot, 0.0, re), np.where(rot, 0.0, im)),
        (c * pr[0] - s * qr_r, c * pr[1] - s * qr_i),
        (s * pr[0] + c * qr_r, s * pr[1] + c * qr_i),
    )


def _gram_top(d0, d1, d2, g01, g02, g12) -> np.ndarray:
    """Largest eigenvalue of Hermitian 3x3 blocks by cyclic Jacobi sweeps.

    A block sweeps until each of its off-diagonal entries is below
    roundoff of its trace; its top eigenvalue is then its largest diagonal
    entry to a few ulps (Weyl), even where the top two coincide.  Blocks
    that have converged leave the stack, since further sweeps would not
    change them.
    """
    thr2 = (_ROUNDOFF * (d0 + d1 + d2)) ** 2
    top = np.empty_like(d0)
    live = np.arange(d0.size)
    for _ in range(MAX_SWEEPS):
        busy = (_abs2(g01) > thr2) | (_abs2(g02) > thr2) | (_abs2(g12) > thr2)
        if not busy.all():
            done = ~busy
            top[live[done]] = np.maximum(np.maximum(d0[done], d1[done]), d2[done])
            live = live[busy]
            if live.size == 0:
                return top
            d0, d1, d2, thr2 = d0[busy], d1[busy], d2[busy], thr2[busy]
            g01, g02, g12 = ((x[busy], y[busy]) for x, y in (g01, g02, g12))
        # conj() maps an entry below the diagonal onto the stored one above it
        d0, d1, g01, g02, g12 = _rotate(d0, d1, g01, g02, g12, thr2)
        d0, d2, g02, g01, g21 = _rotate(d0, d2, g02, g01, _conj(g12), thr2)
        g12 = _conj(g21)
        d1, d2, g12, g10, g20 = _rotate(d1, d2, g12, _conj(g01), _conj(g02), thr2)
        g01, g02 = _conj(g10), _conj(g20)
    top[live] = np.maximum(np.maximum(d0, d1), d2)
    return top


def _conj(z):
    return z[0], -z[1]


def _abs2(z):
    return z[0] * z[0] + z[1] * z[1]


def _kept_blocks(params: ModelParams, lams, omegas) -> tuple[np.ndarray, ...]:
    """The blocks of `lams` (M,) x `omegas` (W, 1) whose norm bounds reach
    their row's bar, as flat arrays: the row of each, its Gram diagonal and
    off-diagonal entries, |det|^2 and the scale exponent of its norm.
    Only these go through Jacobi."""
    k = math.sqrt(params.c / params.rho) * lams
    g = abs(params.eta) / math.sqrt(params.rho * params.a) * lams
    h = params.heat_weight(lams) / params.a
    # B = A~ / mu: mu a power of two, so the scaling is exact
    mu_exp = np.frexp(np.maximum(np.abs(omegas), np.maximum(np.maximum(k, g), h)))[1]
    w, k, g, h = (np.ldexp(v, -mu_exp) for v in (omegas, k, g, h))
    k2, g2, w2, h2 = k * k, g * g, w * w, h * h
    delta = (k - w) * (k + w)
    shift = delta + g2
    det_re, det_im = h * delta, w * shift
    singular = ~(np.isfinite(det_re) & np.isfinite(det_im)) | ((det_re == 0) & (det_im == 0))
    if singular.any():
        row, col = np.argwhere(singular)[0]
        omega, lam = float(omegas[row, 0]), float(lams[col])
        raise SingularSystem(f"singular resolvent block at omega={omega!r}, lam={lam!r}")
    # adj B = [[g^2 - w^2 + i w h, k (h + i w), -k g],
    #          [-k (h + i w), -w^2 + i w h, -i w g],
    #          [-k g, i w g, delta]];  the diagonal of adj(B)^H adj(B):
    diag = (
        ((g - w) * (g + w)) ** 2 + k2 * (h2 + w2 + g2) + w2 * h2,
        k2 * (h2 + w2) + w2 * (w2 + h2 + g2),
        g2 * (k2 + w2) + delta * delta,
    )
    # an even exponent, so that the scale of sigma = sqrt(top) is a power of two too
    gram_exp = np.frexp(np.maximum(np.maximum(diag[0], diag[1]), diag[2]))[1] // 2 * 2
    d0, d1, d2 = (np.ldexp(x, -gram_exp) for x in diag)
    det_exp = np.frexp(np.maximum(np.abs(det_re), np.abs(det_im)))[1]
    det_re, det_im = np.ldexp(det_re, -det_exp), np.ldexp(det_im, -det_exp)
    det2 = det_re * det_re + det_im * det_im
    # ||A~^-1|| = sigma_max(adj B) / (|det B| mu), with sigma_max^2 between
    # the Gram block's largest diagonal entry and its trace
    scale = gram_exp // 2 - det_exp - mu_exp
    max_diag = np.maximum(np.maximum(d0, d1), d2)
    low = np.ldexp(np.sqrt(max_diag / det2) * (1.0 - _PRUNE_MARGIN), scale)
    high = np.ldexp(np.sqrt((d0 + d1 + d2) / det2) * (1.0 + _PRUNE_MARGIN), scale)
    # negated, so that a nan or inf bound keeps its block
    keep = ~(high < np.max(low, axis=1, keepdims=True))

    w, k, g, h, k2, g2, w2, h2, shift, gram_exp = (
        x[keep] for x in (w, k, g, h, k2, g2, w2, h2, shift, gram_exp)
    )
    g01 = (k * h * g2, -2.0 * (k * w) * (w2 + h2))
    g02 = (-(k * g) * (shift - 2.0 * w2), 2.0 * (k * g) * (w * h))
    g12 = (-(g * h) * (k2 + w2), 2.0 * (g * w) * w2)
    off = (np.ldexp(x, -gram_exp) for x in (*g01, *g02, *g12))
    kept = (d0[keep], d1[keep], d2[keep], *off, det2[keep], scale[keep])
    return (np.nonzero(keep)[0], *kept)


def _sup_norms(params: ModelParams, lams, omegas) -> np.ndarray:
    """Sup over `lams` of ||W^(1/2) (i omega - M_lam)^(-1) W^(-1/2)||, for
    each omega.  The bounds run in passes of at most BLOCK_BUDGET blocks
    (or one omega's worth, if more); the kept blocks of successive passes
    gather until they reach BLOCK_BUDGET, and then go through one Jacobi
    call."""
    lams = np.asarray(lams, dtype=float)
    omegas = np.asarray(omegas, dtype=float)
    sups = np.zeros(omegas.size)
    pending: list[tuple[np.ndarray, ...]] = []

    def sweep() -> None:
        row, d0, d1, d2, *off, det2, scale = (np.concatenate(x) for x in zip(*pending))
        top = _gram_top(d0, d1, d2, tuple(off[:2]), tuple(off[2:4]), tuple(off[4:]))
        # a pruned block's norm is below its row's sup, and above 0
        np.maximum.at(sups, row, np.ldexp(np.sqrt(top / det2), scale))
        pending.clear()

    rows = max(1, BLOCK_BUDGET // lams.size)
    for start in range(0, omegas.size, rows):
        row, *kept = _kept_blocks(params, lams, omegas[start : start + rows, None])
        pending.append((start + row, *kept))
        if sum(x[0].size for x in pending) >= BLOCK_BUDGET:
            sweep()
    if pending:
        sweep()
    if not np.all(np.isfinite(sups)):
        omega = float(omegas[np.argmin(np.isfinite(sups))])
        raise SingularSystem(f"resolvent norm overflows at omega={omega!r}")
    return sups


def mode_resolvent_norm(params: ModelParams, lam: float, omega: float) -> float:
    """Energy-weighted operator norm of one block's resolvent."""
    _require_stable(params, "resolvent norm")
    if not lam > 0:
        raise ValueError(f"lam must be > 0, got {lam}")
    return float(_sup_norms(params, [lam], [omega])[0])


def resolvent_norm(
    params: ModelParams, domain: SpectralDomain, omega: float, mode_count: int
) -> float:
    """Sup over the first mode_count modes of the weighted block norm."""
    _require_stable(params, "resolvent norm")
    lams = enumerate_modes(domain, mode_count).lam
    return float(_sup_norms(params, lams, [omega])[0])


@dataclass(frozen=True)
class ResolventScan:
    """Imaginary-axis scan of the truncated resolvent norm.

    `tail_min` is the minimum over grid points with |omega| >= half the
    largest |omega| scanned; a tail bounded away from zero is the
    non-smoothing signature.  `limit_peak` = 2 rho d / eta^2 is the
    verified asymptotic value of the resonant-peak norm (0 when d = 0),
    i.e. d/eta^2 scaled by the normalization constant 2 rho.
    `sign_gap` is |N(omega_0) - N(-omega_0)| / N(omega_0) at the first
    grid point; conjugation symmetry makes it vanish up to roundoff.
    """

    omegas: np.ndarray
    norms: np.ndarray
    mode_count: int
    sup_norm: float
    tail_min: float
    tail_start: float
    limit_peak: float
    sign_gap: float


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
    lams = enumerate_modes(domain, mode_count).lam
    # one more frequency, -omegas[0], for the conjugation-symmetry probe
    sups = _sup_norms(params, lams, np.append(omegas, -omegas[0]))
    norms = sups[:-1]

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
        sign_gap=float(abs(norms[0] - sups[-1]) / max(norms[0], 1e-300)),
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
    lams = enumerate_modes(domain, mode_count).lam
    omegas = math.sqrt(params.c / params.rho) * lams
    omegas = omegas[(omega_min <= omegas) & (omegas <= omega_max)]
    if fill > 0:
        omegas = np.append(omegas, np.geomspace(omega_min, omega_max, fill))
    # sorted and deduplicated as np.unique would, without the numpy.ma
    # import that np.unique costs
    omegas = np.sort(omegas)
    return omegas[np.diff(omegas, prepend=-np.inf) != 0]


@dataclass(frozen=True)
class NondiffSequence:
    """The resonant-drive sequence n = 1..n_max as arrays, one entry per term.

    `norm_v_sq` is the plain L2 value |v|^2 = omega^2 |p|^2, whose limit
    `target` = d^2/eta^4 (`matching_norm` records that), and `gap` is
    |norm_v_sq - target| / target; `norm_v_sq_weighted` carries the energy
    weight rho, and `norm_u_sq` is the full energy norm of the solution.
    The residuals measure back-substitution into the 2x2 amplitude system
    at exact resonance, row by row.
    """

    n: np.ndarray
    lam: np.ndarray
    omega: np.ndarray
    p: np.ndarray
    q: np.ndarray
    norm_u_sq: np.ndarray
    norm_v_sq: np.ndarray
    norm_v_sq_weighted: np.ndarray
    gap: np.ndarray
    alg1_residual: np.ndarray
    alg2_residual: np.ndarray
    target: float
    gap_at_end: float
    matching_norm: str = "l2"


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


def nondiff_sequence(
    params: ModelParams, domain: SpectralDomain, n_max: int, branch: int = +1
) -> NondiffSequence:
    """Closed-form solution of the resonant-drive system for the modes
    n = 1..n_max, in one array pass.

    branch selects the sign of omega_n = +-sqrt(c/rho) lam_n; the negative
    branch conjugates p and leaves |v|^2 unchanged.

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
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    target = nondiff_target(params)
    lam = enumerate_modes(domain, n_max).lam
    root = math.sqrt(params.c / params.rho)
    omega = branch * root * lam
    q = 1.0 / (params.eta * lam)
    # p = (i a omega + heat) / (i x) in real arithmetic, rounded as the
    # complex division by a purely imaginary number rounds it
    heat = params.d * lam**2 + params.b * lam
    x = params.eta**2 * lam**3 * root
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
    norm_p_sq = np.hypot(p.real, p.imag) ** 2
    norm_v_sq = omega**2 * norm_p_sq
    gap = np.abs(norm_v_sq - target) / target
    return NondiffSequence(
        n=np.arange(1, n_max + 1),
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
