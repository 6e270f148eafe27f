"""The `resolvent-scan` subcommand: imaginary-axis resolvent norm scans.

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

with (k, g, h) the block's rates from `ModelParams.block_rates`, the one
definition of the blocks, g taken in absolute value (the sign of eta is a
unitary similarity), and ||A~^-1|| is
sigma_max(adj A~) / |det A~|.  The norm kernel divides each block by a power
of two mu near max(|omega|, k, g, h), which is exact and keeps |omega| up to
1e300 and lam up to 1e10 clear of overflow and underflow.  With
delta = (k - omega)(k + omega) the determinant is h delta + i omega
(delta + g^2), and the Hermitian Gram matrix adj^H adj has closed-form
entries.  Each Gram block is scaled by a power of two near its largest
entry, and its top eigenvalue comes from cyclic complex Jacobi sweeps run
until every off-diagonal entry is below roundoff; Jacobi keeps that
eigenvalue accurate where the top two coincide, which a closed-form cubic
does not.  Blocks go through the kernel at most BLOCK_BUDGET at a time, and
the kept blocks of successive passes go through Jacobi exactly BLOCK_BUDGET
at a time (the last call takes the rest), so the working set is fixed
whatever the numbers of frequencies and modes; every operation is
elementwise, so a block's norm has the same bits whichever pass or Jacobi
call holds it.

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

Most blocks are far from resonance, and one bound per chunk of modes
settles them without their own bounds.  The modes split into contiguous
chunks of about sqrt(M), and for each (omega, chunk) pair a bound U at or
above `high` of every block of the chunk comes from the chunk's least and
largest lam alone:

- k, g and h are nondecreasing in lam, as floats too (see
  `ModelParams.block_rates`).  So each nonnegative term of the Gram trace
  takes its value at the largest lam.
- The trace's two squares, (g^2 - w^2)^2 and delta^2 = (k^2 - w^2)^2, are
  squares of quantities that grow with lam, so each takes the larger of its
  two end values.
- |det|^2 = h^2 delta^2 + w^2 (delta + g^2)^2 takes h at the least lam and
  the least delta^2 and (delta + g^2)^2 over the chunk: an end value, or 0
  where the chunk holds the sign change (for delta, a resonance).
- U is computed in units of a power of two at or above every block's mu,
  and widened by _CHUNK_MARGIN beyond _PRUNE_MARGIN, far above the
  rounding on either side; delta + g^2, which a block computes with
  cancellation, is lowered by that margin times k^2 + g^2 + w^2.
- Underflow loses absolute precision, so U is inf wherever its numerator
  or denominator is below _TINY or U itself leaves the normal range, and a
  non-finite value makes it inf too: such a chunk keeps its exact bounds.

A row's bar starts from the exact bounds of its chunk of largest U, and
only the chunks whose U reaches that bar get exact bounds: these raise the
bar to the row's largest `low`, and then give their kept blocks.  A skipped
block has low <= high <= U < bar, so the bar, the kept blocks and every bit
of the sups are those of exact bounds on every block.  Sorted lams, which
every CLI path passes, keep each chunk's span of lam, and so its U, tight;
unsorted lams give the same bits from wider chunks.  Every singular block
lies in a chunk of infinite U, and those chunks' blocks are checked first,
so SingularSystem names the first singular block in (row, mode) order.
"""

from __future__ import annotations

import math

import numpy as np

from .config import RunConfig, as_float, as_int, build_domain, require
from .errors import ConfigError, SingularSystem
from .manifest import Check, RunOutput
from .model import ModelParams


def _require_stable(params: ModelParams, what: str) -> None:
    if not params.c > 0:
        raise ValueError(f"{what} requires c > 0")


# Blocks per kernel batch, (omega, chunk) bounds per pass, and kept blocks
# per Jacobi call.  Each holds a few dozen float arrays of this length, so
# the scan's working set stays fixed whatever its W and M.
BLOCK_BUDGET = 1 << 12
# Cyclic Jacobi sweeps per pass; Gram blocks have reached roundoff within 4
# sweeps on every grid tried.
MAX_SWEEPS = 16
# Off-diagonal entries below this fraction of the block's trace are roundoff.
_ROUNDOFF = 2.0**-53
# Relative slack on each side of a block's norm bounds, far above the few
# ulps by which Jacobi's top eigenvalue can leave [max diagonal, trace].
_PRUNE_MARGIN = 1e-12
# Relative slack of a chunk bound, far above the few ulps by which a block's
# computed `high` exceeds its exact value on the block's floats.
_CHUNK_MARGIN = 1e-9
# A chunk bound whose numerator or denominator falls below _TINY may have lost
# to underflow, and one below _NORMAL may round; either becomes inf.
_TINY = 2.0**-900
_NORMAL = 2.0**-1021


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


def _det(params: ModelParams, lam, omega) -> tuple[np.ndarray, ...]:
    """The blocks (lam, omega) of two flat arrays as B = A~ / mu: the
    exponent of mu, w, k, g, h, delta, delta + g^2 and det B.  Raises
    SingularSystem at the first singular block, before anything divides."""
    k, g, h = params.block_rates(lam)
    g = abs(g)
    # mu a power of two, so the scaling is exact
    mu_exp = np.frexp(np.maximum(np.abs(omega), np.maximum(np.maximum(k, g), h)))[1]
    w, k, g, h = (np.ldexp(v, -mu_exp) for v in (omega, k, g, h))
    delta = (k - w) * (k + w)
    shift = delta + g * g
    det_re, det_im = h * delta, w * shift
    singular = ~(np.isfinite(det_re) & np.isfinite(det_im)) | ((det_re == 0) & (det_im == 0))
    if singular.any():
        i = np.argmax(singular)
        raise SingularSystem(
            f"singular resolvent block at omega={float(omega[i])!r}, lam={float(lam[i])!r}"
        )
    return mu_exp, w, k, g, h, delta, shift, det_re, det_im


def _bounds(params: ModelParams, lam, omega) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The norm bounds `low` and `high` of the blocks (lam, omega), and the
    terms their Gram blocks are built from."""
    mu_exp, w, k, g, h, delta, shift, det_re, det_im = _det(params, lam, omega)
    k2, g2, w2, h2 = k * k, g * g, w * w, h * h
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
    return low, high, (w, k, g, h, k2, g2, w2, h2, shift, gram_exp, d0, d1, d2, det2, scale)


def _kept_blocks(row, high, terms: tuple, bar) -> tuple[np.ndarray, ...]:
    """The blocks of `terms` (from _bounds) whose `high` reaches the bar of
    their `row`, as flat arrays: the row of each, its Gram diagonal and
    off-diagonal entries, |det|^2 and the scale exponent of its norm.  Only
    these go through Jacobi."""
    # negated, so that a nan or inf bound keeps its block
    keep = ~(high < bar[row])
    w, k, g, h, k2, g2, w2, h2, shift, gram_exp, d0, d1, d2, det2, scale = (
        x[keep] for x in terms
    )
    g01 = (k * h * g2, -2.0 * (k * w) * (w2 + h2))
    g02 = (-(k * g) * (shift - 2.0 * w2), 2.0 * (k * g) * (w * h))
    g12 = (-(g * h) * (k2 + w2), 2.0 * (g * w) * w2)
    off = (np.ldexp(x, -gram_exp) for x in (*g01, *g02, *g12))
    return (row[keep], d0, d1, d2, *off, det2, scale)


def _chunk_bounds(params: ModelParams, lo, hi, omegas) -> np.ndarray:
    """For `omegas` (R, 1) and chunks whose least and largest lam are `lo`
    and `hi` (C,), a bound (R, C) at or above `high` of every block of the
    chunk; inf where the floats cannot certify one."""
    # non-finite values only make a bound inf, which keeps its chunk
    with np.errstate(all="ignore"):
        (k0, g0, h0), (k1, g1, h1) = params.block_rates(lo), params.block_rates(hi)
        g0, g1 = abs(g0), abs(g1)
        # a power of two at or above every block's mu
        exp = np.frexp(np.maximum(np.abs(omegas), np.maximum(np.maximum(k1, g1), h1)))[1]
        w, k0, g0, h0, k1, g1, h1 = (np.ldexp(v, -exp) for v in (omegas, k0, g0, h0, k1, g1, h1))
        w2, k2, g2, h2 = w * w, k1 * k1, g1 * g1, h1 * h1
        # delta = k^2 - w^2 and g^2 - w^2 grow with lam, so their squares are
        # largest, and their least |value| is, at an end of the chunk or 0
        d0, d1 = (k0 - w) * (k0 + w), (k1 - w) * (k1 + w)
        e0, e1 = (g0 - w) * (g0 + w), (g1 - w) * (g1 + w)
        trace = (
            np.maximum(e0 * e0, e1 * e1) + np.maximum(d0 * d0, d1 * d1)
            + 2.0 * k2 * (h2 + w2 + g2) + w2 * (2.0 * (h2 + g2) + w2)
        )
        s0, s1 = d0 + g0 * g0, d1 + g2
        d_min = np.where(d0 > 0, d0, np.where(d1 < 0, -d1, 0.0))
        # a block's delta + g^2 may lose to cancellation what this takes off
        s_min = np.where(s0 > 0, s0, np.where(s1 < 0, -s1, 0.0)) - _CHUNK_MARGIN * (k2 + g2 + w2)
        det2 = h0 * h0 * d_min * d_min + w2 * np.square(np.maximum(s_min, 0.0))
        bound = np.ldexp(
            np.sqrt(trace / det2) * ((1.0 + _PRUNE_MARGIN) * (1.0 + _CHUNK_MARGIN)), -exp
        )
        normal = (trace >= _TINY) & (det2 >= _TINY) & (bound >= _NORMAL)
    return np.where(normal, bound, np.inf)


def _sup_norms(params: ModelParams, lams, omegas) -> tuple[np.ndarray, int, int]:
    """Sup over `lams` of ||W^(1/2) (i omega - M_lam)^(-1) W^(-1/2)||, for
    each omega, with the number of kept blocks and of Jacobi calls.

    The modes split into chunks of about sqrt(M), and a pass takes the
    rows whose (omega, chunk) bounds number at most BLOCK_BUDGET (one row,
    if more).  Each row's bar starts from the exact bounds of its chunk of
    largest bound; the other chunks whose bound reaches it raise the bar to
    the largest `low` of the row, and then the kept blocks of those chunks
    are built.  Exact bounds run at most BLOCK_BUDGET blocks at a time.
    Kept blocks wait until BLOCK_BUDGET of them are pending; then exactly
    BLOCK_BUDGET go through one Jacobi call, and the rest wait for the
    next.  Only the last call takes fewer, so the calls number
    ceil(kept / BLOCK_BUDGET) and none is larger than the budget."""
    lams = np.asarray(lams, dtype=float)
    omegas = np.asarray(omegas, dtype=float)
    sups = np.zeros(omegas.size)
    pending: list[tuple[np.ndarray, ...]] = []
    held = kept = calls = 0

    def sweep(size: int) -> None:
        nonlocal calls
        # the last pending pass fills the batch up to `size`; its rest is
        # copied, so that pass's arrays are gone before Jacobi runs
        last = pending.pop()
        need = size - sum(x[0].size for x in pending)
        row, d0, d1, d2, *off, det2, scale = (
            np.concatenate(x) for x in zip(*pending, tuple(x[:need] for x in last))
        )
        pending[:] = [tuple(x[need:].copy() for x in last)] if last[0].size > need else []
        del last
        top = _gram_top(d0, d1, d2, tuple(off[:2]), tuple(off[2:4]), tuple(off[4:]))
        # a pruned block's norm is below its row's sup, and above 0
        np.maximum.at(sups, row, np.ldexp(np.sqrt(top / det2), scale))
        calls += 1

    def hold() -> None:
        nonlocal held, kept
        held += pending[-1][0].size
        kept += pending[-1][0].size
        while held >= BLOCK_BUDGET:
            sweep(BLOCK_BUDGET)
            held -= BLOCK_BUDGET

    def blocks(pairs: np.ndarray):
        """The blocks of this pass's (row, chunk) pairs, flat indices into
        `bound` in ascending order, in (row, mode) order: batches of at most
        BLOCK_BUDGET blocks as (row, lam)."""
        for i in range(0, pairs.size, step):
            row, chunk = np.divmod(pairs[i : i + step], chunks)
            modes = (chunk * size)[:, None] + np.arange(size)
            inside = modes < lams.size
            yield start + np.broadcast_to(row[:, None], modes.shape)[inside], lams[modes[inside]]

    def kept_once(pairs: np.ndarray):
        """The kept blocks of `pairs`, one batch, whose bounds first raise
        the bar of their rows."""
        [(row, lam)] = blocks(pairs)
        low, high, terms = _bounds(params, lam, omegas[row])
        np.maximum.at(bar, row, low)
        return _kept_blocks(row, high, terms, bar)

    size = max(1, min(BLOCK_BUDGET, math.isqrt(lams.size)))
    # (row, chunk) pairs per batch of exact bounds
    step = max(1, BLOCK_BUDGET // size)
    starts = np.arange(0, lams.size, size)
    chunks = starts.size
    lo, hi = np.minimum.reduceat(lams, starts), np.maximum.reduceat(lams, starts)
    rows = max(1, BLOCK_BUDGET // chunks)
    bar = np.full(omegas.size, -np.inf)
    for start in range(0, omegas.size, rows):
        bound = _chunk_bounds(params, lo, hi, omegas[start : start + rows, None])
        # every singular block lies in a chunk of infinite bound, so this
        # finds the first one in (row, mode) order
        for row, lam in blocks(np.flatnonzero(np.isinf(bound))):
            _det(params, lam, omegas[row])
        # each row's bar starts from its chunk of largest bound; size <=
        # chunks, so these seeds fit in one batch
        seed = np.arange(bound.shape[0]) * chunks + np.argmax(bound, axis=1)
        [(row, lam)] = blocks(seed)
        low, high, terms = _bounds(params, lam, omegas[row])
        np.maximum.at(bar, row, low)
        # only the seed blocks that reach the bar now can reach it later
        keep = ~(high < bar[row])
        seed_row, seed_high, seed_terms = row[keep], high[keep], tuple(x[keep] for x in terms)
        del low, high, terms
        # a chunk below its row's bar holds no block whose `high`, or
        # `low`, reaches the bar; the others raise it to the row's largest
        # `low`, and then their kept blocks are built
        reach = ~(bound < bar[start : start + rows, None]).ravel()
        reach[seed] = False
        rest = np.flatnonzero(reach)
        # rest in one batch: raising the bar by it makes the bar final, so
        # the same bounds build its kept blocks; in more batches each
        # batch's bounds run twice, so that a pass holds one at a time
        kept_rest = kept_once(rest) if 0 < rest.size <= step else None
        if rest.size > step:
            for row, lam in blocks(rest):
                np.maximum.at(bar, row, _bounds(params, lam, omegas[row])[0])
        pending.append(_kept_blocks(seed_row, seed_high, seed_terms, bar))
        del seed_high, seed_terms
        hold()
        if kept_rest is not None:
            pending.append(kept_rest)
            del kept_rest
            hold()
        else:
            for row, lam in blocks(rest):
                pending.append(_kept_blocks(row, *_bounds(params, lam, omegas[row])[1:], bar))
                hold()
    if held:
        sweep(held)
    if not np.all(np.isfinite(sups)):
        omega = float(omegas[np.argmin(np.isfinite(sups))])
        raise SingularSystem(f"resolvent norm overflows at omega={omega!r}")
    return sups, kept, calls


class ResolventScan:
    """Imaginary-axis scan of the truncated resolvent norm.

    `tail_min` is the minimum over grid points with |omega| >= half the
    largest |omega| scanned; a tail bounded away from zero is the
    non-smoothing signature.  `limit_peak` = 2 rho d / eta^2 is the
    verified asymptotic value of the resonant-peak norm (0 when d = 0),
    i.e. d/eta^2 scaled by the normalization constant 2 rho.
    `sign_gap` is |N(omega_0) - N(-omega_0)| / N(omega_0) at the first
    grid point; conjugation symmetry makes it vanish up to roundoff.
    `kept_blocks` counts the (omega, mode) blocks that went through Jacobi,
    the probe's included, and `jacobi_calls` the calls they took.
    """

    __slots__ = (
        "omegas", "norms", "sup_norm", "tail_min", "tail_start",
        "limit_peak", "sign_gap", "kept_blocks", "jacobi_calls",
    )

    def __init__(
        self, omegas: np.ndarray, norms: np.ndarray, sup_norm: float,
        tail_min: float, tail_start: float, limit_peak: float, sign_gap: float,
        kept_blocks: int, jacobi_calls: int,
    ):
        self.omegas, self.norms = omegas, norms
        self.sup_norm, self.tail_min, self.tail_start = sup_norm, tail_min, tail_start
        self.limit_peak, self.sign_gap = limit_peak, sign_gap
        self.kept_blocks, self.jacobi_calls = kept_blocks, jacobi_calls


def scan_imaginary_axis(params: ModelParams, lams: np.ndarray, omega_grid) -> ResolventScan:
    """Weighted resolvent norms over an omega grid (sup over the modes
    `lams`).

    The grid is the caller's choice; aligning it with the resonant
    frequencies sqrt(c/rho)*lam_n (see resonant_omega_grid) makes the tail
    diagnostic track the non-vanishing sequence rather than the dips
    between resonances.
    """
    _require_stable(params, "imaginary-axis scan")
    omegas = np.atleast_1d(np.asarray(omega_grid, dtype=float))
    if omegas.size == 0:
        raise ValueError("omega grid must be nonempty")
    # one more frequency, -omegas[0], for the conjugation-symmetry probe
    sups, kept, calls = _sup_norms(params, lams, np.append(omegas, -omegas[0]))
    norms = sups[:-1]

    tail_start = 0.5 * float(np.max(np.abs(omegas)))
    tail = norms[np.abs(omegas) >= tail_start]
    limit_peak = (
        2.0 * params.rho * params.d / params.eta**2 if params.eta != 0 else math.inf
    )
    return ResolventScan(
        omegas=omegas,
        norms=norms,
        sup_norm=float(np.max(norms)),
        tail_min=float(np.min(tail)),
        tail_start=tail_start,
        limit_peak=limit_peak,
        sign_gap=float(abs(norms[0] - sups[-1]) / max(norms[0], 1e-300)),
        kept_blocks=kept,
        jacobi_calls=calls,
    )


def resonant_omega_grid(
    params: ModelParams, lams: np.ndarray, omega_min: float, omega_max: float
) -> np.ndarray:
    """Frequencies sqrt(c/rho)*lam_n of the modes `lams` within
    [omega_min, omega_max], sorted and deduplicated."""
    _require_stable(params, "resonant grid")
    if not 0 < omega_min < omega_max:
        raise ValueError("need 0 < omega_min < omega_max")
    omegas = params.block_rates(lams)[0]
    omegas = omegas[(omega_min <= omegas) & (omegas <= omega_max)]
    # sorted and deduplicated as np.unique would, without the numpy.ma
    # import that np.unique costs
    omegas = np.sort(omegas)
    return omegas[np.diff(omegas, prepend=-np.inf) != 0]


def configure(cfg: RunConfig, raw: dict[str, str]) -> None:
    build_domain(cfg, raw)
    if not cfg.params.c > 0:
        raise ConfigError("resolvent-scan requires the stable regime (c > 0)")
    require(raw, ("omega_min", "omega_max", "omega_points"), cfg.subcommand)
    cfg.omega_min = as_float(raw, "omega_min")
    cfg.omega_max = as_float(raw, "omega_max")
    cfg.omega_points = as_int(raw, "omega_points")
    if not (0 < cfg.omega_min < cfg.omega_max):
        raise ConfigError("need 0 < omega_min < omega_max")
    if cfg.omega_points < 1:
        raise ConfigError("omega_points must be >= 1")
    cfg.omega_grid_kind = raw.get("omega_grid", "log")
    if cfg.omega_grid_kind not in ("log", "linear", "resonant"):
        raise ConfigError("omega_grid must be log|linear|resonant")


def run(cfg: RunConfig) -> RunOutput:
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
    # past the last resonance the truncated scan misses the mode that sets the sup
    omega_resolved = cfg.params.block_rates(float(np.max(cfg.lams)))[0]
    checks = [
        Check("norms_finite", bool(np.all(np.isfinite(scan.norms))), float(np.max(scan.norms)), float("inf")),
        Check("omega_sign_symmetry", scan.sign_gap <= 1e-10, scan.sign_gap, 1e-10),
    ]
    return RunOutput(
        columns={"omega": scan.omegas, "resolvent_norm": scan.norms},
        checks=checks,
        results={
            "sup_norm": scan.sup_norm,
            "tail_min": scan.tail_min,
            "tail_start": scan.tail_start,
            "limit_peak": scan.limit_peak,
            "omega_resolved": omega_resolved,
        },
        sizes={
            "modes": cfg.lams.size,
            "omegas": scan.omegas.size,
            "omegas_unresolved": int(np.count_nonzero(np.abs(scan.omegas) > omega_resolved)),
            "kept_blocks": scan.kept_blocks,
            "jacobi_calls": scan.jacobi_calls,
        },
    )
