"""Exact per-mode evolution and energy bookkeeping.

The truncated generator is block-diagonal over modes, so trajectories are
computed from 3x3 matrix exponentials with no time-discretization error.
One kernel, `_ModeKernel`, serves every time-domain run through
`Evolution`: it evolves a stack of modes at once, in closed form from the
roots of each block's cubic (`spectrum.mode_spectra`), and gives the exact
running integral int_0^t x^T Q x ds of a per-mode quadratic form Q with
them, for any block of samples.  Time integrals are never taken by
quadrature.

Energy along a trajectory:

    E(t) = 1/2 sum_n (rho |v_n|^2 + c lam_n^2 |u_n|^2 + a |theta_n|^2)
    D(t) = sum_n (b lam_n + d lam_n^2) |theta_n|^2

Forward in time E(t) + int_0^t D ds = E(0); under the time-reversed heat
terms the identity holds with the sign of the integral flipped.  This is
the package's one energy quadratic form: `_energy_columns` sums it, for a
single state (`energy_of`) and for every trajectory sample alike, and the
functionals (L1, L2, F'') read its columns instead of summing it again.

Modes whose initial data are zero stay exactly at rest, so no
time-domain array holds them: the kernel evolves, and the energy form
sums, only the live modes (`live_modes`).  An `Evolution` is the one
driver of the kernel: it walks the time blocks of about
BLOCK_MODE_SAMPLES live mode-samples and yields, for each, the states of
the live modes, the columns of E (kinetic, bending, thermal, total) and
D, and the running integral of its weight q (by default D's, so
int_0^t D ds).  `history` keeps the columns of the whole grid, and its
memory grows by a few numbers per sample; a hook sees each block's
states on the way (`backward` sums its coupling terms from them).
Neither the blocks nor the modes at rest change a bit of the output.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence

import numpy as np

from . import spectrum
from .errors import InsufficientSamples, NonFiniteResult
from .model import Direction, ModelParams

# a block whose separated root has a larger condition than this, and
# whose roots lie within CLUSTER_REACH / t of their mean over the grid, is
# a cluster near a triple root: it takes the power series, undeflated
CLUSTER_LIMIT = 10.0
CLUSTER_REACH = 6.0
# samples of the power series evaluated at once: bounds its temporaries
SERIES_CHUNK = 2**11
# below |s t| = EXPM1_LIMIT a closed-form integral takes (e^{st} - 1)/s
# from expm1, where the difference of exponentials would cancel
EXPM1_LIMIT = 0.5
# live mode-samples per time block: a time-domain run holds the states of
# one block and the kernel's temporaries, a few dozen arrays of this
# length, and 1-D columns of the whole grid
BLOCK_MODE_SAMPLES = 2**13
# samples per time block at least and at most.  A block holds about 12
# floats a live mode-sample and the kernel's per-mode setup peaks at about
# 1.3 KB a live mode, so past 1,024 live modes a block of 8 samples holds
# about as much as the setup: narrower ones would lower the run's peak by a
# few percent at most, and add per-block calls.  Past the most, the
# per-sample terms of the kernel, not its per-block calls, set the time of
# a block
BLOCK_SAMPLES_MIN, BLOCK_SAMPLES_MAX = 8, 2**14
ENERGY_FLOOR = 1e-300


class EnergyBreakdown:
    """E(t) split into kinetic / bending / thermal parts plus D(t)."""

    __slots__ = ("kinetic", "bending", "thermal", "total", "dissipation_rate")

    def __init__(
        self, kinetic: float, bending: float, thermal: float, total: float,
        dissipation_rate: float,
    ):
        self.kinetic, self.bending, self.thermal = kinetic, bending, thermal
        self.total, self.dissipation_rate = total, dissipation_rate


def live_modes(x: np.ndarray) -> np.ndarray:
    """Indices of the rows of x[mode, ...] that are not all zero: the modes
    that carry data.  The others stay exactly at rest."""
    return np.flatnonzero(np.any(x != 0.0, axis=1))


def _energy_columns(
    params: ModelParams, lams: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Kinetic, bending, thermal, total and D of x[mode, (u, v, theta), sample].

    The one place the energy quadratic form is summed.  Each component is
    squared as its own contiguous (samples, modes) copy, one at a time, so
    every sample's modes reduce in the same pairwise order as a single
    state's mode vector.
    """

    def squares(i: int) -> np.ndarray:
        rows = np.array(x[:, i, :].T, order="C")
        return np.square(rows, out=rows)

    v2 = squares(1)
    kinetic = 0.5 * params.rho * np.sum(v2, axis=1)
    del v2
    u2 = squares(0)
    u2 *= lams**2
    bending = 0.5 * params.c * np.sum(u2, axis=1)
    del u2
    th2 = squares(2)
    thermal = 0.5 * params.a * np.sum(th2, axis=1)
    th2 *= params.heat_weight(lams)
    dissipation = np.sum(th2, axis=1)
    return kinetic, bending, thermal, kinetic + bending + thermal, dissipation


def energy_of(params: ModelParams, lams: np.ndarray, x: np.ndarray) -> EnergyBreakdown:
    """E and D of one state x[mode, (u, v, theta)] over the modes `lams`,
    summed over its live modes as a trajectory's energy columns are: E is
    their first entry to the bit."""
    live = live_modes(x)
    columns = _energy_columns(params, lams[live], x[live, :, None])
    return EnergyBreakdown(*(float(col[0]) for col in columns))


_COLUMNS = ("kinetic", "bending", "thermal", "total", "dissipation", "dissipation_integral")


class EnergyHistory:
    """The energy columns of a trajectory (see the module docstring) and
    dissipation_integral, int_0^t D ds, one entry per sample."""

    __slots__ = ("t",) + _COLUMNS

    def __init__(
        self, t: np.ndarray, kinetic: np.ndarray, bending: np.ndarray,
        thermal: np.ndarray, total: np.ndarray, dissipation: np.ndarray,
        dissipation_integral: np.ndarray,
    ):
        self.t, self.kinetic, self.bending, self.thermal = t, kinetic, bending, thermal
        self.total, self.dissipation = total, dissipation
        self.dissipation_integral = dissipation_integral

    @property
    def energy_norm(self) -> np.ndarray:
        """kinetic + |bending| + thermal: the size of the terms E sums."""
        return self.kinetic + np.abs(self.bending) + self.thermal


def evolution_sizes(lams: np.ndarray, x0: np.ndarray, times: np.ndarray) -> dict[str, int]:
    """The manifest's size lines of a run from x0 over the modes `lams` at
    `times`: its modes, live modes, samples and time blocks."""
    live = live_modes(x0).size
    return {
        "modes": lams.size,
        "live_modes": live,
        "samples": times.size,
        "time_blocks": len(time_blocks(live, times.size)),
    }


def time_blocks(modes: int, samples: int) -> list[tuple[int, int]]:
    """The (lo, hi) sample ranges of the time blocks of a grid.

    A block holds about BLOCK_MODE_SAMPLES mode-samples of `modes` live
    modes: the largest power of two of samples that fits, from
    BLOCK_SAMPLES_MIN (which more than 1,024 live modes overfill) to
    BLOCK_SAMPLES_MAX, or the whole grid when that is shorter (so a grid
    with no live mode is one block up to that size).  The kernel works on
    each sample apart, and the sums over modes run along axis 0, except in
    a one-sample block, where numpy sums the contiguous modes pairwise: a
    one-sample tail joins the block before it, so no bit depends on the
    blocking.
    """
    per = BLOCK_SAMPLES_MIN
    while per < min(samples, BLOCK_SAMPLES_MAX) and 2 * per * modes <= BLOCK_MODE_SAMPLES:
        per *= 2
    starts = list(range(0, samples, per))
    if len(starts) > 1 and samples - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [samples]))


def _energy_blocks(params: ModelParams, lams: np.ndarray, direction: Direction) -> np.ndarray:
    """The (modes, 3, 3) blocks of the modes `lams` in energy coordinates, from
    `ModelParams.block_rates`: [[0, k, 0], [-sign(c) k, 0, -g], [0, g, -+h]]."""
    k, g, h = params.block_rates(lams)
    a_mat = np.zeros((lams.size, 3, 3))
    a_mat[:, 0, 1], a_mat[:, 1, 0] = k, -k if params.c > 0 else k
    a_mat[:, 1, 2], a_mat[:, 2, 1] = -g, g
    a_mat[:, 2, 2] = -h if direction is Direction.FORWARD else h
    return a_mat


class _ModeKernel:
    """States of a stack of modes on a time grid, (modes, 3, samples), and the running
    integral int_0^t sum_modes x^T q x ds, for any block of samples, in closed form from
    the roots of each block's cubic (negated backward: M_back = D (-M_fwd) D, D =
    diag(1, -1, 1)), in energy coordinates y = s x, s = (sqrt|c| lam, sqrt rho, sqrt a),
    where the block A (`_energy_blocks`) takes its entries from `ModelParams.block_rates`.

    The separated root z1 (the real one; of three real roots the one farther from the
    closer two, or the heat root when eta = 0) is deflated: p = v1 (u1.y0)/(u1.v1) from the null vectors of A - z1; the
    rest y_p of y0 lies in the plane u1.y = 0, where N = A - a has N^2 = omega^2 for the
    pair a +- omega.  So y(t) = e^{z1 t} p + e^{at} (ch y_p + sh N y_p), ch =
    cosh(omega t), sh = sinh(omega t)/omega (cos and sin for a complex pair), and the
    integral sums (e^{st} - 1)/s over sums s of two roots.  A pair with |2 omega t| < 1
    over the grid, or a cluster near a triple root (z1's condition above CLUSTER_LIMIT,
    N = A - m about the mean root m), takes the power series of e^{Nt} in r t (r >=
    |omega|), integrated by moments int_0^1 s^k e^{us} ds.  The sizes of p and y_p are
    folded into their exponentials (data of 1e-38 may grow past e^700); overflow leaves
    non-finite entries for the caller to report.  x0 holds the (modes, 3) initial states
    and q the real symmetric (modes, 3, 3) weights, in x; a mode at rest costs as much as
    any other, so callers pass the live modes only (`live_modes`).
    """

    def __init__(self, params, lams, direction, x0, times, q):
        z = spectrum.mode_spectra(params, lams)[0] * (1.0 if direction is Direction.FORWARD else -1.0)
        s = np.stack(np.broadcast_arrays(np.sqrt(abs(params.c)) * lams, np.sqrt(params.rho), np.sqrt(params.a)), -1)
        a_mat = _energy_blocks(params, lams, direction)
        self.x0, self.times = x0, times
        y0, rows, eye = x0 * s, np.arange(len(z)), np.eye(3)
        t_end = times[-1] if times.size > 1 else 1.0
        with np.errstate(all="ignore"):
            pair, r, top = np.any(z.imag != 0.0, axis=1), np.sort(z.real, axis=1), z[rows, np.argmax(z.imag, 1)]
            # of three real roots z1 is the one farther from the closer two; with eta = 0 the
            # heat root (the block's (2, 2) entry), unless a plate root is near it, so that
            # the decoupled fields stay exactly apart
            far = np.where(r[:, 1] - r[:, 0] <= r[:, 2] - r[:, 1], 2, 0)
            if params.eta == 0.0:
                heat = np.argmin(abs(r - a_mat[:, 2, 2, None]), axis=1)
                gap = np.where(np.arange(3) == heat[:, None], np.inf, abs(r - r[rows, heat, None]))
                far = np.where(np.min(gap, axis=1) > 1e-3 * np.max(abs(r), axis=1), heat, far)
            lo, hi = np.sort(np.where(np.arange(3) == far[:, None], np.inf, r), axis=1)[:, :2].T
            z1 = np.where(pair, z[rows, np.argmin(abs(z.imag), 1)].real, r[rows, far])
            a, omega = np.where(pair, top.real, 0.5 * (hi + lo)), np.where(pair, 1j * top.imag, 0.5 * (hi - lo))
            b = a_mat - z1[:, None, None] * eye
            v1 = _null_vector(b, abs(a_mat).max(axis=2) + abs(z1)[:, None])
            u1 = _null_vector(b.swapaxes(1, 2), abs(a_mat).max(axis=1) + abs(z1)[:, None])
            dot, m = np.sum(u1 * v1, axis=1), np.mean(z.real, axis=1)
            d = z - m[:, None]
            spread = np.max(abs(d), axis=1)
            cluster = (abs(dot) * CLUSTER_LIMIT < 1.0) & (spread * t_end <= CLUSTER_REACH)
            p = np.where(cluster[:, None], 0.0, v1 * (np.sum(u1 * y0, axis=1) / dot)[:, None])
            # the plane u1.y = 0 over its coordinates other than j = argmax |u1|
            j = np.argmax(abs(u1), axis=1)
            plane = eye - eye[j][:, :, None] * (u1 / u1[rows, j, None])[:, None, :]
            a, omega = np.where(cluster, m, a), np.where(cluster, 0.0, omega)
            nil = np.where(cluster[:, None, None], a_mat - m[:, None, None] * eye,
                           plane @ a_mat @ plane - a[:, None, None] * plane)
            r = np.maximum(np.where(cluster, spread, abs(omega)), 1.0 / t_end)
            # (N/r)^3 + c2 (N/r)^2 + c1 N/r + c0 = 0, from the roots of N: d, or 0 and +-omega
            d = np.where(cluster[:, None], d, np.stack([0.0 * omega, omega, -omega], 1)) / r[:, None]
            total = np.sum(d, axis=1)
            cubic = np.stack([-np.prod(d, axis=1), 0.5 * (total * total - np.sum(d * d, axis=1)), -total], 1).real
            # the basis p, y_p, N y_p / r, N^2 y_p / r^2, its sizes folded out
            basis = [p, np.where(cluster[:, None], y0, np.einsum("lij,lj->li", plane, y0 - p))]
            for _ in range(2):
                basis.append(np.einsum("lij,lj->li", nil, basis[-1]) / r[:, None])
            n_p, n_w = np.max(abs(basis[0]), axis=1), np.max(abs(np.array(basis[1:])), axis=(0, 2))
            sizes = np.stack([n_p, n_w, n_w, n_w], axis=1)
            basis = np.stack(basis, axis=2) / np.where(sizes > 0.0, sizes, 1.0)[:, None]
            gram = basis.swapaxes(1, 2) @ (q / (s[:, :, None] * s[:, None, :])) @ basis
            # per-mode constants as (modes, 1) columns; pp, pw and ww are n_p^2, n_p n_w, n_w^2
            beta, b, nu = omega.real, omega.imag, (omega**2).real
            (self.z1, self.a, self.beta, self.b, self.r, self.log_p, self.log_w, self.s1, self.nu_r,
             self.r_b, self.r_beta, self.pp, self.pw, self.ww) = (v[:, None] for v in (
                z1, a, beta, b, r, np.log(n_p), np.log(n_w), z1 + a, nu / r**2,
                np.where(b != 0.0, r / b, 0.0), np.where(beta != 0.0, r / beta, 0.0),
                n_p * n_p, n_p * n_w, n_w * n_w))
            self.over1, self.over2 = _over(self.s1, nu[:, None], self.r), _over(2.0 * self.a, 4.0 * nu[:, None], self.r)
            # the closed form's weights of G(2 z1), P and Q at the two nodes, (r sh)^2,
            # r ch r sh and G(2a), from G00, 2 G01, 2 G02, G11 / 2, 2 G12 and 2 G22
            g = gram[:, [0, 0, 0, 1, 1, 2], [0, 1, 2, 1, 2, 2]] * [1, 2, 2, 0.5, 2, 2]
            s2, _, r2, rr2 = (v[:, 0] for v in self.over2)
            self.weights = np.stack([*g[:, :5].T, 0.5 * s2 * g[:, 5], r2 * g[:, 5], g[:, 3] + rr2 * g[:, 5]])[..., None]
        self.real = np.flatnonzero(beta != 0.0)
        self.basis, self.gram = basis / s[:, :, None], gram
        self.slow = np.flatnonzero(2.0 * abs(omega) * t_end < 1.0)
        reach, k, term = 2.0 * np.max(r[cluster] * t_end, initial=1.0), 1, float(self.slow.size > 0)
        while term > 1e-17 or (term and k < reach):
            term, k = term * reach / k, k + 1
        psi = np.zeros((self.slow.size, 3, k))
        psi[:, 0, 0], c = 1.0, cubic[self.slow]
        for i in range(1, k):  # (N/r)^i / i! in the basis 1, N/r, (N/r)^2
            psi[:, 1:, i] = psi[:, :2, i - 1]
            psi[:, :, i] = (psi[:, :, i] - psi[:, 2:, i - 1] * c) / i
        g = gram[self.slow]
        self.terms, self.psi, self.cross = k, psi, 2.0 * np.einsum("lj,ljk->lk", g[:, 0, 1:], psi)
        gpsi, self.square = np.einsum("ljm,lmk->ljk", g[:, 1:, 1:], psi), np.zeros((self.slow.size, k))
        for i in range(k):
            self.square[:, i:] += np.einsum("lj,ljk->lk", psi[:, :, i], gpsi[:, :, : k - i])

    def block(self, lo: int, hi: int):
        """States, (modes, 3, hi - lo), and running integral at lo:hi."""
        t, r, a, w, i = self.times[lo:hi], self.r, self.a, self.weights, self.real
        # the order keeps few (modes, samples) temporaries alive at once
        with np.errstate(all="ignore"):
            e1, ew = np.exp(self.z1 * t + self.log_p), np.exp(a * t + self.log_w)
            integral = w[7] * _gamma(ew * ew, self.ww, 2.0 * a, t)
            ch, rsh = ew * np.cos(self.b * t), ew * np.sin(self.b * t)
            del ew
            rsh *= self.r_b
            if i.size:  # a real pair: cosh and sinh from its two exponentials apart
                ep = np.exp((a[i] + self.beta[i]) * t + self.log_w[i])
                em = np.exp((a[i] - self.beta[i]) * t + self.log_w[i])
                ch[i], rsh[i] = 0.5 * (ep + em), 0.5 * (ep - em) * self.r_beta[i]
            g11 = _gamma(e1 * e1, self.pp, 2.0 * self.z1, t)
            integral += w[0] * g11
            g11 = g11[self.slow]
            # P = (G(s + omega) + G(s - omega))/2 and Q = r (G(s + omega) - G(s - omega))/(2 omega),
            # G(s) = (e^{st} - 1)/s, at s = z1 + a and (omega doubled) 2a; a real pair's apart
            p, q = _pq(e1 * ch - self.pw, e1 * rsh, self.over1)
            _near(p, q, self.pw, self.s1, self.b, self.r_b, t)
            if i.size:
                p[i], q[i] = _halves(e1[i] * ep, e1[i] * em, self.pw[i], self.s1[i], self.beta[i], r[i], t)
            integral += w[1] * p + w[2] * q
            square, cross = rsh * rsh, ch * rsh
            p, q = _pq(ch * ch + self.nu_r * square - self.ww, cross, self.over2)
            _near(p, q, self.ww, 2.0 * a, 2.0 * self.b, 0.5 * self.r_b, t)
            if i.size:
                p[i], q[i] = _halves(ep * ep, em * em, self.ww[i], 2.0 * a[i], 2.0 * self.beta[i], r[i], t)
            # int (r sh)^2 = r^2 (P(2a) - G(2a))/(2 omega^2), without that difference: its
            # weights are w[5], w[6] and the part of w[7] beyond G11/2
            integral += w[3] * p + w[4] * q + w[5] * square - w[6] * cross
            del p, q, square, cross
            x = np.empty((len(self.basis), 3, t.size))
            for k, basis in enumerate(self.basis[:, :, :3, None].transpose(1, 2, 0, 3)):
                np.multiply(basis[0], e1, out=x[:, k])
                x[:, k] += basis[1] * ch
                x[:, k] += basis[2] * rsh
            self._series(t, x, integral, g11)
        x[:, :, t == 0.0] = self.x0[..., None]  # keep the initial sample exact
        return x, np.sum(integral, axis=0)

    def _series(self, t, x, integral, g11):
        """The power series in place of the closed form on the slow rows, in chunks;
        elementwise sums only, so that no bit depends on the chunk."""
        slow, sample = np.divmod(np.arange(self.slow.size * t.size), t.size)
        for lo in range(0, slow.size, SERIES_CHUNK):
            i, k = slow[lo : lo + SERIES_CHUNK], sample[lo : lo + SERIES_CHUNK]
            mode, tk = self.slow[i], t[k]
            log_p, log_w, s1, a = (v[mode, 0] for v in (self.log_p, self.log_w, self.s1, self.a))
            rt, pair = self.r[mode, 0] * tk, self.psi[i, :, -1]
            for n in range(self.terms - 2, -1, -1):  # Horner
                pair = pair * rt[:, None] + self.psi[i, :, n]
            pair *= np.exp(a * tk + log_w)[:, None]
            basis = self.basis[mode]
            x[mode, :, k] = (basis[:, :, 0] * np.exp(self.z1[mode, 0] * tk + log_p)[:, None] + basis[:, :, 1] * pair[:, :1]
                             + basis[:, :, 2] * pair[:, 1:2] + basis[:, :, 3] * pair[:, 2:])
            near, own = _moments(s1 * tk, self.terms, log_p + log_w), _moments(2.0 * a * tk, self.terms, 2.0 * log_w)
            total, power = np.zeros(tk.size), np.ones(tk.size)
            for n in range(self.terms):
                total += power * (self.cross[i, n] * near[:, n] + self.square[i, n] * own[:, n])
                power *= rt
            integral[mode, k] = self.gram[mode, 0, 0] * g11[i, k] + tk * total


def _pq(c, rs, over):
    """P and Q at one node from c = norm (e^{st} ch - 1) and rs = norm r e^{st} sh."""
    s, n, r, _ = over
    return s * c - n * rs, s * rs - r * c


def _over(s, nu, r):
    """s, nu / r, r and r^2, each over s^2 - nu, with no overflow on the way."""
    m = np.maximum(abs(s), np.sqrt(abs(nu)))
    den = s * (s / m) - nu / m  # (s^2 - nu)/m
    return s / m / den, nu / m / r / den, r / m / den, r / m * r / den


def _null_vector(b: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Unit vectors orthogonal to the rows of each rank-2 3x3 matrix b: the largest cross
    product of two rows, each over `size`, the scale of its rounding."""
    rows = b / np.where(size > 0.0, size, 1.0)[..., None]
    first, second = rows[:, [1, 2, 0]], rows[:, [2, 0, 1]]
    cross = first[..., [1, 2, 0]] * second[..., [2, 0, 1]] - first[..., [2, 0, 1]] * second[..., [1, 2, 0]]
    best = cross[np.arange(len(b)), np.argmax(np.linalg.norm(cross, axis=2), axis=1)]
    best /= np.max(abs(best), axis=1, keepdims=True)  # no square underflows
    return best / np.linalg.norm(best, axis=1, keepdims=True)


def _window(size, t):
    """The (mode, sample) indices of a block where size t < EXPM1_LIMIT.
    The block's times t increase, so when the least size reaches the limit
    at its first sample, no sample is in the window and nothing is scanned;
    a nan size or an empty stack is scanned."""
    if size.size and np.min(size) * t[0] >= EXPM1_LIMIT:
        return (), ()
    return np.nonzero(size * t < EXPM1_LIMIT)


def _near(p, q, norm, s, b, scale, t):
    """P, Q = Re, scale Im of norm G(s + ib), in place where |s + ib| t < EXPM1_LIMIT."""
    i, k = _window(np.hypot(s, b), t)
    if len(i):
        g = norm[i, 0] * t[k] * _phi1((s[i, 0] + 1j * b[i, 0]) * t[k])
        p[i, k], q[i, k] = g.real, g.imag * scale[i, 0]


def _halves(plus, minus, norm, s, beta, r, t):
    """P, Q = (G+ + G-)/2, r (G+ - G-)/(2 beta) of G+- = norm G(s +- beta), G(s) =
    (e^{st} - 1)/s, from plus and minus = norm e^{(s +- beta) t}."""
    g_plus, g_minus = _gamma(plus, norm, s + beta, t), _gamma(minus, norm, s - beta, t)
    return 0.5 * (g_plus + g_minus), (g_plus - g_minus) * (0.5 * r / beta)


def _gamma(num, norm, s, t):
    """norm (e^{st} - 1)/s in place of num = norm e^{st}, from expm1 where |s t| < EXPM1_LIMIT."""
    num -= norm
    num /= s
    i, k = _window(abs(s), t)
    if len(i):
        num[i, k] = norm[i, 0] * t[k] * _phi1(s[i, 0] * t[k])
    return num


def _phi1(u):
    """expm1(u)/u elementwise, 1 at u = 0."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(u == 0.0, 1.0, np.expm1(u) / u)


def _moments(u, terms, log_scale):
    """e^log_scale int_0^1 s^k e^{us} ds for k < terms, by k mu_{k-1} = e^u - u mu_k:
    forward where |u| >= k, else backward from where the start's error has died out."""
    eu, size = np.exp(u + log_scale), min(np.max(abs(u), initial=0.0), terms)
    mu = np.empty(u.shape + (terms,))
    mu[:, 0] = value = np.exp(log_scale) * _phi1(u)
    for k in range(1, min(terms, int(size) + 1)):
        mu[:, k] = value = (eu - k * value) / u
    top, damp = terms, 1.0
    while damp > 1e-17:
        top, damp = top + 1, damp * size / (top + 1)
    value = eu / (top + 1 + u)
    for k in range(top, 1, -1):
        value = (eu - u * value) / k  # mu_{k-1}
        if k <= terms:
            mu[:, k - 1] = np.where(abs(u) < k - 1, value, mu[:, k - 1])
    return mu


class Evolution:
    """The exact trajectory from the initial data x0[mode, (u, v, theta)]
    over the modes `lams` at `times`, evaluated one time block at a time,
    with the running integral int_0^t sum_n x_n^T q_n x_n ds.

    `times` must start at 0 and increase strictly.  q holds the real
    symmetric (3, 3) weights of the live modes (`live_modes(x0)`, in that
    order); by default D's, q_n[2, 2] = w_n.  Per-mode evolution is
    independent (data-parallel by contract), and only the live modes are
    evolved.  Each pass over `blocks` runs the kernel's per-mode setup once.
    Overflow, of the states or of their energy, raises NonFiniteResult
    tagged with the first offending time.
    """

    def __init__(
        self,
        params: ModelParams,
        lams: np.ndarray,
        x0: np.ndarray,
        times: Sequence[float],
        direction: Direction = Direction.FORWARD,
        q: np.ndarray | None = None,
    ):
        times = np.array(times, dtype=float)
        if times.size and times[0] != 0.0:
            raise ValueError("times must start at 0")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must increase strictly")
        self.params, self.direction, self.t = params, direction, times
        # the live modes: their eigenvalues and initial data
        self.live = live_modes(x0)
        self.lams, self.x0 = lams[self.live], x0[self.live]
        if q is None:
            q = np.zeros((self.live.size, 3, 3))
            q[:, 2, 2] = params.heat_weight(self.lams)  # D_n = w_n theta_n^2
        self.q = q
        self.time_blocks = time_blocks(self.live.size, times.size)

    def blocks(self) -> Iterator[tuple[int, np.ndarray, tuple[np.ndarray, ...], np.ndarray]]:
        """(lo, states, energy columns, integral) of samples lo:hi, in time
        order: the live modes' states, (live, 3, hi - lo); kinetic, bending,
        thermal, total and D; and the running integral of q.  The loop drops
        each block before it evaluates the next, so a caller that drops it
        too holds one block at a time, and none while the kernel's
        temporaries of the next are alive."""
        params, lams, t = self.params, self.lams, self.t
        kernel = _ModeKernel(params, lams, self.direction, self.x0, t, self.q)
        for lo, hi in self.time_blocks:
            x, integral = kernel.block(lo, hi)
            with np.errstate(over="ignore", invalid="ignore"):
                columns = _energy_columns(params, lams, x)
                # kinetic + |bending| + thermal + D
                finite = np.isfinite(columns[0] + np.abs(columns[1]) + columns[2] + columns[4])
            if not np.all(finite):
                t_bad = float(t[lo + int(np.argmin(finite))])
                raise NonFiniteResult(f"evolution overflowed at t={t_bad}", time=t_bad)
            yield lo, x, columns, integral
            del x, integral, columns

    def history(self, hook: Callable[[int, np.ndarray], None] | None = None) -> EnergyHistory:
        """The energy columns on the whole grid, the running integral of q
        as `dissipation_integral`; `hook(lo, states)` sees each block's
        states as `blocks` yields them."""
        columns = {name: np.empty(self.t.size) for name in _COLUMNS}
        for lo, x, block, integral in self.blocks():
            for column, values in zip(columns.values(), (*block, integral)):
                column[lo : lo + values.size] = values
            if hook is not None:
                hook(lo, x)
            del x, block, integral, values  # no block outlives its turn
        return EnergyHistory(self.t, **columns)


class EnergyBalanceReport:
    """Residuals of the integrated energy identity along a trajectory.

    residuals[k] = (E(t_k) + s * int_0^{t_k} D ds - E(0)) / denominator
    with s = +1 forward, -1 backward, and denominator max(|E(0)|, floor);
    max_abs_error is the largest numerator, for other normalizations
    (`error_scale`).
    """

    __slots__ = ("e0", "denominator", "residuals", "max_abs_residual", "max_abs_error")

    def __init__(
        self, e0: float, denominator: float, residuals: np.ndarray,
        max_abs_residual: float, max_abs_error: float,
    ):
        self.e0, self.denominator, self.residuals = e0, denominator, residuals
        self.max_abs_residual, self.max_abs_error = max_abs_residual, max_abs_error

    def error_scale(self, norm_max: float) -> float:
        """Scale of the identity's residual: E(t) sums terms as large as
        the energy norm kinetic + |bending| + thermal, whose largest value
        over the grid is `norm_max`, and which for c < 0 can grow by
        hundreds of orders of magnitude while E stays near E(0)."""
        return max(self.denominator, norm_max)


def energy_balance_report(
    history: EnergyHistory,
    direction: Direction = Direction.FORWARD,
) -> EnergyBalanceReport:
    if history.t.size < 2:
        raise InsufficientSamples("energy balance needs at least 2 samples")
    e, integral = history.total, history.dissipation_integral
    sign = 1.0 if direction is Direction.FORWARD else -1.0
    e0 = e[0]
    denom = max(abs(e0), ENERGY_FLOOR)
    errors = e + sign * integral - e0
    with np.errstate(over="ignore"):  # E(t) may outgrow a tiny E(0)
        residuals = errors / denom
    return EnergyBalanceReport(
        e0=float(e0),
        denominator=float(denom),
        residuals=residuals,
        max_abs_residual=float(np.max(np.abs(residuals))),
        max_abs_error=float(np.max(np.abs(errors))),
    )
