"""Exact per-mode evolution and energy bookkeeping.

The truncated generator is block-diagonal over modes, so trajectories are
computed from 3x3 matrix exponentials with no time-discretization error.
One kernel, `_ModeTrajectory`, serves `evolve` and the convexity
functional; it evolves a stack of modes at once, and runs its per-mode
setup once and then one time block after another.  Each block is
exponentiated through its eigendecomposition.  Blocks whose eigenvector
matrix, rows equilibrated, has a condition number above 1e3 (nearly
defective blocks, at isolated parameter/eigenvalue coincidences) fall back
to Pade exponentials of Van Loan's block matrix applied stepwise
(`scipy.linalg.expm`, imported only on that path).

The kernel also returns the exact running integral int_0^t x^H Q x ds of
a per-mode quadratic form Q: from the eigen-coefficients in closed form,
or from Van Loan's block on the fallback path.  Time integrals are never
taken by quadrature of the samples.

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
sums, only the live modes (`live_modes`).  An `Evolution` yields its
trajectory in time blocks of about BLOCK_MODE_SAMPLES live mode-samples,
each the columns of E (kinetic, bending, thermal, total) and D, and
int_0^t D ds from the kernel, of its own samples; the states of the live
modes go into a caller's (modes, 3, samples) array when one is given.
`evolve` holds them all in one `Trajectory`; a run that needs only the
columns keeps them (`EnergyHistory`), and its memory grows by a few
numbers per sample.  Neither the blocks nor the modes at rest change a
bit of the output.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from .errors import InsufficientSamples, NonFiniteResult
from .model import Direction, Modes, ModelParams, SpectralDomain, enumerate_modes, mode_blocks

# the eigenvector route is taken below this condition number of the
# row-equilibrated eigenvector matrix; its closed-form integrals lose about
# eps * cond^2 of their scale
EIGVEC_COND_LIMIT = 1e3
# below |s t| = EXPM1_LIMIT a closed-form integral takes (e^{st} - 1)/s
# from expm1, where the difference of exponentials would cancel
EXPM1_LIMIT = 0.5
# mode-samples of the whole grid per kernel group: bounds the kernel's
# temporaries
CHUNK_SAMPLES = 2**13
# live mode-samples per time block: a time-domain run holds the states of
# one block, and 1-D columns of the whole grid
BLOCK_MODE_SAMPLES = 2**16
# samples per time block at most: a block's energy columns and the
# kernel's per-sample terms do not shrink with the live mode count
BLOCK_SAMPLES_MAX = 2**14
# block starts are multiples of this many samples (see `time_blocks`)
_BLOCK_ALIGN = 64
ENERGY_FLOOR = 1e-300


class SpectralState:
    """Truncated field on one domain: x[mode, (u, v, theta)] over `modes`.

    x is float, or complex when some imaginary part is nonzero, so
    resolvent solutions can be propagated too.
    """

    __slots__ = ("domain", "modes", "x")

    def __init__(self, domain: SpectralDomain, modes: Modes, x: np.ndarray):
        x = np.array(x)
        if x.shape != (len(modes), 3):
            raise ValueError(f"x must have shape ({len(modes)}, 3), got {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("state coefficients must be finite")
        if np.iscomplexobj(x) and not np.any(x.imag):
            x = x.real
        x = x.astype(complex if np.iscomplexobj(x) else float)
        x.flags.writeable = False
        self.domain, self.modes, self.x = domain, modes, x


def state_from_coefficients(
    domain: SpectralDomain,
    count: int,
    u: Sequence[float] = (),
    v: Sequence[float] = (),
    theta: Sequence[float] = (),
) -> SpectralState:
    """Build a state over the first `count` modes from coefficient lists.

    Lists shorter than `count` are zero-padded; entries beyond `count`
    are ignored.
    """
    columns = [np.asarray(seq)[:count] for seq in (u, v, theta)]
    x = np.zeros((count, 3), dtype=np.result_type(float, *columns))
    for i, column in enumerate(columns):
        x[: column.size, i] = column
    return SpectralState(domain, enumerate_modes(domain, count), x)


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
        if np.iscomplexobj(rows):
            rows = np.abs(rows)
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


def energy_of(params: ModelParams, state: SpectralState) -> EnergyBreakdown:
    """E and D of one state, summed over its live modes as a trajectory's
    energy columns are: E is their first entry to the bit."""
    live = live_modes(state.x)
    columns = _energy_columns(params, state.modes.lam[live], state.x[live, :, None])
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


class Trajectory(EnergyHistory):
    """Exact trajectory on a time grid, held as arrays: the energy columns
    and x, shape (modes, 3, samples) with rows u, v, theta, over the initial
    state's modes."""

    __slots__ = ("domain", "modes", "x")

    def __init__(
        self, t: np.ndarray, kinetic: np.ndarray, bending: np.ndarray,
        thermal: np.ndarray, total: np.ndarray, dissipation: np.ndarray,
        dissipation_integral: np.ndarray, domain: SpectralDomain, modes: Modes,
        x: np.ndarray,
    ):
        super().__init__(t, kinetic, bending, thermal, total, dissipation, dissipation_integral)
        self.domain, self.modes, self.x = domain, modes, x


def time_blocks(modes: int, samples: int) -> list[tuple[int, int]]:
    """The (lo, hi) sample ranges of the time blocks of a grid.

    A block holds about BLOCK_MODE_SAMPLES mode-samples of `modes` live
    modes: a power of two of samples, at least _BLOCK_ALIGN and at most
    BLOCK_SAMPLES_MAX, or the whole grid when that is shorter (so a grid
    with no live mode is one block up to that size).  BLAS takes the
    sample axis of a matmul in groups of a few columns and finishes a
    ragged tail, or a single column, in other kernels.  Blocks that start at multiples of
    _BLOCK_ALIGN, with a one-sample tail joined to the block before it,
    keep each sample in the place it has in one whole-grid call, so its
    bits do not depend on the blocking.
    """
    per = _BLOCK_ALIGN
    while per < min(samples, BLOCK_SAMPLES_MAX) and 2 * per * modes <= BLOCK_MODE_SAMPLES:
        per *= 2
    starts = list(range(0, samples, per))
    if len(starts) > 1 and samples - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [samples]))


class _ModeTrajectory:
    """States of a stack of modes on a time grid, shape (modes, n, samples),
    and the running integral int_0^t sum_modes x^H q x ds, one block of
    samples at a time.

    The one per-mode exponential kernel: m holds the (modes, n, n) blocks,
    x0 the (modes, n) initial states and q the real symmetric (modes, n, n)
    weights.  The per-mode setup runs once, against the whole grid, and
    `block` evaluates samples lo:hi; blocks come in order from sample 0,
    since the fallback carries its state from one to the next.  The modes
    go through in groups of about CHUNK_SAMPLES mode-samples of the whole
    grid.  A mode at rest stays exactly at rest, but costs as much as any
    other: callers pass the live modes only (`live_modes`).  Overflow is
    not raised here: it leaves non-finite entries for the caller to report
    as NonFiniteResult.
    """

    def __init__(self, m, x0, times, q):
        self.x0, self.times, self.groups = x0, times, []
        step = max(1, CHUNK_SAMPLES // max(times.size, 1))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for lo in range(0, len(x0), step):
                chunk = np.arange(lo, min(lo + step, len(x0)))
                z, vecs = np.linalg.eig(m[chunk])
                # rows equilibrated first: u, v and theta differ in scale by
                # powers of lam, which costs no accuracy; near-coincident roots do
                rows = vecs / np.linalg.norm(vecs, axis=-1, keepdims=True)
                good = np.linalg.cond(rows) <= EIGVEC_COND_LIMIT
                k = chunk[good]
                eig = _EigenModes(z[good], vecs[good], x0[k], times, q[k])
                stepwise = [(j, _StepwiseMode(m[j], x0[j], q[j])) for j in chunk[~good]]
                self.groups.append((k, eig, stepwise))

    def block(self, lo: int, hi: int, out: np.ndarray | None = None):
        """States and running integral at samples lo:hi; the states go into
        `out`, shape (modes, n, hi - lo), when it is given."""
        t = self.times[lo:hi]
        if out is None:
            out = np.empty(self.x0.shape + t.shape, dtype=self.x0.dtype)
        integral = np.zeros(t.size)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for modes, eig, stepwise in self.groups:
                out[modes] = eig.block(lo, hi, integral)
                for j, mode in stepwise:
                    out[j] = mode.advance(t, integral)
        return out, integral


class _EigenModes:
    """Eigenvector branch of `_ModeTrajectory`; `block` adds into `integral`.

    With x(t) = V term(t), term = coeff e^{z t}, g = V^H q V and
    s_ij = conj(z_i) + z_j, the integral of each mode is
    sum_ij g_ij conj(coeff_i) coeff_j (e^{s_ij t} - 1)/s_ij, and
    conj(coeff_i) coeff_j e^{s_ij t} = conj(term_i) term_j reuses the
    exponentials of the states.  That difference cancels while
    |s_ij t| < EXPM1_LIMIT, so there the entry is taken from expm1
    instead; which entries and samples those are is settled on the whole
    grid.
    """

    def __init__(self, z, vecs, x0, times, q):
        self.z, self.vecs, self.x0, self.times = z, vecs, x0, times
        self.coeff = coeff = np.linalg.solve(vecs, x0.astype(complex)[..., None])[..., 0]
        g = vecs.conj().swapaxes(-1, -2) @ q @ vecs
        s = z.conj()[..., :, None] + z[..., None, :]
        start = coeff.conj()[..., :, None] * coeff[..., None, :]
        reach = EXPM1_LIMIT / np.abs(s)  # |s t| < EXPM1_LIMIT while t < reach
        near = np.searchsorted(times, reach)  # leading samples within reach
        whole = near == times.size  # entries that never leave their reach
        self.h = h = np.where(whole, 0.0, g / s)
        self.h_start = np.sum(coeff.conj() * (h @ coeff[..., None])[..., 0]).real

        # g is Hermitian: entry (i, j) of the upper triangle stands for (j, i) too
        twice = 2.0 - np.eye(z.shape[-1])
        weight = g * start * twice
        # entries that never leave their reach: from expm1 on every sample
        mode, i, j = np.nonzero(np.triu(whole))
        w, rate = weight[mode, i, j, None], s[mode, i, j, None]
        real = rate[:, 0].imag == 0.0  # real expm1 is far cheaper than complex
        self.growth = (w[real].real, rate[real].real), (w[~real], rate[~real])
        # the others: from expm1 on the samples within reach, in place of
        # their part in h (which adds nothing at t = 0)
        self.first = np.searchsorted(times, 0.0, side="right")
        mode, i, j = np.nonzero(np.triu(~whole & (near > self.first)))
        self.near = (mode, i, j, near[mode, i, j], weight[mode, i, j], s[mode, i, j],
                     twice[i, j] * h[mode, i, j], start[mode, i, j])

    def block(self, lo, hi, integral) -> np.ndarray:
        t = self.times[lo:hi]
        term = np.exp(self.z[..., None] * t) * self.coeff[..., None]
        term[self.coeff == 0.0] = 0.0  # inf * 0 must stay exactly zero
        out = self.vecs @ term
        if t[0] == 0.0:
            out[..., 0] = self.x0  # keep the initial sample exact
        if np.isrealobj(self.x0):
            out = out.real

        y = self.h @ term  # Re(conj(term) y) is the sum below, over modes and i
        integral += np.einsum("mit,mit->t", term.real, y.real)
        integral += np.einsum("mit,mit->t", term.imag, y.imag)
        integral -= self.h_start
        (w, rate), (cw, crate) = self.growth
        integral += np.sum(w * _growth(rate, t), axis=0)
        integral += np.sum(cw * _growth(crate, t), axis=0).real

        # near entries, on their samples within reach that fall in lo:hi
        mode, i, j, stop, weight, s, scale, start = self.near
        begin = max(self.first, lo)
        counts = np.maximum(np.minimum(stop, hi) - begin, 0)
        entry = np.repeat(np.arange(mode.size), counts)
        sample = begin + np.arange(entry.size) - np.repeat(np.cumsum(counts) - counts, counts)
        col = sample - lo
        mode, i, j = mode[entry], i[entry], j[entry]
        exact = weight[entry] * _growth(s[entry], self.times[sample])
        direct = scale[entry] * (term[mode, i, col].conj() * term[mode, j, col] - start[entry])
        integral += np.bincount(col, (exact - direct).real, minlength=t.size)
        return out


def _growth(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """int_0^t e^{s r} dr = (e^{s t} - 1)/s elementwise, from expm1."""
    st = s * t
    return np.where(st == 0.0, t, np.expm1(st) / s)


class _StepwiseMode:
    """Fallback branch of `_ModeTrajectory` for one mode; `advance` adds
    into `integral`.

    Stepwise Pade exponentials of Van Loan's block [[-M^H, q], [0, M]] dt,
    whose blocks give exp(M dt) and int_0^dt exp(M^H s) q exp(M s) ds
    (Van Loan 1978); one expm per distinct step, imported only here.  The
    state and its running integral carry from one block to the next.
    """

    def __init__(self, m, x0, q):
        self.block = np.block([[-m.T, q], [np.zeros_like(m), m]])
        self.real, self.x = np.isrealobj(x0), x0.astype(complex)
        self.propagators: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        self.running = self.prev = 0.0

    def advance(self, times, integral) -> np.ndarray:
        import scipy.linalg

        n = self.x.size
        out = np.empty((n, times.size), dtype=complex)
        for k, t in enumerate(times):
            dt = t - self.prev
            if dt != 0.0:
                if dt not in self.propagators:
                    e = scipy.linalg.expm(self.block * dt)
                    self.propagators[dt] = (e[n:, n:], e[n:, n:].T @ e[:n, n:])
                step, gram = self.propagators[dt]
                self.running += (self.x.conj() @ gram @ self.x).real
                self.x = step @ self.x
            out[:, k] = self.x
            integral[k] += self.running
            self.prev = t
        return out.real if self.real else out


def _checked_times(times: Sequence[float]) -> np.ndarray:
    """`times` as a float array; they must start at 0 and increase strictly."""
    times = np.array(times, dtype=float)
    if times.size and times[0] != 0.0:
        raise ValueError("times must start at 0")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must increase strictly")
    return times


def _checked_block(params, lams, times, kernel, lo, hi, out=None):
    """States, energy columns and running integral of `kernel` at samples
    lo:hi; `lams` are the eigenvalues of its modes.  Overflow, of the
    states or of their energy, raises NonFiniteResult tagged with the first
    offending time."""
    x, integral = kernel.block(lo, hi, out)
    with np.errstate(over="ignore", invalid="ignore"):
        columns = _energy_columns(params, lams, x)
        kinetic, bending, thermal, _, dissipation = columns
        finite = np.isfinite(kinetic + np.abs(bending) + thermal + dissipation)
    if not np.all(finite):
        t_bad = float(times[lo + int(np.argmin(finite))])
        raise NonFiniteResult(f"evolution overflowed at t={t_bad}", time=t_bad)
    return x, columns, integral


class Evolution:
    """The exact trajectory of `initial` at `times`, evaluated one time
    block at a time.

    `times` must start at 0 and increase strictly.  Per-mode evolution is
    independent (data-parallel by contract), and only the live modes are
    evolved.  Each pass over `blocks` runs the kernel's per-mode setup
    once; a block holds the states of its own samples, their energy
    columns, and int_0^t D ds from the kernel in closed form.  Overflow,
    of the states or of their energy, raises NonFiniteResult tagged with
    the first offending time.
    """

    def __init__(
        self,
        params: ModelParams,
        initial: SpectralState,
        times: Sequence[float],
        direction: Direction = Direction.FORWARD,
    ):
        self.params, self.initial, self.direction = params, initial, direction
        self.t = times = _checked_times(times)
        self.modes, self.live = initial.modes, live_modes(initial.x)
        self.time_blocks = time_blocks(self.live.size, times.size)

    def blocks(self, into: np.ndarray | None = None) -> Iterator[tuple[int, EnergyHistory]]:
        """(lo, energy columns of samples lo:hi) in time order; given `into`,
        zeros of shape (modes, 3, samples), the states of the live modes go
        into its slices."""
        params, live = self.params, self.live
        lams = self.modes.lam[live]
        q = np.zeros((live.size, 3, 3))
        q[:, 2, 2] = params.heat_weight(lams)  # D_n = w_n theta_n^2
        blocks = mode_blocks(params, lams, self.direction)
        kernel = _ModeTrajectory(blocks, self.initial.x[live], self.t, q)
        for lo, hi in self.time_blocks:
            yield lo, self._block(kernel, lams, lo, hi, into)

    def _block(self, kernel, lams, lo, hi, into) -> EnergyHistory:
        # a function of its own, so that no state outlives its block
        x, columns, integral = _checked_block(self.params, lams, self.t, kernel, lo, hi)
        if into is not None:
            into[self.live, :, lo:hi] = x
        return EnergyHistory(self.t[lo:hi], *columns, integral)

    def trajectory(self, states: bool = True) -> Trajectory | EnergyHistory:
        """The whole trajectory; with states=False only its energy columns,
        and no state outlives its block."""
        shape = self.initial.x.shape + self.t.shape
        x = np.zeros(shape, self.initial.x.dtype) if states else None
        columns = {name: np.empty(self.t.size) for name in _COLUMNS}

        def store(item: tuple[int, EnergyHistory]) -> None:
            lo, block = item
            for name, column in columns.items():
                column[lo : lo + block.t.size] = getattr(block, name)

        for _ in map(store, self.blocks(x)):  # no block outlives its turn
            pass
        if not states:
            return EnergyHistory(self.t, **columns)
        return Trajectory(self.t, **columns, domain=self.initial.domain, modes=self.modes, x=x)


def evolve(
    params: ModelParams,
    initial: SpectralState,
    times: Sequence[float],
    direction: Direction = Direction.FORWARD,
) -> Trajectory:
    """Exact trajectory of the truncated system at the requested times,
    held whole (see `Evolution`)."""
    return Evolution(params, initial, times, direction).trajectory()


class EnergyBalanceReport:
    """Residuals of the integrated energy identity along a trajectory.

    residuals[k] = (E(t_k) + s * int_0^{t_k} D ds - E(0)) / denominator
    with s = +1 forward, -1 backward, and denominator max(|E(0)|, floor);
    max_abs_error is the largest numerator, for other normalizations.
    """

    __slots__ = (
        "direction", "e0", "denominator", "residuals", "max_abs_residual", "max_abs_error",
    )

    def __init__(
        self, direction: Direction, e0: float, denominator: float,
        residuals: np.ndarray, max_abs_residual: float, max_abs_error: float,
    ):
        self.direction, self.e0, self.denominator = direction, e0, denominator
        self.residuals, self.max_abs_residual = residuals, max_abs_residual
        self.max_abs_error = max_abs_error


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
        direction=direction,
        e0=float(e0),
        denominator=float(denom),
        residuals=residuals,
        max_abs_residual=float(np.max(np.abs(residuals))),
        max_abs_error=float(np.max(np.abs(errors))),
    )
