"""Exact per-mode evolution, energy bookkeeping, and field synthesis.

The truncated generator is block-diagonal over modes, so trajectories are
computed from 3x3 matrix exponentials with no time-discretization error.
One kernel, `_mode_trajectory`, serves `evolve`, `evolve_mode` and the
convexity functional; it evolves a stack of modes at once.  Each block is
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

`evolve` returns a `Trajectory` of arrays: the coefficients
x[mode, (u, v, theta), sample], the columns of E (kinetic, bending,
thermal, total) and D, one value per sample, and int_0^t D ds from the
kernel.  Indexing it builds a `TrajectorySample` view of that one sample
on demand.
"""

from __future__ import annotations

import cmath
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSamples, NonFiniteResult, PointOutsideDomain
from .model import (
    Direction,
    Interval,
    Mode,
    ModeMatrix,
    ModelParams,
    SpectralDomain,
    enumerate_modes,
    mode_blocks,
)

# the eigenvector route is taken below this condition number of the
# row-equilibrated eigenvector matrix; its closed-form integrals lose about
# eps * cond^2 of their scale
EIGVEC_COND_LIMIT = 1e3
# below |s t| = EXPM1_LIMIT a closed-form integral takes (e^{st} - 1)/s
# from expm1, where the difference of exponentials would cancel
EXPM1_LIMIT = 0.5
# mode-samples per kernel call: bounds the kernel's temporaries
CHUNK_SAMPLES = 2**13
ENERGY_FLOOR = 1e-300


@dataclass(frozen=True)
class ModeState:
    """Coefficients (u, v, theta) of one mode; complex values are allowed
    so resolvent solutions can be propagated too."""

    u: complex
    v: complex
    theta: complex

    def __post_init__(self):
        if not (
            cmath.isfinite(self.u)
            and cmath.isfinite(self.v)
            and cmath.isfinite(self.theta)
        ):
            raise ValueError("mode state coefficients must be finite")

    def as_array(self) -> np.ndarray:
        values = np.array([self.u, self.v, self.theta])
        if np.isrealobj(values) or not np.any(values.imag):
            return values.real.astype(float)
        return values

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.as_array())


@dataclass(frozen=True)
class SpectralState:
    """Truncated field: ordered (Mode, ModeState) pairs on one domain."""

    domain: SpectralDomain
    modes: tuple[tuple[Mode, ModeState], ...]

    def __post_init__(self):
        seen = set()
        prev = None
        for mode, _ in self.modes:
            if mode.index in seen:
                raise ValueError(f"duplicate mode index {mode.index}")
            seen.add(mode.index)
            key = (mode.lam, _index_key(mode.index))
            if prev is not None and key < prev:
                raise ValueError("modes must be sorted ascending in (lam, index)")
            prev = key

    @classmethod
    def _trusted(cls, domain, modes) -> "SpectralState":
        # internal fast path for states built in enumeration order
        state = object.__new__(cls)
        object.__setattr__(state, "domain", domain)
        object.__setattr__(state, "modes", modes)
        return state

    def coefficient_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(lams, X) with X of shape (3, n_modes) holding u, v, theta rows."""
        lams = np.array([mode.lam for mode, _ in self.modes])
        cols = [state.as_array() for _, state in self.modes]
        x = np.array(cols).T if cols else np.zeros((3, 0))
        return lams, x


def _index_key(index) -> tuple:
    return (index,) if isinstance(index, int) else tuple(index)


def state_from_coefficients(
    domain: SpectralDomain,
    count: int,
    u: Sequence[float] = (),
    v: Sequence[float] = (),
    theta: Sequence[float] = (),
) -> SpectralState:
    """Build a state over the first `count` modes from coefficient lists.

    Lists shorter than `count` are zero-padded.
    """
    modes = enumerate_modes(domain, count)

    def pick(seq, i):
        return seq[i] if i < len(seq) else 0.0

    pairs = tuple(
        (mode, ModeState(pick(u, i), pick(v, i), pick(theta, i)))
        for i, mode in enumerate(modes)
    )
    return SpectralState(domain, pairs)


@dataclass(frozen=True)
class EnergyBreakdown:
    """E(t) split into kinetic / bending / thermal parts plus D(t)."""

    kinetic: float
    bending: float
    thermal: float
    total: float
    dissipation_rate: float


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
    lams, x = state.coefficient_arrays()
    columns = _energy_columns(params, lams, x.T[:, :, None])
    return EnergyBreakdown(*(float(col[0]) for col in columns))


@dataclass(frozen=True)
class TrajectorySample:
    t: float
    state: SpectralState
    energy: EnergyBreakdown


class SampleArrays(Sequence):
    """Read-only sequence over per-sample arrays (`t` and others).

    Items are built by `_sample(k)` only when indexed; slices give lists.
    """

    __slots__ = ()

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self._sample(i) for i in range(len(self))[k]]
        return self._sample(range(len(self))[k])


@dataclass(frozen=True, eq=False)
class Trajectory(SampleArrays):
    """Exact trajectory on a time grid, held as arrays.

    x has shape (modes, 3, samples) with rows u, v, theta; lams and modes
    follow the initial state's order.  The energy columns (see the module
    docstring) and dissipation_integral, int_0^t D ds, have one entry per
    sample.
    """

    domain: SpectralDomain
    modes: tuple[Mode, ...]
    t: np.ndarray
    lams: np.ndarray
    x: np.ndarray
    kinetic: np.ndarray
    bending: np.ndarray
    thermal: np.ndarray
    total: np.ndarray
    dissipation: np.ndarray
    dissipation_integral: np.ndarray

    def _sample(self, k: int) -> TrajectorySample:
        pairs = tuple(
            (mode, ModeState(*self.x[i, :, k])) for i, mode in enumerate(self.modes)
        )
        columns = (self.kinetic, self.bending, self.thermal, self.total, self.dissipation)
        energy = EnergyBreakdown(*(float(col[k]) for col in columns))
        return TrajectorySample(
            float(self.t[k]), SpectralState._trusted(self.domain, pairs), energy
        )


def evolve_mode(matrix: ModeMatrix, state: ModeState, dt: float) -> ModeState:
    """exp(dt*M) applied to one mode state.

    Negative dt is accepted but time-reversed studies should prefer the
    Backward-direction matrix with positive dt, which matches the
    time-reversed system directly.
    """
    if not np.isfinite(dt):
        raise ValueError("dt must be finite")
    x0 = state.as_array()[None]
    x, _ = _mode_trajectory(matrix.entries[None], x0, np.array([dt]), np.zeros((1, 3, 3)))
    if not np.all(np.isfinite(x)):
        raise NonFiniteResult("mode evolution overflowed", time=dt)
    return ModeState(*x[0, :, 0])


def _mode_trajectory(
    m: np.ndarray, x0: np.ndarray, times: np.ndarray, q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """States of a stack of modes at all times, shape (modes, n, len(times)),
    and the running integral int_0^t sum_modes x^H q x ds, shape (len(times),).

    The one per-mode exponential kernel: m holds the (modes, n, n) blocks,
    x0 the (modes, n) initial states and q the real symmetric (modes, n, n)
    weights.  Modes at rest stay exactly at rest; the others go through in
    stacks of about CHUNK_SAMPLES mode-samples.  Overflow is not raised
    here: it leaves non-finite entries for the caller to report as
    NonFiniteResult.
    """
    out = np.zeros(x0.shape + times.shape, dtype=x0.dtype)
    integral = np.zeros(times.size)
    live = np.flatnonzero(np.any(x0 != 0.0, axis=1))
    step = max(1, CHUNK_SAMPLES // max(times.size, 1))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for chunk in (live[lo : lo + step] for lo in range(0, live.size, step)):
            z, vecs = np.linalg.eig(m[chunk])
            # rows equilibrated first: u, v and theta differ in scale by
            # powers of lam, which costs no accuracy; near-coincident roots do
            rows = vecs / np.linalg.norm(vecs, axis=-1, keepdims=True)
            good = np.linalg.cond(rows) <= EIGVEC_COND_LIMIT
            out[chunk[good]] = _eig_trajectories(
                z[good], vecs[good], x0[chunk[good]], times, q[chunk[good]], integral
            )
            for k in chunk[~good]:
                out[k] = _stepwise_trajectory(m[k], x0[k], times, q[k], integral)
    return out, integral


def _eig_trajectories(z, vecs, x0, times, q, integral) -> np.ndarray:
    """Eigenvector branch of `_mode_trajectory`; adds into `integral`.

    With x(t) = V term(t), term = coeff e^{z t}, g = V^H q V and
    s_ij = conj(z_i) + z_j, the integral of each mode is
    sum_ij g_ij conj(coeff_i) coeff_j (e^{s_ij t} - 1)/s_ij, and
    conj(coeff_i) coeff_j e^{s_ij t} = conj(term_i) term_j reuses the
    exponentials of the states.  That difference cancels while
    |s_ij t| < EXPM1_LIMIT, so there the entry is taken from expm1
    instead.
    """
    coeff = np.linalg.solve(vecs, x0.astype(complex)[..., None])[..., 0]
    term = np.exp(z[..., None] * times) * coeff[..., None]
    term[coeff == 0.0] = 0.0  # inf * 0 must stay exactly zero
    out = vecs @ term
    if times.size and times[0] == 0.0:
        out[..., 0] = x0  # keep the initial sample exact
    if np.isrealobj(x0):
        out = out.real
    if not times.size:
        return out

    g = vecs.conj().swapaxes(-1, -2) @ q @ vecs
    s = z.conj()[..., :, None] + z[..., None, :]
    start = coeff.conj()[..., :, None] * coeff[..., None, :]
    reach = EXPM1_LIMIT / np.abs(s)  # |s t| < EXPM1_LIMIT while t < reach
    near = np.searchsorted(times, reach)  # leading samples within reach
    whole = near == times.size  # entries that never leave their reach
    h = np.where(whole, 0.0, g / s)
    y = h @ term  # Re(conj(term) y) is the sum below, over modes and i
    integral += np.einsum("mit,mit->t", term.real, y.real)
    integral += np.einsum("mit,mit->t", term.imag, y.imag)
    integral -= np.sum(coeff.conj() * (h @ coeff[..., None])[..., 0]).real

    # g is Hermitian: entry (i, j) of the upper triangle stands for (j, i) too
    twice = 2.0 - np.eye(z.shape[-1])
    weight = g * start * twice
    # entries that never leave their reach: from expm1 on every sample
    mode, i, j = np.nonzero(np.triu(whole))
    w, rate = weight[mode, i, j, None], s[mode, i, j, None]
    real = rate[:, 0].imag == 0.0  # real expm1 is far cheaper than complex
    integral += np.sum(w[real].real * _growth(rate[real].real, times), axis=0)
    integral += np.sum(w[~real] * _growth(rate[~real], times), axis=0).real
    # the others: from expm1 on the samples within reach, in place of
    # their part in h (which adds nothing at t = 0)
    first = np.searchsorted(times, 0.0, side="right")
    mode, i, j = np.nonzero(np.triu(~whole & (near > first)))
    counts = near[mode, i, j] - first
    entry = np.repeat(np.arange(mode.size), counts)
    sample = first + np.arange(entry.size) - np.repeat(np.cumsum(counts) - counts, counts)
    mode, i, j = mode[entry], i[entry], j[entry]
    exact = weight[mode, i, j] * _growth(s[mode, i, j], times[sample])
    pairs = term[mode, i, sample].conj() * term[mode, j, sample]
    direct = twice[i, j] * h[mode, i, j] * (pairs - start[mode, i, j])
    integral += np.bincount(sample, (exact - direct).real, minlength=times.size)
    return out


def _growth(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """int_0^t e^{s r} dr = (e^{s t} - 1)/s elementwise, from expm1."""
    st = s * t
    return np.where(st == 0.0, t, np.expm1(st) / s)


def _stepwise_trajectory(m, x0, times, q, integral) -> np.ndarray:
    """Fallback branch of `_mode_trajectory` for one mode; adds into
    `integral`.

    Stepwise Pade exponentials of Van Loan's block [[-M^H, q], [0, M]] dt,
    whose blocks give exp(M dt) and int_0^dt exp(M^H s) q exp(M s) ds
    (Van Loan 1978); one expm per distinct step, imported only here.
    """
    import scipy.linalg

    n = m.shape[0]
    block = np.block([[-m.T, q], [np.zeros_like(m), m]])
    out = np.empty((n, times.size), dtype=complex)
    propagators: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    x = x0.astype(complex)
    running = 0.0
    prev = 0.0
    for k, t in enumerate(times):
        dt = t - prev
        if dt != 0.0:
            if dt not in propagators:
                e = scipy.linalg.expm(block * dt)
                propagators[dt] = (e[n:, n:], e[n:, n:].T @ e[:n, n:])
            step, gram = propagators[dt]
            running += (x.conj() @ gram @ x).real
            x = step @ x
        out[:, k] = x
        integral[k] += running
        prev = t
    return out.real if np.isrealobj(x0) else out


def evolve(
    params: ModelParams,
    initial: SpectralState,
    times: Sequence[float],
    direction: Direction = Direction.FORWARD,
) -> Trajectory:
    """Exact trajectory of the truncated system at the requested times.

    `times` must start at 0 and increase strictly.  Per-mode evolution is
    independent (data-parallel by contract); the energy breakdown is
    computed vectorized over the whole trajectory, and int_0^t D ds comes
    from the kernel in closed form.  Overflow, of the states or of their
    energy, raises NonFiniteResult tagged with the first offending time.
    """
    times = np.array(times, dtype=float)
    if times.size and times[0] != 0.0:
        raise ValueError("times must start at 0")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must increase strictly")

    modes = tuple(mode for mode, _ in initial.modes)
    lams = np.array([mode.lam for mode in modes])
    blocks = mode_blocks(params, lams, direction)
    x0 = np.array([mstate.as_array() for _, mstate in initial.modes]).reshape(len(modes), 3)
    q = np.zeros((len(modes), 3, 3))
    q[:, 2, 2] = params.heat_weight(lams)  # D_n = w_n theta_n^2
    # (modes, component, time)
    x, dissipation_integral = _mode_trajectory(blocks, x0, times, q)

    with np.errstate(over="ignore", invalid="ignore"):
        kinetic, bending, thermal, total, dissipation = _energy_columns(params, lams, x)
        finite = np.isfinite(kinetic + np.abs(bending) + thermal + dissipation)
    if not np.all(finite):
        t_bad = float(times[int(np.argmin(finite))])
        raise NonFiniteResult(f"evolution overflowed at t={t_bad}", time=t_bad)
    return Trajectory(
        domain=initial.domain,
        modes=modes,
        t=times,
        lams=lams,
        x=x,
        kinetic=kinetic,
        bending=bending,
        thermal=thermal,
        total=total,
        dissipation=dissipation,
        dissipation_integral=dissipation_integral,
    )


@dataclass(frozen=True)
class EnergyBalanceReport:
    """Residuals of the integrated energy identity along a trajectory.

    residuals[k] = (E(t_k) + s * int_0^{t_k} D ds - E(0)) / denominator
    with s = +1 forward, -1 backward, and denominator max(|E(0)|, floor);
    max_abs_error is the largest numerator, for other normalizations.
    """

    direction: Direction
    e0: float
    denominator: float
    residuals: np.ndarray
    max_abs_residual: float
    max_abs_error: float


def energy_balance_report(
    trajectory: Trajectory,
    direction: Direction = Direction.FORWARD,
) -> EnergyBalanceReport:
    if len(trajectory) < 2:
        raise InsufficientSamples("energy balance needs at least 2 samples")
    e, integral = trajectory.total, trajectory.dissipation_integral
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


@dataclass(frozen=True)
class FieldValues:
    """Point values of the synthesized fields on a spatial grid."""

    u: np.ndarray
    u_t: np.ndarray
    theta: np.ndarray


def synthesize_field(state: SpectralState, grid: Sequence) -> FieldValues:
    """Evaluate the sine series of (u, u_t, theta) at the grid points.

    Boundary points evaluate to exactly zero; points outside the domain
    raise PointOutsideDomain.
    """
    domain = state.domain
    if isinstance(domain, Interval):
        pts = np.atleast_1d(np.asarray(grid, dtype=float))
        if np.any(pts < 0) or np.any(pts > domain.length):
            raise PointOutsideDomain("grid point outside the interval")
        interior = (pts > 0) & (pts < domain.length)
    else:
        pts = np.atleast_2d(np.asarray(grid, dtype=float))
        if pts.shape[-1] != 2:
            raise ValueError("rectangle grid points must be (x, y) pairs")
        if (
            np.any(pts[:, 0] < 0)
            or np.any(pts[:, 0] > domain.length1)
            or np.any(pts[:, 1] < 0)
            or np.any(pts[:, 1] > domain.length2)
        ):
            raise PointOutsideDomain("grid point outside the rectangle")
        interior = (
            (pts[:, 0] > 0)
            & (pts[:, 0] < domain.length1)
            & (pts[:, 1] > 0)
            & (pts[:, 1] < domain.length2)
        )

    n_pts = pts.shape[0]
    complex_state = any(not s.is_real for _, s in state.modes)
    dtype = complex if complex_state else float
    u = np.zeros(n_pts, dtype=dtype)
    ut = np.zeros(n_pts, dtype=dtype)
    th = np.zeros(n_pts, dtype=dtype)
    inner = pts[interior]
    for mode, mstate in state.modes:
        phi = (
            domain.eigenfunction(mode.index, inner)
            if inner.size
            else np.zeros(0)
        )
        u[interior] += mstate.u * phi
        ut[interior] += mstate.v * phi
        th[interior] += mstate.theta * phi
    return FieldValues(u=u, u_t=ut, theta=th)
