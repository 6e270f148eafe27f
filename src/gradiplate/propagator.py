"""Exact per-mode evolution, energy bookkeeping, and field synthesis.

The truncated generator is block-diagonal over modes, so trajectories are
computed from 3x3 matrix exponentials with no time-discretization error.
Each block is exponentiated through its eigendecomposition; blocks whose
eigenvector matrix is ill-conditioned (condition number above 1e8, possible
at isolated parameter/eigenvalue coincidences) fall back to
scaling-and-squaring Pade exponentials applied stepwise
(`scipy.linalg.expm`, imported only on that path).

Energy along a trajectory:

    E(t) = 1/2 sum_n (rho |v_n|^2 + c lam_n^2 |u_n|^2 + a |theta_n|^2)
    D(t) = sum_n (b lam_n + d lam_n^2) |theta_n|^2

Forward in time E(t) + int_0^t D ds = E(0); under the time-reversed heat
terms the identity holds with the sign of the integral flipped.

`evolve` returns a `Trajectory` of arrays: the coefficients
x[mode, (u, v, theta), sample] and the columns of E (kinetic, bending,
thermal, total) and D, one value per sample.  Indexing it builds a
`TrajectorySample` view of that one sample on demand.
"""

from __future__ import annotations

import cmath
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._quadrature import cumulative_integral
from .errors import InsufficientSamples, NonFiniteResult, PointOutsideDomain
from .model import (
    Direction,
    Interval,
    Mode,
    ModeMatrix,
    ModelParams,
    SpectralDomain,
    enumerate_modes,
    mode_matrix,
)

EIGVEC_COND_LIMIT = 1e8
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


def energy_of(params: ModelParams, state: SpectralState) -> EnergyBreakdown:
    lams, x = state.coefficient_arrays()
    u2 = np.abs(x[0]) ** 2
    v2 = np.abs(x[1]) ** 2
    th2 = np.abs(x[2]) ** 2
    kinetic = 0.5 * params.rho * float(np.sum(v2))
    bending = 0.5 * params.c * float(np.sum(lams**2 * u2))
    thermal = 0.5 * params.a * float(np.sum(th2))
    dissipation = float(np.sum(params.heat_weight(lams) * th2))
    return EnergyBreakdown(kinetic, bending, thermal, kinetic + bending + thermal, dissipation)


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
    docstring) have one entry per sample.
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
    m = matrix.entries
    x0 = state.as_array()
    w, vecs = np.linalg.eig(m)
    # overflow is detected below and reported via NonFiniteResult
    with np.errstate(over="ignore", invalid="ignore"):
        if np.linalg.cond(vecs) <= EIGVEC_COND_LIMIT:
            coeff = np.linalg.solve(vecs, x0.astype(complex))
            term = np.exp(w * dt) * coeff
            term[coeff == 0.0] = 0.0  # inf * 0 must stay exactly zero
            x = vecs @ term
        else:
            import scipy.linalg

            x = scipy.linalg.expm(m * dt) @ x0
    if not np.all(np.isfinite(x.view(float))):
        raise NonFiniteResult("mode evolution overflowed", time=dt)
    if np.isrealobj(x0):
        x = x.real
    return ModeState(*x)


def _mode_trajectory(m: np.ndarray, x0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """States of one mode at all times, shape (3, len(times))."""
    w, vecs = np.linalg.eig(m)
    if np.linalg.cond(vecs) <= EIGVEC_COND_LIMIT:
        coeff = np.linalg.solve(vecs, x0.astype(complex))
        # overflow surfaces as NonFiniteResult at the offending sample
        with np.errstate(over="ignore", invalid="ignore"):
            term = np.exp(np.outer(w, times)) * coeff[:, None]
            term[coeff == 0.0, :] = 0.0  # inf * 0 must stay exactly zero
            out = vecs @ term
        if times.size and times[0] == 0.0:
            out[:, 0] = x0  # keep the initial sample exact
    else:
        # stepwise Pade exponentials; one expm per distinct increment
        import scipy.linalg

        out = np.empty((3, times.size), dtype=complex)
        propagators: dict[float, np.ndarray] = {}
        x = x0.astype(complex)
        prev = 0.0
        for k, t in enumerate(times):
            dt = t - prev
            if dt != 0.0:
                if dt not in propagators:
                    propagators[dt] = scipy.linalg.expm(m * dt)
                x = propagators[dt] @ x
            out[:, k] = x
            prev = t
    if np.isrealobj(x0):
        out = out.real
    return out


def evolve(
    params: ModelParams,
    initial: SpectralState,
    times: Sequence[float],
    direction: Direction = Direction.FORWARD,
) -> Trajectory:
    """Exact trajectory of the truncated system at the requested times.

    `times` must start at 0 and increase strictly.  Per-mode evolution is
    independent (data-parallel by contract); the energy breakdown is
    computed vectorized over the whole trajectory.  Overflow raises
    NonFiniteResult tagged with the first offending time.
    """
    times = np.array(times, dtype=float)
    if times.size and times[0] != 0.0:
        raise ValueError("times must start at 0")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must increase strictly")

    modes = tuple(mode for mode, _ in initial.modes)
    per_mode = [
        _mode_trajectory(
            mode_matrix(params, mode.lam, direction).entries, mstate.as_array(), times
        )
        for mode, mstate in initial.modes
    ]
    # (modes, component, time)
    x = np.stack(per_mode) if per_mode else np.zeros((0, 3, times.size))

    finite = np.all(np.isfinite(x), axis=(0, 1))
    if not np.all(finite):
        t_bad = float(times[int(np.argmin(finite))])
        raise NonFiniteResult(f"evolution overflowed at t={t_bad}", time=t_bad)

    lams = np.array([mode.lam for mode in modes])
    u2 = np.abs(x[:, 0, :]) ** 2
    v2 = np.abs(x[:, 1, :]) ** 2
    th2 = np.abs(x[:, 2, :]) ** 2
    kinetic = 0.5 * params.rho * np.sum(v2, axis=0)
    bending = 0.5 * params.c * np.sum(lams[:, None] ** 2 * u2, axis=0)
    thermal = 0.5 * params.a * np.sum(th2, axis=0)
    dissipation = np.sum(params.heat_weight(lams)[:, None] * th2, axis=0)
    return Trajectory(
        domain=initial.domain,
        modes=modes,
        t=times,
        lams=lams,
        x=x,
        kinetic=kinetic,
        bending=bending,
        thermal=thermal,
        total=kinetic + bending + thermal,
        dissipation=dissipation,
    )


@dataclass(frozen=True)
class EnergyBalanceReport:
    """Residuals of the integrated energy identity along a trajectory.

    residuals[k] = (E(t_k) + s * int_0^{t_k} D ds - E(0)) / denominator
    with s = +1 forward, -1 backward, and denominator max(|E(0)|, floor).
    """

    direction: Direction
    e0: float
    denominator: float
    residuals: np.ndarray
    max_abs_residual: float


def energy_balance_report(
    trajectory: Trajectory,
    direction: Direction = Direction.FORWARD,
) -> EnergyBalanceReport:
    if len(trajectory) < 3:
        raise InsufficientSamples("energy balance needs at least 3 samples")
    t, e = trajectory.t, trajectory.total
    integral = cumulative_integral(trajectory.dissipation, t)
    sign = 1.0 if direction is Direction.FORWARD else -1.0
    e0 = e[0]
    denom = max(abs(e0), ENERGY_FLOOR)
    residuals = (e + sign * integral - e0) / denom
    return EnergyBalanceReport(
        direction=direction,
        e0=float(e0),
        denominator=float(denom),
        residuals=residuals,
        max_abs_residual=float(np.max(np.abs(residuals))),
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
