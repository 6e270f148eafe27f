"""Initial data and whole trajectories for library calls: the eigenvalues of
a domain's first modes and x0[mode, (u, v, theta)], as the config parser
builds them, and the states of every mode at every sample, which no
subcommand holds at once."""

import numpy as np

from gradiplate.model import Direction, enumerate_modes
from gradiplate.propagator import _COLUMNS, EnergyHistory, Evolution


def initial(domain, count, u=(), v=(), theta=()):
    """(lams, x0) of the first `count` modes of `domain`, the coefficient
    lists zero-padded to `count` modes."""
    x0 = np.zeros((count, 3))
    for i, column in enumerate((u, v, theta)):
        x0[: len(column), i] = column
    return enumerate_modes(domain, count), x0


class Trajectory(EnergyHistory):
    """Exact trajectory on a time grid, held as arrays: the energy columns,
    the modes' eigenvalues `lams` and x, shape (modes, 3, samples) with
    rows u, v, theta."""

    __slots__ = ("lams", "x")

    def __init__(
        self, t: np.ndarray, kinetic: np.ndarray, bending: np.ndarray,
        thermal: np.ndarray, total: np.ndarray, dissipation: np.ndarray,
        dissipation_integral: np.ndarray, lams: np.ndarray, x: np.ndarray,
    ):
        super().__init__(t, kinetic, bending, thermal, total, dissipation, dissipation_integral)
        self.lams, self.x = lams, x


def evolve(params, lams, x0, times, direction=Direction.FORWARD) -> Trajectory:
    """Exact trajectory of the truncated system from x0 over the modes
    `lams` at the requested times, held whole: the live modes' states are
    scattered into a zero (modes, 3, samples) array block by block (see
    `Evolution`)."""
    evolution = Evolution(params, lams, x0, times, direction)
    x = np.zeros(x0.shape + evolution.t.shape)

    def scatter(lo: int, states: np.ndarray) -> None:
        x[evolution.live, :, lo : lo + states.shape[2]] = states

    history = evolution.history(scatter)
    columns = {name: getattr(history, name) for name in _COLUMNS}
    return Trajectory(evolution.t, **columns, lams=lams, x=x)
