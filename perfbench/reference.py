"""A fixed reference job that measures how fast the host runs right now.

The benchmark runs this script as its own process after every timed
gradiplate invocation and divides the pass's wall time by the reference
job's, so a host that slows every process down for a while (a shared
machine whose neighbours get busy) moves both and cancels out.  The work
mirrors what a gradiplate process does, and runs no gradiplate code: a
fresh interpreter, the numpy import, a loop over small Python objects, and
batched 3x3 LAPACK calls.  It is the same on every commit and takes about
0.4 s on a 2-core Xeon.
"""

import numpy as np

SAMPLES = 10_000


class _Sample:
    __slots__ = ("u", "v", "theta")

    def __init__(self, u, v, theta):
        self.u, self.v, self.theta = u, v, theta


def main() -> None:
    grid = np.linspace(0.0, 1.0, SAMPLES)
    blocks = np.empty((SAMPLES, 3, 3))
    blocks[:] = np.eye(3) * 3.0
    blocks[:, 0, 1] = grid
    blocks[:, 1, 2] = -grid
    blocks[:, 2, 0] = 0.5 * grid
    total = 0.0
    for _ in range(2):
        eig = np.linalg.eigvals(blocks)
        sol = np.linalg.solve(blocks, np.ones((SAMPLES, 3, 1)))
        rows = [_Sample(float(a), float(b), float(c)) for a, b, c in sol[:, :, 0].tolist()]
        total += sum(r.u * r.v - r.theta for r in rows) + float(eig.real.sum())
    for i in range(200_000):
        total += (i * i) % 7
    if not np.isfinite(total):
        raise SystemExit("reference job produced a non-finite result")


if __name__ == "__main__":
    main()
