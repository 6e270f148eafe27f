"""Independent reference computations the tests check the package against.

Everything here deliberately avoids the code paths under test: trajectories
and their running time integrals come from adaptive Runge-Kutta
integration, eigenvalues from the companion matrix, roots from bisection,
the generator blocks from a finite-difference discretization of the
underlying PDE on one eigenfunction, and resolvent norms from LAPACK's
inverse and singular values.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

from gradiplate.model import hilbert_weight


def rk_mode_evolution(m: np.ndarray, x0: np.ndarray, t: float) -> np.ndarray:
    """High-order adaptive integration of x' = M x up to time t."""
    sol = solve_ivp(
        lambda _, y: m @ y,
        (0.0, t),
        np.asarray(x0, dtype=float),
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
        dense_output=False,
        t_eval=[t],
    )
    assert sol.success, sol.message
    return sol.y[:, -1]


def rk_mode_integrals(
    m: np.ndarray, x0, weight: float, phi: float, times
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Running integrals of one mode by DOP853, carried as extra states.

    Integrates x' = M x with I' = weight * theta^2, psi' = theta and
    J' = weight * psi^2, from I = J = 0 and psi = phi.  Returns
    (int_0^t weight theta^2, psi, int_0^t weight psi^2) at `times`.
    """

    def rhs(_, y):
        theta, psi = y[2], y[4]
        return np.concatenate((m @ y[:3], [weight * theta**2, theta, weight * psi**2]))

    y0 = np.concatenate((np.asarray(x0, dtype=float), [0.0, phi, 0.0]))
    sol = solve_ivp(
        rhs,
        (0.0, float(times[-1])),
        y0,
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
        t_eval=times,
    )
    assert sol.success, sol.message
    return sol.y[3], sol.y[4], sol.y[5]


def rk_scalar_decay(rate: float, y0: float, t: float) -> float:
    """Adaptive integration of y' = -rate * y."""
    sol = solve_ivp(
        lambda _, y: -rate * y,
        (0.0, t),
        [y0],
        method="DOP853",
        rtol=1e-12,
        atol=1e-300,
        t_eval=[t],
    )
    assert sol.success, sol.message
    return float(sol.y[0, -1])


def companion_roots(a2: float, a1: float, a0: float) -> np.ndarray:
    """Cubic roots via the companion-matrix eigenvalue route."""
    return np.roots([1.0, a2, a1, a0])


def bisect_real_root(f, lo: float, hi: float, iterations: int = 200) -> float:
    """Bisection on a bracketing interval; the poor man's root oracle."""
    flo = f(lo)
    assert flo * f(hi) < 0, "interval must bracket a sign change"
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def fd_generator_column(
    rho: float,
    a: float,
    b: float,
    c: float,
    d: float,
    eta: float,
    length: float,
    n: int,
    column: int,
    grid_points: int = 4000,
) -> np.ndarray:
    """Column of the per-mode generator from a PDE finite-difference oracle.

    Restricts the coupled system to the n-th sine eigenfunction: puts a unit
    coefficient into component `column` of (u, v, theta), evaluates the PDE
    right-hand side with second-difference Laplacians on a fine interior
    grid, and projects back onto the eigenfunction.  Hinged ends make the
    plain Dirichlet second-difference stencil exact to O(h^2) for both the
    Laplacian and the squared Laplacian of a sine mode.
    """
    h = length / grid_points
    x = np.linspace(0.0, length, grid_points + 1)[1:-1]
    phi = np.sqrt(2.0 / length) * np.sin(n * np.pi * x / length)

    def lap(f: np.ndarray) -> np.ndarray:
        padded = np.concatenate(([0.0], f, [0.0]))
        return (padded[:-2] - 2.0 * padded[1:-1] + padded[2:]) / h**2

    coeffs = np.zeros(3)
    coeffs[column] = 1.0
    u = coeffs[0] * phi
    v = coeffs[1] * phi
    theta = coeffs[2] * phi

    du = v
    dv = (-c * lap(lap(u)) + eta * lap(theta)) / rho
    dtheta = (b * lap(theta) - d * lap(lap(theta)) - eta * lap(v)) / a

    def project(f: np.ndarray) -> float:
        return float(np.trapezoid(f * phi, dx=h))

    return np.array([project(du), project(dv), project(dtheta)])


def lapack_resolvent_norms(params, lams, omegas) -> np.ndarray:
    """Energy-weighted resolvent norms for every (omega, lam), shape (W, M).

    Inverts the unweighted blocks i omega I - M_lam with LAPACK, weights the
    inverse by W^(1/2) . W^(-1/2) from `hilbert_weight`, and takes the top
    singular value from LAPACK's SVD.
    """
    lams = np.asarray(lams, dtype=float)
    omegas = np.asarray(omegas, dtype=float)
    m = np.zeros((lams.size, 3, 3))
    m[:, 0, 1] = 1.0
    m[:, 1, 0] = -(params.c / params.rho) * lams**2
    m[:, 1, 2] = -(params.eta / params.rho) * lams
    m[:, 2, 1] = (params.eta / params.a) * lams
    m[:, 2, 2] = -(params.b * lams + params.d * lams**2) / params.a
    blocks = 1j * omegas[:, None, None, None] * np.eye(3) - m[None]
    inverse = np.linalg.inv(blocks)
    weights = [hilbert_weight(params, lam) for lam in lams]
    w_sqrt = np.sqrt([[w.w_u, w.w_v, w.w_theta] for w in weights])  # (M, 3)
    weighted = inverse * w_sqrt[None, :, :, None] / w_sqrt[None, :, None, :]
    return np.linalg.svd(weighted, compute_uv=False)[..., 0]


def mp_resolvent_singular_values(params, lam, omega, digits=50) -> list[float]:
    """Singular values of W^(1/2) (i omega I - M_lam)^(-1) W^(-1/2), largest
    first, in mpmath at `digits` significant digits from the exact values
    of the float inputs."""
    import mpmath

    with mpmath.workdps(digits):
        rho, a, b, c, d, eta, lam, omega = (
            mpmath.mpf(x)
            for x in (params.rho, params.a, params.b, params.c, params.d, params.eta, lam, omega)
        )
        z = mpmath.mpc(0, omega)
        block = mpmath.matrix(
            [
                [z, -1, 0],
                [c / rho * lam**2, z, eta / rho * lam],
                [0, -eta / a * lam, z + (b * lam + d * lam**2) / a],
            ]
        )
        w = [mpmath.sqrt(c) * lam, mpmath.sqrt(rho), mpmath.sqrt(a)]
        weighted = mpmath.matrix(3, 3)
        for i in range(3):
            for j in range(3):
                weighted[i, j] = w[i] * block[i, j] / w[j]
        values = mpmath.svd_c(weighted**-1, compute_uv=False)
        return sorted((float(v) for v in values), reverse=True)
