"""Independent reference computations the tests check the package against.

Everything here deliberately avoids the code paths under test: trajectories
and their running time integrals come from adaptive Runge-Kutta
integration or from mpmath eigendecompositions summed as exponentials,
eigenvalues from the companion matrix, a rectangle's eigenvalues one
mode at a time from their formula, roots from bisection,
the generator blocks written out from the PDE or from a finite-difference
discretization of it on one eigenfunction, resolvent solves and norms
from LAPACK's solve, inverse and singular values, and CSV text from
Python's own %-formatting, one row at a time.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

from gradiplate.model import Direction


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


def mp_convexity_functional(params, lams, x0, times, omega, t0, digits=50):
    """F and F' of the convexity functional at `times`, in mpmath at
    `digits` significant digits from the exact values of the float inputs.

    Each mode's block M = V diag(z) V^-1 comes from `mpmath.eig`, so
    x(t) = V diag(e^{z t}) V^-1 x0.  Psi = Phi + int_0^t theta ds is
    integrated term by term as a sum of exponentials, Psi = alpha +
    sum_k beta_k e^{z_k t}, and int_0^t w Psi^2 ds as one over products
    of those terms; Phi is the elliptic solution at t = 0 only.  Returns
    float arrays (F, F').
    """
    import mpmath

    def growth(s, t):  # int_0^t e^{s r} dr
        return t if s == 0 else mpmath.expm1(s * t) / s

    with mpmath.workdps(digits):
        rho, a, b, c, d, eta, omega, t0 = (
            mpmath.mpf(x) for x in (
                params.rho, params.a, params.b, params.c, params.d, params.eta, omega, t0,
            )
        )
        ts = [mpmath.mpf(float(t)) for t in times]
        f = [omega * (t + t0) ** 2 for t in ts]
        fdot = [2 * omega * (t + t0) for t in ts]
        for lam, x in zip(lams, x0):
            lam = mpmath.mpf(float(lam))
            u0, v0, th0 = (mpmath.mpf(float(v)) for v in x)
            w = b * lam + d * lam**2
            m = mpmath.matrix([
                [0, 1, 0],
                [-c / rho * lam**2, 0, -eta / rho * lam],
                [0, eta / a * lam, -w / a],
            ])
            z, vecs = mpmath.eig(m)  # det M = -c lam^2 w / (rho a): no zero root
            coeff = mpmath.lu_solve(vecs, mpmath.matrix([u0, v0, th0]))
            phi = (eta * lam * u0 - a * th0) / w
            # theta = sum_k vecs[2, k] coeff_k e^{z_k t}, integrated from 0
            beta = [vecs[2, k] * coeff[k] / z[k] for k in range(3)]
            alpha = phi - sum(beta)
            for i, t in enumerate(ts):
                ex = [mpmath.exp(z[k] * t) for k in range(3)]
                u = sum(vecs[0, k] * coeff[k] * ex[k] for k in range(3))
                v = sum(vecs[1, k] * coeff[k] * ex[k] for k in range(3))
                psi = alpha + sum(beta[k] * ex[k] for k in range(3))
                integral = alpha**2 * t + 2 * alpha * sum(
                    beta[k] * growth(z[k], t) for k in range(3)
                ) + sum(
                    beta[j] * beta[k] * growth(z[j] + z[k], t) for j in range(3) for k in range(3)
                )
                f[i] += rho * u**2 + w * integral
                fdot[i] += 2 * rho * u * v + w * psi**2
        return (
            np.array([float(mpmath.re(x)) for x in f]),
            np.array([float(mpmath.re(x)) for x in fdot]),
        )


def mp_mode_evolution(params, lam, x0, times, direction=Direction.FORWARD, digits=50):
    """States and int_0^t w theta^2 ds of one mode at `times`, in mpmath at
    `digits` significant digits from the exact values of the float inputs:
    x(t) = V e^{zt} V^-1 x0 from `mpmath.eig`, and the integral summed over
    pairs of its exponential terms.  Returns float arrays (3, T) and (T,)."""
    import mpmath

    with mpmath.workdps(digits):
        rho, a, b, c, d, eta, lam = (
            mpmath.mpf(float(x)) for x in (params.rho, params.a, params.b, params.c, params.d, params.eta, lam)
        )
        w = b * lam + d * lam**2
        heat = -w / a if direction is Direction.FORWARD else w / a
        m = mpmath.matrix([[0, 1, 0], [-c / rho * lam**2, 0, -eta / rho * lam], [0, eta / a * lam, heat]])
        z, vecs = mpmath.eig(m)
        coeff = mpmath.lu_solve(vecs, mpmath.matrix([mpmath.mpf(float(v)) for v in x0]))
        terms = [[vecs[i, k] * coeff[k] for i in range(3)] for k in range(3)]
        states, integral = [], []
        for t in times:
            t = mpmath.mpf(float(t))
            ex = [mpmath.exp(z[k] * t) for k in range(3)]
            states.append([float(mpmath.re(sum(terms[k][i] * ex[k] for k in range(3)))) for i in range(3)])
            total = sum(
                w * terms[j][2] * terms[k][2] * (t if z[j] + z[k] == 0 else mpmath.expm1((z[j] + z[k]) * t) / (z[j] + z[k]))
                for j in range(3) for k in range(3)
            )
            integral.append(float(mpmath.re(total)))
        return np.array(states).T, np.array(integral)


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


def rectangle_eigenvalue(domain, index: tuple[int, int]) -> float:
    """Eigenvalue pi^2 (j^2/L1^2 + k^2/L2^2) of the mode (j, k) of a
    Rectangle, one Python float at a time."""
    j, k = index
    return math.pi**2 * (j**2 / domain.length1**2 + k**2 / domain.length2**2)


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


def generator_block(params, lam, direction=Direction.FORWARD) -> np.ndarray:
    """The 3x3 block of (u, v, theta) of one mode, or a stack of them for
    an array of lam, written out from the PDE on a sine mode:
    u' = v, rho v' = -c lam^2 u - eta lam theta and
    a theta' = eta lam v - (b lam + d lam^2) theta, the heat term's sign
    flipped backward in time."""
    lam = np.asarray(lam, dtype=float)
    heat = (params.b * lam + params.d * lam**2) / params.a
    m = np.zeros(lam.shape + (3, 3))
    m[..., 0, 1] = 1.0
    m[..., 1, 0] = -(params.c / params.rho) * lam**2
    m[..., 1, 2] = -(params.eta / params.rho) * lam
    m[..., 2, 1] = (params.eta / params.a) * lam
    m[..., 2, 2] = -heat if direction is Direction.FORWARD else heat
    return m


def lapack_resolvent_solve(params, lam, omega, g) -> np.ndarray:
    """x with (i omega I - M_lam) x = g, from LAPACK's solve."""
    block = 1j * omega * np.eye(3) - generator_block(params, lam)
    return np.linalg.solve(block, np.asarray(g, dtype=complex))


def lapack_resolvent_norms(params, lams, omegas) -> np.ndarray:
    """Energy-weighted resolvent norms for every (omega, lam), shape (W, M).

    Inverts the unweighted blocks i omega I - M_lam with LAPACK, weights the
    inverse by W^(1/2) . W^(-1/2) with W = diag(|c| lam^2, rho, a), the
    energy inner product on one mode, and takes the top singular value from
    LAPACK's SVD.
    """
    lams = np.asarray(lams, dtype=float)
    omegas = np.asarray(omegas, dtype=float)
    blocks = 1j * omegas[:, None, None, None] * np.eye(3) - generator_block(params, lams)[None]
    inverse = np.linalg.inv(blocks)
    w_sqrt = np.sqrt(np.stack([abs(params.c) * lams**2, np.full(lams.shape, params.rho),
                               np.full(lams.shape, params.a)], axis=-1))  # (M, 3)
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


def csv_text(header, columns) -> str:
    """The CSV of `columns` formatted one row and one value at a time:
    floats as "%.16e", integers as "%d", strings as they are."""

    def field(value):
        if isinstance(value, (int, np.integer)):
            return "%d" % value
        if isinstance(value, str):
            return value
        return "%.16e" % value

    rows = zip(*(np.asarray(col).tolist() for col in columns))
    return "".join(",".join(map(field, row)) + "\n" for row in [header, *rows])
