"""Sampled cumulative quadrature, the tests' independent cross-check of
the exact time integrals that `gradiplate.propagator` computes.

Composite Simpson with one Richardson step: the fine-grid cumulative
integral is extrapolated against the integral on the doubled-spacing grid,
lifting even sample points from O(h^4) to O(h^6).  Odd sample points end on
a dangling interval; its increment is integrated with the cubic-exact
four-point end rule (h/24)(9 f_k + 19 f_{k-1} - 5 f_{k-2} + f_{k-3}), so
polynomials up to degree three integrate exactly everywhere.  Non-uniform
grids fall back to plain cumulative Simpson.

The plain Simpson and trapezoid sums are a numpy transcription of
`scipy.integrate.cumulative_simpson` / `cumulative_trapezoid` (scipy 1.17,
1-D, `initial=0.0`), with every operation in scipy's order, so their
results are bit-identical to scipy's (test_quadrature compares them by
bytes).
"""

from __future__ import annotations

import numpy as np


def _cumulative_trapezoid(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """`cumulative_trapezoid(y, t, initial=0.0)`."""
    res = np.cumsum(np.diff(t) * (y[1:] + y[:-1]) / 2.0)
    return np.concatenate(([0.0], res))


def _simpson_equal_intervals(y: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Simpson integrals over the first interval of each sample triple,
    equal widths (Cartwright, J. Math. Sci. Math. Educ. 12(2), eqn (10))."""
    d = dx[:-1]
    f1, f2, f3 = y[:-2], y[1:-1], y[2:]
    return d / 3 * (5 * f1 / 4 + 2 * f2 - f3 / 4)


def _simpson_unequal_intervals(y: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """As `_simpson_equal_intervals` for unequal widths (eqn (8), ibid.)."""
    x21, x32 = dx[:-1], dx[1:]
    f1, f2, f3 = y[:-2], y[1:-1], y[2:]
    x31 = x21 + x32
    x21_x31 = x21 / x31
    x21_x32 = x21 / x32
    x21x21_x31x32 = x21_x31 * x21_x32
    coeff1 = 3 - x21_x31
    coeff2 = 3 + x21x21_x31x32 + x21_x31
    coeff3 = -x21x21_x31x32
    return x21 / 6 * (coeff1 * f1 + coeff2 * f2 + coeff3 * f3)


def _cumulative_simpson(y: np.ndarray, dx: np.ndarray, intervals) -> np.ndarray:
    """`cumulative_simpson(y, ..., initial=0.0)` for len(y) >= 3, with
    interval widths dx and the per-interval rule `intervals`.

    Even intervals come from the forward triples, odd ones (and the last)
    from the triples of the reversed samples.
    """
    h1 = intervals(y, dx)
    h2 = intervals(y[::-1], dx[::-1])[::-1]
    sub = np.empty(y.size - 1)
    sub[:-1:2] = h1[::2]
    sub[1::2] = h2[::2]
    sub[-1] = h2[-1]
    res = np.cumsum(sub)
    res += 0.0  # scipy adds `initial`; it turns a leading -0.0 into +0.0
    return np.concatenate(([0.0], res))


def _simpson_dx(y: np.ndarray, dx: float) -> np.ndarray:
    """`cumulative_simpson(y, dx=dx, initial=0.0)`, len(y) >= 3."""
    return _cumulative_simpson(y, np.full(y.size - 1, dx), _simpson_equal_intervals)


def _simpson_x(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """`cumulative_simpson(y, x=x, initial=0.0)`, len(y) >= 3."""
    dx = np.diff(x)
    if np.any(dx <= 0):
        raise ValueError("Input x must be strictly increasing.")
    return _cumulative_simpson(y, dx, _simpson_unequal_intervals)


def _is_uniform(t: np.ndarray) -> bool:
    dt = np.diff(t)
    return bool(dt.size) and np.allclose(dt, dt[0], rtol=1e-12, atol=0.0)


def cumulative_integral(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Cumulative integral of samples y over times t, Richardson-refined.

    Requires len(t) >= 2; the result starts at exactly 0.
    """
    y = np.asarray(y, dtype=float)
    t = np.asarray(t, dtype=float)
    if y.shape != t.shape or y.ndim != 1:
        raise ValueError("y and t must be one-dimensional and equally long")
    n = y.size
    if n < 2:
        raise ValueError("need at least two samples")
    if n == 2:
        return _cumulative_trapezoid(y, t)
    if not _is_uniform(t):
        return _simpson_x(y, t)

    dt = t[1] - t[0]
    fine = _simpson_dx(y, dt)
    if n < 5:
        return fine
    coarse = _simpson_dx(y[::2], 2.0 * dt)
    out = fine.copy()

    # Richardson where both grids end on whole Simpson pairs (k = 0 mod 4);
    # the remaining even points add one exact fine-grid pair increment
    quad = np.arange(0, n, 4)
    out[quad] = fine[quad] + (fine[quad] - coarse[quad // 2]) / 15.0
    pair = np.arange(2, n, 4)
    out[pair] = out[pair - 2] + (fine[pair] - fine[pair - 2])

    # dangling odd intervals: cubic-exact one-step increments
    odd = np.arange(3, n, 2)
    if odd.size:
        inc = (dt / 24.0) * (
            9.0 * y[odd] + 19.0 * y[odd - 1] - 5.0 * y[odd - 2] + y[odd - 3]
        )
        out[odd] = out[odd - 1] + inc
    # first interval uses the mirrored rule on the leading four samples
    out[1] = out[0] + (dt / 24.0) * (9.0 * y[0] + 19.0 * y[1] - 5.0 * y[2] + y[3])
    return out
