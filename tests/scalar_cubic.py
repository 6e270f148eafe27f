"""Scalar characteristic-cubic solver, the tests' reference for the
batched root finder in `gradiplate.spectrum`.

One coefficient triple per call: the trigonometric or Cardano start, the
Newton polish in long double, the exactly conjugate pair and the residual
scale, all on numpy scalars.  `gradiplate.spectrum` solves every cubic of
a call at once and must reproduce this loop's roots, classification and
residuals bit for bit (test_spectrum compares them).
"""

from __future__ import annotations

import numpy as np

THREE_REAL = "three real"
REAL_PLUS_PAIR = "one real + complex pair"


def _horner_ld(coeffs_ld, z):
    """Polynomial and derivative at z via extended-precision Horner."""
    p = coeffs_ld[0]
    dp = np.clongdouble(0.0)
    for c in coeffs_ld[1:]:
        dp = dp * z + p
        p = p * z + c
    return p, dp


def cubic_roots(a2: float, a1: float, a0: float) -> tuple[tuple[complex, complex, complex], str, np.ndarray]:
    """Roots of z^3 + a2 z^2 + a1 z + a0, classification, and residuals.

    Returns roots sorted by (real, imag), the classification string, and
    the per-root residuals |p(z)| normalized by the largest term magnitude,
    in the order the roots were polished (not the sorted order).
    """
    a2_ld, a1_ld, a0_ld = np.longdouble(a2), np.longdouble(a1), np.longdouble(a0)
    shift = a2_ld / 3.0
    p = a1_ld - a2_ld * a2_ld / 3.0
    q = 2.0 * a2_ld**3 / 27.0 - a2_ld * a1_ld / 3.0 + a0_ld
    disc = -4.0 * p**3 - 27.0 * q * q

    if disc > 0:
        # three distinct real roots: trigonometric form
        r = 2.0 * np.sqrt(-p / 3.0)
        arg = np.clip(np.longdouble(3.0) * q / (p * r), -1.0, 1.0)
        phi = np.arccos(arg)
        ts = [r * np.cos((phi - 2.0 * np.pi * k) / 3.0) for k in range(3)]
        roots = [np.clongdouble(t - shift) for t in ts]
        classification = THREE_REAL
    else:
        # Cardano with the larger-magnitude cube root to avoid cancellation
        s = np.sqrt(np.maximum(q * q / 4.0 + p**3 / 27.0, np.longdouble(0.0)))
        u3 = -q / 2.0 - s if q >= 0 else -q / 2.0 + s
        u = np.cbrt(u3)
        v = np.longdouble(0.0) if u == 0 else -p / (3.0 * u)
        t1 = u + v
        re = -t1 / 2.0
        im = np.sqrt(np.longdouble(3.0)) / 2.0 * (u - v)
        roots = [
            np.clongdouble(t1 - shift),
            np.clongdouble(re - shift) + 1j * np.clongdouble(im),
            np.clongdouble(re - shift) - 1j * np.clongdouble(im),
        ]
        classification = THREE_REAL if disc == 0 else REAL_PLUS_PAIR

    coeffs_ld = [np.clongdouble(1.0), np.clongdouble(a2_ld), np.clongdouble(a1_ld), np.clongdouble(a0_ld)]
    polished = []
    for z in roots:
        for _ in range(6):
            val, der = _horner_ld(coeffs_ld, z)
            if der == 0:
                break
            step = val / der
            z = z - step
            if abs(step) <= 1e-20 * max(abs(z), np.longdouble(1.0)):
                break
        polished.append(z)

    if classification == REAL_PLUS_PAIR:
        # keep the pair exactly conjugate
        zr = np.clongdouble(polished[0].real)
        zp = polished[1]
        polished = [zr, np.clongdouble(zp.real) + 1j * abs(np.clongdouble(zp.imag)),
                    np.clongdouble(zp.real) - 1j * abs(np.clongdouble(zp.imag))]
    else:
        polished = [np.clongdouble(z.real) for z in polished]

    residuals = []
    for z in polished:
        val, _ = _horner_ld(coeffs_ld, z)
        scale = (
            abs(z) ** 3
            + abs(a2_ld) * abs(z) ** 2
            + abs(a1_ld) * abs(z)
            + abs(a0_ld)
        )
        residuals.append(float(abs(val) / max(scale, np.longdouble(1e-300))))

    out = sorted(
        (complex(z) for z in polished), key=lambda z: (z.real, z.imag)
    )
    return (out[0], out[1], out[2]), classification, np.array(residuals)
