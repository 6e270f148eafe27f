"""Mode spectra from the characteristic cubic.

Each 3x3 forward block has characteristic polynomial

    z^3 + mu z^2 + (kappa + eps) z + kappa mu

with (mu, kappa, eps) = (h, sign(c) k^2, g^2) from the block's rates
(k, g, h) of `ModelParams.block_rates`, the one definition of the blocks:
mu = (b lam + d lam^2)/a, kappa = (c/rho) lam^2 and
eps = (eta^2/(rho a)) lam^2.  For c > 0 all roots lie strictly in the left
half-plane; as lam grows the complex pair approaches the vertical line
Re z = -eta^2/(2 rho d).  That limit follows from the dominant-balance
factorization (z + mu)(z^2 + p z + q) with p -> eps/mu and was confirmed
numerically against companion-matrix eigenvalues before being used in any
check here.

Roots are found by the depressed-cubic trigonometric formula (three real
roots) or a cancellation-safe Cardano form (one real root plus a pair) and
then polished by Newton iterations in 80-bit extended precision, which
keeps the backward-error residual near machine level even for lam ~ 1e8
where coefficients span 32 orders of magnitude.  Each root takes at most
6 Newton steps: it stops unmoved at a zero derivative, and stops after a
step within 1e-20 max(|z|, 1) or a step that leaves its bits unchanged,
and each step runs on the roots still moving alone.  A discriminant that
cancels to exactly 0 classifies its cubic as three real only if the
roots, made real, still solve it.  Past lam of about 5e9 (with d > 0)
the roots spread beyond long double's precision and the depressed cubic
loses the small two: the cubics whose residual then exceeds 1e-10
restart from the large root and Vieta's relations.  `mode_spectra` runs
the solver on a whole array of lam at once, rescaling a cubic whose
coefficients would leave the float range.
"""

from __future__ import annotations

import numpy as np

from .model import ModelParams

THREE_REAL = "three real"
REAL_PLUS_PAIR = "one real + complex pair"
# cubics solved at once: the solver holds a few dozen long double arrays of
# three roots per cubic, so its working set stays fixed whatever the count
CUBIC_BATCH = 512


def characteristic_coefficients(params: ModelParams, lam: float | np.ndarray):
    """(mu, kappa, eps) = (h, sign(c) k^2, g^2) of one mode's characteristic
    cubic, or arrays of them for an array of lam."""
    if not (np.asarray(lam) > 0).all():
        raise ValueError(f"lam must be > 0, got {lam}")
    k, g, h = params.block_rates(lam)
    return h, k * k if params.c > 0 else -(k * k), g * g


def _horner(a2, a1, a0, z):
    """Cubic and its derivative at z, by extended-precision Horner."""
    p, dp = np.clongdouble(1.0), np.clongdouble(0.0)
    for c in (a2, a1, a0):
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _same_bits(x, y):
    """x == y with equal zero signs: the same long double bits."""
    return (x == y) & (np.signbit(x.real) == np.signbit(y.real)) & (np.signbit(x.imag) == np.signbit(y.imag))


def _polish(a2, a1, a0, z):
    """Newton's method from the starts z, at most 6 steps per root.

    A root stops unmoved where its derivative is 0, and stops after a step
    within 1e-20 max(|z|, 1) or a step that leaves it bit for bit unchanged
    (equal parts with equal zero signs: every later step would repeat that
    one).  Each step runs on the roots still moving alone, so every root
    ends where its own scalar loop would, whatever its neighbours do."""
    roots = np.array(z, dtype=np.clongdouble)
    # the coefficients in the roots' layout, cast once
    coeffs = [np.broadcast_to(c, roots.shape).astype(np.clongdouble).ravel() for c in (a2, a1, a0)]
    flat = roots.reshape(-1)
    moving = np.arange(flat.size)
    # the moving iterate, apart from the stored roots
    z = flat.copy()
    for _ in range(6):
        val, der = _horner(*coeffs, z)
        turns = der != 0
        step = val / der
        moved = np.where(turns, z - step, z)
        # |step| > 1e-20 max(|moved|, 1), and moved not bit for bit z
        size = abs(step)
        go = turns & (size > 1e-20 * abs(moved)) & (size > 1e-20) & ~_same_bits(moved, z)
        stop = ~go
        flat[moving[stop]] = moved[stop]
        moving, z, *coeffs = (x[go] for x in (moving, moved, *coeffs))
        if not moving.size:
            break
    flat[moving] = z
    return roots


def _residuals(a2, a1, a0, z):
    """|p(z)| normalized by the largest term magnitude."""
    val, _ = _horner(a2, a1, a0, z)
    r = abs(z)
    scale = r**3 + abs(a2) * r**2 + abs(a1) * r + abs(a0)
    return abs(val) / np.maximum(scale, np.longdouble(1e-300))


def _solve_cubics(a2, a1, a0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Roots of z^3 + a2 z^2 + a1 z + a0 for each element of the arrays.

    Returns the roots with a trailing axis of 3, each row sorted by
    (real, imag); the classification strings; and the residuals |p(z)|
    normalized by the largest term magnitude, residuals[..., i] belonging
    to roots[..., i].
    """
    a2, a1, a0 = np.longdouble(a2), np.longdouble(a1), np.longdouble(a0)
    shift = a2 / 3.0
    p = a1 - a2 * a2 / 3.0
    q = 2.0 * a2**3 / 27.0 - a2 * a1 / 3.0 + a0
    disc = -4.0 * p**3 - 27.0 * q * q
    three_real = disc >= 0

    # the starts: Cardano with the larger-magnitude cube root to avoid
    # cancellation, and the trigonometric form in its place where there are
    # three distinct real roots (disc > 0); then the Newton polish of the
    # three roots of every element at once
    with np.errstate(all="ignore"):
        s = np.sqrt(np.maximum(q * q / 4.0 + p**3 / 27.0, 0.0))
        u = np.cbrt(np.where(q >= 0, -q / 2.0 - s, -q / 2.0 + s))
        v = np.where(u == 0, np.longdouble(0.0), -p / (3.0 * u))
        t1 = u + v
        re = -t1 / 2.0 - shift
        im = 1j * (np.sqrt(np.longdouble(3.0)) / 2.0 * (u - v))
        start = np.array((np.clongdouble(t1 - shift), re + im, re - im))
        trig = np.flatnonzero(disc > 0)
        tp, tq, tshift = p[trig], q[trig], shift[trig]
        r = 2.0 * np.sqrt(-tp / 3.0)
        phi = np.arccos(np.clip(np.longdouble(3.0) * tq / (tp * r), -1.0, 1.0))
        start[:, trig] = [r * np.cos((phi - 2.0 * np.pi * k) / 3.0) - tshift for k in range(3)]
        z = _polish(a2, a1, a0, start)
        # disc = 0 may be cancellation's: a cubic whose roots, made real, no
        # longer solve it has a complex pair
        tie = np.flatnonzero(disc == 0)
        if tie.size:
            real = _residuals(a2[tie], a1[tie], a0[tie], z[:, tie].real)
            three_real[tie] = np.max(real, axis=0) <= 1e-9
        # roots too far apart for long double lose the small two in the
        # depressed cubic: those whose residual fails the 1e-10 gate restart
        # from the large root near -a2 and the pair's product and sum by
        # Vieta, z2 z3 = -a0/z1 and z2 + z3 = (a1 - z2 z3)/z1
        bad = np.flatnonzero(np.max(_residuals(a2, a1, a0, z), axis=0) > 1e-10)
        if bad.size:
            b2, b1, b0 = a2[bad], a1[bad], a0[bad]
            big = _polish(b2, b1, b0, np.clongdouble(-b2))
            total = (b1 + b0 / big) / big
            spread = total * total + 4.0 * b0 / big  # (z2 - z3)^2
            half = 0.5 * (total + np.where(total.real >= 0, 1.0, -1.0) * np.sqrt(spread))
            z[:, bad] = _polish(b2, b1, b0, np.array([big, half, -b0 / big / half]))
            three_real[bad] = spread.real >= 0
        polished = list(z)

    # real roots lose their imaginary part; the pair is made exactly conjugate
    zp, upper = polished[1].real, 1j * abs(polished[1].imag)
    polished = [
        np.clongdouble(polished[0].real),
        np.where(three_real, np.clongdouble(polished[1].real), zp + upper),
        np.where(three_real, np.clongdouble(polished[2].real), zp - upper),
    ]
    polished = np.array(polished)
    # one root per row of the (3, ...) stacks; .T puts the roots last
    roots = np.array(polished, dtype=complex).T
    residuals = np.array(_residuals(a2, a1, a0, polished), dtype=float).T
    # numpy orders complex numbers by (real, imag)
    order = np.argsort(roots, axis=-1, kind="stable")
    classification = np.where(three_real, THREE_REAL, REAL_PLUS_PAIR)
    return (
        np.take_along_axis(roots, order, axis=-1),
        classification,
        np.take_along_axis(residuals, order, axis=-1),
    )


def mode_spectra(params: ModelParams, lams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues of the mode blocks of every lam in one batched solve.

    Returns the (L, 3) roots, each row sorted by (real, imag), the (L,)
    classification strings, and the (L, 3) residuals of the roots.  A cubic
    whose mu, kappa + eps or kappa mu leaves the normal float range is
    solved for z / 2^k instead, k the nearest integer to log2(kappa mu)/3.
    The cubics go through the solver CUBIC_BATCH at a time; every step of
    it is elementwise, so no bit depends on the batch.
    """
    mu, kappa, eps = characteristic_coefficients(params, np.array(lams, dtype=float, ndmin=1))
    with np.errstate(all="ignore"):
        a1, a0 = kappa + eps, kappa * mu
        normal = [(np.finfo(float).tiny <= abs(x)) & (abs(x) < np.inf) for x in (mu, a1, a0)]
        normal[1] |= a1 == 0.0
        k = np.where(np.all(normal, axis=0), 0, np.round((np.log2(abs(kappa)) + np.log2(mu)) / 3.0)).astype(int)
        a2, a1, a0 = np.ldexp(mu, -k), np.ldexp(a1, -2 * k), np.ldexp(kappa, -k) * np.ldexp(mu, -2 * k)
        # one batch at least, so that no live mode gives empty arrays
        batches = [
            _solve_cubics(a2[lo : lo + CUBIC_BATCH], a1[lo : lo + CUBIC_BATCH], a0[lo : lo + CUBIC_BATCH])
            for lo in range(0, max(k.size, 1), CUBIC_BATCH)
        ]
        roots, kinds, residuals = (np.concatenate(parts) for parts in zip(*batches))
    roots[k != 0] *= np.ldexp(1.0, k[k != 0])[:, None]
    return roots, kinds, residuals
