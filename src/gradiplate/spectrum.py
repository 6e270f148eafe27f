"""Mode spectra from the characteristic cubic, abscissa, strip, decay fits.

Each 3x3 forward block has characteristic polynomial

    z^3 + mu z^2 + (kappa + eps) z + kappa mu

with mu = (b lam + d lam^2)/a, kappa = (c/rho) lam^2,
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
where coefficients span 32 orders of magnitude.  One solver serves every
caller: `mode_spectra` runs it on a whole array of lam at once, and the
one-mode functions run it on scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import InsufficientSamples, NonDecreasingEnergy, NonPositiveEnergy
from .model import ModelParams, SpectralDomain, enumerate_modes

if TYPE_CHECKING:
    from .propagator import Trajectory

THREE_REAL = "three real"
REAL_PLUS_PAIR = "one real + complex pair"


def characteristic_coefficients(params: ModelParams, lam: float | np.ndarray):
    """(mu, kappa, eps) composites of one mode's characteristic cubic, or
    arrays of them for an array of lam."""
    if not (np.asarray(lam) > 0).all():
        raise ValueError(f"lam must be > 0, got {lam}")
    mu = params.heat_weight(lam) / params.a
    kappa = (params.c / params.rho) * lam * lam
    eps = (params.eta**2 / (params.rho * params.a)) * lam * lam
    return mu, kappa, eps


def _horner(a2, a1, a0, z):
    """Cubic and its derivative at z, by extended-precision Horner."""
    p, dp = np.clongdouble(1.0), np.clongdouble(0.0)
    for c in (a2, a1, a0):
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _pick(mask, a, b):
    """np.where(mask, a, b).  A numpy-scalar mask (a single cubic) takes a
    plain choice instead: np.where would cost more than the arithmetic."""
    if isinstance(mask, np.ndarray):
        return np.where(mask, a, b)
    return a if mask else b


def _solve_cubics(a2, a1, a0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Roots of z^3 + a2 z^2 + a1 z + a0 for each element of the arrays.

    Returns the roots with a trailing axis of 3, each row sorted by
    (real, imag); the classification strings; and the residuals |p(z)|
    normalized by the largest term magnitude, residuals[..., i] belonging
    to roots[..., i].  Scalar coefficients run as numpy scalars, so one
    cubic costs about what a scalar loop would.
    """
    a2, a1, a0 = np.longdouble(a2), np.longdouble(a1), np.longdouble(a0)
    shift = a2 / 3.0
    p = a1 - a2 * a2 / 3.0
    q = 2.0 * a2**3 / 27.0 - a2 * a1 / 3.0 + a0
    disc = -4.0 * p**3 - 27.0 * q * q
    three_real = disc >= 0

    # every element runs both starts and keeps its own: the trigonometric
    # form for three distinct real roots (disc > 0), else Cardano with the
    # larger-magnitude cube root to avoid cancellation; then the Newton
    # polish, at most 6 steps per root, a root stopping unmoved at a zero
    # derivative or after a step within 1e-20 max(|z|, 1)
    polished = []
    with np.errstate(all="ignore"):
        r = 2.0 * np.sqrt(-p / 3.0)
        phi = np.arccos(np.clip(np.longdouble(3.0) * q / (p * r), -1.0, 1.0))
        s = np.sqrt(np.maximum(q * q / 4.0 + p**3 / 27.0, 0.0))
        u = np.cbrt(_pick(q >= 0, -q / 2.0 - s, -q / 2.0 + s))
        v = _pick(u == 0, np.longdouble(0.0), -p / (3.0 * u))
        t1 = u + v
        re = -t1 / 2.0 - shift
        im = 1j * (np.sqrt(np.longdouble(3.0)) / 2.0 * (u - v))
        cardano = (np.clongdouble(t1 - shift), re + im, re - im)
        for k in range(3):
            trig = np.clongdouble(r * np.cos((phi - 2.0 * np.pi * k) / 3.0) - shift)
            z = _pick(disc > 0, trig, cardano[k])
            live = True
            for _ in range(6):
                val, der = _horner(a2, a1, a0, z)
                live = live & (der != 0)
                step = val / der
                moved = z - step
                z = _pick(live, moved, z)
                # |step| > 1e-20 max(|moved|, 1), without a ufunc call
                size = abs(step)
                live = live & (size > 1e-20 * abs(moved)) & (size > 1e-20)
                if not (live.any() if isinstance(live, np.ndarray) else live):
                    break
            polished.append(z)

    # real roots lose their imaginary part; the pair is made exactly conjugate
    zp, upper = polished[1].real, 1j * abs(polished[1].imag)
    polished = [
        np.clongdouble(polished[0].real),
        _pick(three_real, np.clongdouble(polished[1].real), zp + upper),
        _pick(three_real, np.clongdouble(polished[2].real), zp - upper),
    ]
    residuals = []
    floor = np.longdouble(1e-300)
    for z in polished:
        val, _ = _horner(a2, a1, a0, z)
        scale = abs(z) ** 3 + abs(a2) * abs(z) ** 2 + abs(a1) * abs(z) + abs(a0)
        residuals.append(abs(val) / _pick(floor > scale, floor, scale))

    # one root per row of the (3, ...) stacks; .T puts the roots last
    roots = np.array(polished, dtype=complex).T
    residuals = np.array(residuals, dtype=float).T
    # numpy orders complex numbers by (real, imag)
    order = np.argsort(roots, axis=-1, kind="stable")
    classification = np.where(three_real, THREE_REAL, REAL_PLUS_PAIR)
    return (
        np.take_along_axis(roots, order, axis=-1),
        classification,
        np.take_along_axis(residuals, order, axis=-1),
    )


def cubic_roots(a2: float, a1: float, a0: float) -> tuple[tuple[complex, complex, complex], str, np.ndarray]:
    """Roots of z^3 + a2 z^2 + a1 z + a0, classification, and residuals.

    Returns roots sorted by (real, imag), the classification string, and
    the per-root residuals |p(z)| normalized by the largest term magnitude.
    """
    roots, classification, residuals = _solve_cubics(a2, a1, a0)
    return tuple(roots.tolist()), classification.item(), residuals


def mode_spectra(params: ModelParams, lams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues of the mode blocks of every lam in one batched solve.

    Returns the (L, 3) roots, each row sorted by (real, imag), the (L,)
    classification strings, and the (L, 3) residuals of the roots.
    """
    mu, kappa, eps = characteristic_coefficients(params, np.array(lams, dtype=float, ndmin=1))
    return _solve_cubics(mu, kappa + eps, kappa * mu)


def row_max(values: np.ndarray) -> np.ndarray:
    """Max over the last axis, taking the first maximal entry as Python's
    max() does, so a -0.0 tied with 0.0 keeps its sign."""
    first = np.argmax(values, axis=-1)[..., None]
    return np.take_along_axis(values, first, axis=-1)[..., 0]


@dataclass(frozen=True)
class ModeSpectrum:
    """Eigenvalues of one mode block with their backward-error residuals."""

    lam: float
    roots: tuple[complex, complex, complex]
    classification: str
    residuals: np.ndarray

    @property
    def max_real(self) -> float:
        return max(z.real for z in self.roots)

    @property
    def pair(self) -> complex | None:
        """The upper-half-plane member of the complex pair, if present."""
        for z in self.roots:
            if z.imag > 0:
                return z
        return None


def mode_eigenvalues(params: ModelParams, lam: float) -> ModeSpectrum:
    mu, kappa, eps = characteristic_coefficients(params, lam)
    roots, classification, residuals = cubic_roots(mu, kappa + eps, kappa * mu)
    return ModeSpectrum(lam, roots, classification, residuals)


def spectral_abscissa(params: ModelParams, domain: SpectralDomain, mode_count: int) -> float:
    """Max real part of any eigenvalue over the first mode_count modes."""
    if mode_count < 1:
        raise ValueError("mode_count must be >= 1")
    lams = [mode.lam for mode in enumerate_modes(domain, mode_count)]
    roots, _, _ = mode_spectra(params, lams)
    return float(row_max(row_max(roots.real)))


@dataclass(frozen=True)
class StripReport:
    """Complex-pair real parts along an eigenvalue sweep.

    `target` is the verified dominant-balance limit -eta^2/(2 rho d);
    `gaps` are |pair_real - target| (absolute).  Entries whose block has
    three real roots carry NaN and are excluded from `gap_at_end`.
    """

    lams: np.ndarray
    pair_real: np.ndarray
    pair_imag: np.ndarray
    target: float
    gaps: np.ndarray
    gap_at_end: float


def asymptotic_strip(params: ModelParams, lams: Sequence[float]) -> StripReport:
    if not params.c > 0:
        raise ValueError("asymptotic strip requires c > 0")
    if params.d == 0:
        raise ValueError("asymptotic strip requires d > 0")
    lams = np.asarray(lams, dtype=float)
    roots, _, _ = mode_spectra(params, lams)
    # a row has at most one root above the real axis: its pair's upper member
    upper = roots.imag > 0
    has_pair = upper.any(axis=-1)
    pair_real = np.full(lams.shape, np.nan)
    pair_imag = np.full(lams.shape, np.nan)
    pair_real[has_pair] = roots.real[upper]
    pair_imag[has_pair] = roots.imag[upper]
    target = -params.eta**2 / (2.0 * params.rho * params.d)
    gaps = np.abs(pair_real - target)
    finite = gaps[np.isfinite(gaps)]
    gap_at_end = float(finite[-1]) if finite.size else math.nan
    return StripReport(lams, pair_real, pair_imag, target, gaps, gap_at_end)


@dataclass(frozen=True)
class DecayFit:
    """Least-squares exponential fit E(t) ~ prefactor * exp(-2 gamma t)."""

    gamma: float
    prefactor: float
    rms_residual: float
    window: tuple[float, float]
    n_samples: int


def fit_decay(trajectory: Trajectory, t_min: float = 5.0) -> DecayFit:
    """Fit the decay rate of total energy on the window t >= t_min.

    The default window discards the multi-exponential transient; the tail
    of a stable trajectory is log-linear.  Energies on the window must be
    strictly positive and strictly decreasing.
    """
    t, e = trajectory.t, trajectory.total
    mask = t >= t_min
    t, e = t[mask], e[mask]
    if t.size < 10:
        raise InsufficientSamples(f"need >= 10 samples with t >= {t_min}, got {t.size}")
    if np.any(e <= 0):
        raise NonPositiveEnergy("energies must be strictly positive on the fit window")
    if np.any(np.diff(e) >= 0):
        raise NonDecreasingEnergy("energies must decrease strictly on the fit window")
    log_e = np.log(e)
    slope, intercept = np.polyfit(t, log_e, 1)
    fitted = slope * t + intercept
    rms = float(np.sqrt(np.mean((log_e - fitted) ** 2)))
    return DecayFit(
        gamma=float(-slope / 2.0),
        prefactor=float(np.exp(intercept)),
        rms_residual=rms,
        window=(float(t[0]), float(t[-1])),
        n_samples=int(t.size),
    )
