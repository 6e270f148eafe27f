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
where coefficients span 32 orders of magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InsufficientSamples, NonDecreasingEnergy, NonPositiveEnergy
from .model import ModelParams, SpectralDomain, enumerate_modes
from .propagator import Trajectory

THREE_REAL = "three real"
REAL_PLUS_PAIR = "one real + complex pair"


def characteristic_coefficients(params: ModelParams, lam: float) -> tuple[float, float, float]:
    """(mu, kappa, eps) composites of one mode's characteristic cubic."""
    if not lam > 0:
        raise ValueError(f"lam must be > 0, got {lam}")
    mu = params.heat_weight(lam) / params.a
    kappa = (params.c / params.rho) * lam * lam
    eps = (params.eta**2 / (params.rho * params.a)) * lam * lam
    return mu, kappa, eps


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
    the per-root residuals |p(z)| normalized by the largest term magnitude.
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
    return max(
        mode_eigenvalues(params, mode.lam).max_real
        for mode in enumerate_modes(domain, mode_count)
    )


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
    pair_real = np.full(lams.shape, np.nan)
    pair_imag = np.full(lams.shape, np.nan)
    for i, lam in enumerate(lams):
        z = mode_eigenvalues(params, float(lam)).pair
        if z is not None:
            pair_real[i] = z.real
            pair_imag[i] = z.imag
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
