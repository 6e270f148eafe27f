import math

import numpy as np
import pytest

from gradiplate import (
    ModelParams,
    NonDecreasingEnergy,
    NonPositiveEnergy,
    asymptotic_strip,
    cubic_roots,
    evolve,
    fit_decay,
    mode_eigenvalues,
    spectral_abscissa,
    state_from_coefficients,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_cubic
from gradiplate.errors import InsufficientSamples
from gradiplate.spectrum import (
    REAL_PLUS_PAIR,
    THREE_REAL,
    characteristic_coefficients,
    mode_spectra,
    row_max,
)
from oracles import bisect_real_root, companion_roots


def sorted_by_real_imag(roots):
    return sorted(roots, key=lambda z: (z.real, z.imag))


class TestCubicRoots:
    def test_unit_lambda_one_cubic(self, unit_params):
        mu, kappa, eps = characteristic_coefficients(unit_params, 1.0)
        assert (mu, kappa + eps, kappa * mu) == (2.0, 2.0, 2.0)
        roots, classification, residuals = cubic_roots(2.0, 2.0, 2.0)
        assert classification == REAL_PLUS_PAIR
        oracle = sorted_by_real_imag(companion_roots(2.0, 2.0, 2.0))
        for got, want in zip(roots, oracle):
            assert abs(got - want) <= 1e-8
        # published-style display values
        real = [z for z in roots if z.imag == 0][0]
        pair = [z for z in roots if z.imag > 0][0]
        assert real.real == pytest.approx(-1.5437, abs=1e-4)
        assert pair == pytest.approx(-0.2281 + 1.1151j, abs=1e-4)
        assert np.max(residuals) <= 1e-12

    def test_decoupled_roots_exact(self):
        """With eta = 0 the cubic factors into the heat root and the
        undamped plate pair."""
        params = ModelParams(2.0, 3.0, 0.5, 4.0, 0.25, 0.0)
        lam = 5.0
        spectrum = mode_eigenvalues(params, lam)
        mu = (params.b * lam + params.d * lam**2) / params.a
        freq = math.sqrt(params.c / params.rho) * lam
        expected = sorted_by_real_imag([-mu, 1j * freq, -1j * freq])
        for got, want in zip(spectrum.roots, expected):
            assert got == pytest.approx(want, abs=1e-12)

    def test_unstable_real_root_via_bisection(self):
        """c = -1 instability witness: z^3 + 2z^2 - 2 has a root in (0.8, 0.9)."""
        params = ModelParams(1.0, 1.0, 1.0, -1.0, 1.0, 1.0)
        mu, kappa, eps = characteristic_coefficients(params, 1.0)
        assert (mu, kappa + eps, kappa * mu) == (2.0, 0.0, -2.0)
        oracle = bisect_real_root(lambda z: z**3 + 2.0 * z**2 - 2.0, 0.8, 0.9)
        spectrum = mode_eigenvalues(params, 1.0)
        assert spectrum.max_real == pytest.approx(oracle, abs=1e-12)
        assert spectrum.max_real == pytest.approx(0.8393, abs=1e-4)

    def test_three_real_classification(self):
        # (z+1)(z+2)(z+4) = z^3 + 7z^2 + 14z + 8
        roots, classification, residuals = cubic_roots(7.0, 14.0, 8.0)
        assert classification == THREE_REAL
        assert np.allclose([z.real for z in roots], [-4.0, -2.0, -1.0], atol=1e-13)
        assert all(z.imag == 0 for z in roots)
        assert np.max(residuals) <= 1e-14

    def test_residuals_against_companion_oracle_sweep(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            a2, a1, a0 = rng.uniform(-10.0, 10.0, size=3)
            roots, _, residuals = cubic_roots(a2, a1, a0)
            assert np.max(residuals) <= 1e-12
            oracle = sorted_by_real_imag(companion_roots(a2, a1, a0))
            for got, want in zip(roots, oracle):
                assert abs(got - want) <= 1e-6 * max(1.0, abs(want))

    def test_extreme_lambda_residuals(self, unit_params):
        """Backward-error residuals stay at machine level up to lam = 1e8."""
        for lam in np.geomspace(1.0, 1e8, 60):
            spectrum = mode_eigenvalues(unit_params, float(lam))
            assert np.max(spectrum.residuals) <= 1e-10

    def test_coefficient_consistency(self, unit_params):
        """Root sums and products reproduce the cubic coefficients."""
        for lam in np.geomspace(0.5, 1e8, 40):
            mu, kappa, eps = characteristic_coefficients(unit_params, float(lam))
            r = mode_eigenvalues(unit_params, float(lam)).roots
            s1 = sum(z for z in r)
            s2 = r[0] * r[1] + r[0] * r[2] + r[1] * r[2]
            s3 = r[0] * r[1] * r[2]
            assert abs(s1.real + mu) <= 1e-9 * mu and abs(s1.imag) <= 1e-9 * mu
            assert abs(s2.real - (kappa + eps)) <= 1e-9 * (kappa + eps)
            assert abs(s3.real + kappa * mu) <= 1e-9 * kappa * mu


class TestSpectralAbscissa:
    def test_stable_negative_and_matches_modewise_max(self, unit_params, pi_interval):
        value = spectral_abscissa(unit_params, pi_interval, 64)
        per_mode = [
            mode_eigenvalues(unit_params, float(n * n)).max_real for n in range(1, 65)
        ]
        assert value == max(per_mode)
        assert value < 0.0

    def test_unstable_positive(self, pi_interval):
        params = ModelParams(1.0, 1.0, 1.0, -1.0, 1.0, 1.0)
        assert spectral_abscissa(params, pi_interval, 8) > 0.0

    def test_order_invariance(self, unit_params):
        lams = [9.0, 1.0, 4.0]
        values = [mode_eigenvalues(unit_params, lam).max_real for lam in lams]
        assert max(values) == max(reversed(values))


class TestAsymptoticStrip:
    def test_unit_limit_and_convergence(self, unit_params):
        report = asymptotic_strip(unit_params, np.geomspace(10.0, 1e6, 25))
        assert report.target == -0.5
        tail = report.gaps[report.lams >= 1e4]
        assert np.all(tail <= 1e-3)
        # monotone approach from above along this sweep
        assert report.pair_real[-1] == pytest.approx(-0.5, abs=1e-5)

    def test_eta_scaling_quadruples_limit(self):
        base = asymptotic_strip(ModelParams.unit(), [1e6]).target
        doubled = asymptotic_strip(ModelParams.unit(eta=2.0), [1e6]).target
        assert doubled == 4.0 * base
        # the computed pair tracks the scaled limit too
        got = asymptotic_strip(ModelParams.unit(eta=2.0), [1e7]).pair_real[-1]
        assert got == pytest.approx(-2.0, rel=1e-5)

    def test_pair_frequency_ratio(self):
        params = ModelParams(rho=4.0, a=1.0, b=1.0, c=9.0, d=1.0, eta=1.0)
        report = asymptotic_strip(params, [1e5, 1e6])
        ratio = report.pair_imag / report.lams
        assert np.allclose(ratio, math.sqrt(params.c / params.rho), rtol=1e-6)

    def test_requires_stable(self):
        with pytest.raises(ValueError):
            asymptotic_strip(ModelParams(1, 1, 1, -1.0, 1, 1), [10.0])


class TestFitDecay:
    def test_pure_heat_mode_rate_exact(self, pi_interval):
        params = ModelParams(rho=1.0, a=2.0, b=0.5, c=1.0, d=0.25, eta=0.0)
        lam = 1.0
        rate = (params.b * lam + params.d * lam**2) / params.a
        init = state_from_coefficients(pi_interval, 1, theta=[1.0])
        times = np.linspace(0.0, 20.0, 3001)
        fit = fit_decay(evolve(params, init, times), t_min=5.0)
        assert fit.gamma == pytest.approx(rate, rel=1e-10)
        assert fit.rms_residual <= 1e-10

    def test_multimode_gamma_close_to_abscissa(self, unit_params, pi_interval):
        init = state_from_coefficients(
            pi_interval, 8, u=[1.0, 0.2], theta=[0.5, 0.1, 0.05]
        )
        times = np.linspace(0.0, 50.0, 5001)
        fit = fit_decay(evolve(unit_params, init, times), t_min=5.0)
        abscissa = spectral_abscissa(unit_params, pi_interval, 8)
        assert fit.gamma > 0
        assert abs(fit.gamma - abs(abscissa)) / abs(abscissa) <= 0.05

    def test_zero_trajectory_rejected(self, unit_params, pi_interval):
        init = state_from_coefficients(pi_interval, 1)
        samples = evolve(unit_params, init, np.linspace(0.0, 10.0, 200))
        with pytest.raises(NonPositiveEnergy):
            fit_decay(samples)

    def test_growing_energy_rejected(self, pi_interval):
        params = ModelParams(1.0, 1.0, 1.0, -1.0, 1.0, 1.0)
        init = state_from_coefficients(pi_interval, 1, u=[0.0], v=[1.0], theta=[1.0])
        samples = evolve(params, init, np.linspace(0.0, 10.0, 300))
        with pytest.raises((NonDecreasingEnergy, NonPositiveEnergy)):
            fit_decay(samples)

    def test_short_window_rejected(self, unit_params, pi_interval):
        init = state_from_coefficients(pi_interval, 1, u=[1.0])
        samples = evolve(unit_params, init, np.linspace(0.0, 1.0, 50))
        with pytest.raises(InsufficientSamples):
            fit_decay(samples, t_min=5.0)


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


# b = 5 sqrt(5)/2, eta = 3, d = 0 and rho = a = c = 1 give a double root
# -sqrt(5) at lam = 1; nearby b and lam cross between the two branches
DOUBLE_ROOT_B = 5.0 * math.sqrt(5.0) / 2.0

general_params = st.builds(
    ModelParams,
    rho=log_uniform(0.1, 10.0),
    a=log_uniform(0.1, 10.0),
    b=log_uniform(0.1, 10.0),
    c=st.sampled_from((1.0, -1.0)).flatmap(lambda s: log_uniform(0.1, 10.0).map(lambda v: s * v)),
    d=st.one_of(st.just(0.0), log_uniform(0.01, 10.0)),
    eta=st.one_of(st.just(0.0), st.floats(-10.0, 10.0)),
)
near_double_root = st.floats(-1e-6, 1e-6).map(
    lambda e: ModelParams(1.0, 1.0, DOUBLE_ROOT_B * (1.0 + e), 1.0, 0.0, 3.0)
)
lam_lists = st.lists(log_uniform(1e-2, 1e10), min_size=1, max_size=30)
near_one = st.lists(st.floats(1.0 - 1e-6, 1.0 + 1e-6), min_size=1, max_size=10)


class TestBatchedRoots:
    """`mode_spectra` solves every lam at once, and `cubic_roots` one cubic
    on numpy scalars; both must give the scalar reference solver's answer,
    bit for bit."""

    @staticmethod
    def assert_matches_scalar_reference(params, lams):
        roots, classification, residuals = mode_spectra(params, lams)
        assert roots.shape == residuals.shape == (len(lams), 3)
        for k, lam in enumerate(lams):
            mu, kappa, eps = characteristic_coefficients(params, lam)
            ref_roots, ref_class, ref_res = scalar_cubic.cubic_roots(mu, kappa + eps, kappa * mu)
            assert roots[k].tobytes() == np.array(ref_roots).tobytes(), (params, lam)
            assert classification[k] == ref_class
            # the reference keeps the residuals in polishing order
            assert np.sort(residuals[k]).tobytes() == np.sort(ref_res).tobytes()
            # one cubic runs the same solver on numpy scalars
            one_roots, one_class, one_res = cubic_roots(mu, kappa + eps, kappa * mu)
            assert np.array(one_roots).tobytes() == roots[k].tobytes()
            assert one_class == ref_class
            assert one_res.tobytes() == residuals[k].tobytes()

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(params=general_params, lams=lam_lists)
    def test_equals_scalar_reference(self, params, lams):
        self.assert_matches_scalar_reference(params, lams)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(params=near_double_root, lams=near_one)
    def test_equals_scalar_reference_near_the_double_root(self, params, lams):
        self.assert_matches_scalar_reference(params, lams)

    def test_both_branches_meet_near_the_double_root(self):
        params = ModelParams(1.0, 1.0, DOUBLE_ROOT_B, 1.0, 0.0, 3.0)
        lams = [1.0 - 1e-9, 1.0, 1.0 + 1e-9]
        _, classification, _ = mode_spectra(params, lams)
        assert set(classification) == {THREE_REAL, REAL_PLUS_PAIR}
        self.assert_matches_scalar_reference(params, lams)

    def test_wrappers_are_rows_of_the_batch(self, unit_params):
        lams = np.geomspace(1.0, 1e8, 17)
        roots, classification, residuals = mode_spectra(unit_params, lams)
        for k, lam in enumerate(lams):
            spectrum = mode_eigenvalues(unit_params, float(lam))
            assert spectrum.roots == tuple(roots[k].tolist())
            assert spectrum.classification == classification[k]
            assert spectrum.residuals.tobytes() == residuals[k].tobytes()

    def test_rejects_nonpositive_lambda(self, unit_params):
        with pytest.raises(ValueError):
            mode_spectra(unit_params, [1.0, 0.0])

    def test_strip_reads_the_upper_pair_member(self, unit_params):
        lams = np.geomspace(10.0, 1e6, 25)
        report = asymptotic_strip(unit_params, lams)
        for k, lam in enumerate(lams):
            pair = mode_eigenvalues(unit_params, float(lam)).pair
            assert (report.pair_real[k], report.pair_imag[k]) == (pair.real, pair.imag)

    def test_row_max_keeps_the_first_maximal_entry(self):
        values = np.array([[-0.0, 0.0], [0.0, -0.0], [-1.0, 2.0]])
        got = row_max(values)
        assert np.signbit(got).tolist() == [True, False, False]
        assert got[2] == 2.0
