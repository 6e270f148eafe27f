import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import gradiplate.spectrum as spectrum
import scalar_cubic
from gradiplate.abscissa import row_max, spectral_abscissa
from gradiplate.model import ModelParams, enumerate_modes
from gradiplate.spectrum import (
    REAL_PLUS_PAIR,
    THREE_REAL,
    _solve_cubics,
    characteristic_coefficients,
    mode_spectra,
)
from oracles import bisect_real_root, companion_roots
from states import evolve, initial


def sorted_by_real_imag(roots):
    return sorted(roots, key=lambda z: (z.real, z.imag))


def one_cubic(a2, a1, a0):
    """Roots, classification and residuals of z^3 + a2 z^2 + a1 z + a0 from
    the batched solver, as one row."""
    roots, classification, residuals = _solve_cubics(np.array([a2]), np.array([a1]), np.array([a0]))
    return tuple(roots[0].tolist()), classification[0], residuals[0]


def upper_pair(params, lams):
    """The upper member of each lam's complex pair, NaN where the block has
    three real roots."""
    roots, _, _ = mode_spectra(params, lams)
    upper = roots.imag > 0  # at most one root of a row is above the real axis
    pair = np.full(len(lams), np.nan + 0j)
    pair[upper.any(axis=1)] = roots[upper]
    return pair


def log_rate(trajectory, t_min):
    """gamma and the rms residual of the least-squares fit
    E(t) ~ exp(-2 gamma t) on t >= t_min."""
    mask = trajectory.t >= t_min
    t, log_e = trajectory.t[mask], np.log(trajectory.total[mask])
    slope, intercept = np.polyfit(t, log_e, 1)
    return -slope / 2.0, float(np.sqrt(np.mean((log_e - (slope * t + intercept)) ** 2)))


class TestCubicRoots:
    def test_unit_lambda_one_cubic(self, unit_params):
        mu, kappa, eps = characteristic_coefficients(unit_params, 1.0)
        assert (mu, kappa + eps, kappa * mu) == (2.0, 2.0, 2.0)
        roots, classification, residuals = (x[0] for x in mode_spectra(unit_params, [1.0]))
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
        roots, _, _ = mode_spectra(params, [lam])
        mu = (params.b * lam + params.d * lam**2) / params.a
        freq = math.sqrt(params.c / params.rho) * lam
        expected = sorted_by_real_imag([-mu, 1j * freq, -1j * freq])
        for got, want in zip(roots[0], expected):
            assert got == pytest.approx(want, abs=1e-12)

    def test_unstable_real_root_via_bisection(self):
        """c = -1 instability witness: z^3 + 2z^2 - 2 has a root in (0.8, 0.9)."""
        params = ModelParams(1.0, 1.0, 1.0, -1.0, 1.0, 1.0)
        mu, kappa, eps = characteristic_coefficients(params, 1.0)
        assert (mu, kappa + eps, kappa * mu) == (2.0, 0.0, -2.0)
        oracle = bisect_real_root(lambda z: z**3 + 2.0 * z**2 - 2.0, 0.8, 0.9)
        max_real = np.max(mode_spectra(params, [1.0])[0].real)
        assert max_real == pytest.approx(oracle, abs=1e-12)
        assert max_real == pytest.approx(0.8393, abs=1e-4)

    def test_three_real_classification(self):
        # (z+1)(z+2)(z+4) = z^3 + 7z^2 + 14z + 8
        roots, classification, residuals = one_cubic(7.0, 14.0, 8.0)
        assert classification == THREE_REAL
        assert np.allclose([z.real for z in roots], [-4.0, -2.0, -1.0], atol=1e-13)
        assert all(z.imag == 0 for z in roots)
        assert np.max(residuals) <= 1e-14

    def test_residuals_against_companion_oracle_sweep(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            a2, a1, a0 = rng.uniform(-10.0, 10.0, size=3)
            roots, _, residuals = one_cubic(a2, a1, a0)
            assert np.max(residuals) <= 1e-12
            oracle = sorted_by_real_imag(companion_roots(a2, a1, a0))
            for got, want in zip(roots, oracle):
                assert abs(got - want) <= 1e-6 * max(1.0, abs(want))

    def test_extreme_lambda_residuals(self, unit_params):
        """Backward-error residuals stay at machine level up to lam = 1e8."""
        _, _, residuals = mode_spectra(unit_params, np.geomspace(1.0, 1e8, 60))
        assert np.max(residuals) <= 1e-10

    def test_extreme_lambda_residuals_past_the_restart(self, unit_params):
        """Up to lam = 1e13, where the cubics past about 5e9 restart from
        Vieta's relations, the residuals stay within the 1e-10 gate too,
        also at the two lams of this grid near 1e11 whose first polish
        lands between 1e-10 and 1e-9."""
        lams = np.geomspace(1.0, 1e13, 400)
        _, _, residuals = mode_spectra(unit_params, lams)
        assert np.max(residuals) <= 1e-10
        # the grid reaches the cubics whose depressed form loses the pair
        mu, kappa, eps = characteristic_coefficients(unit_params, lams[-1])
        assert np.max(scalar_cubic.cubic_roots(mu, kappa + eps, kappa * mu)[2]) > 1e-9

    def test_discriminant_cancelled_to_zero_keeps_the_pair(self, unit_params):
        """At this lam the depressed cubic's discriminant cancels to exactly
        0, yet the roots are about -mu and the pair -1/2 +- i lam: the
        cubic keeps its pair and does not read as three real."""
        lam = 24374441501.222218
        roots, classification, residuals = mode_spectra(unit_params, [lam])
        assert classification[0] == REAL_PLUS_PAIR
        assert np.max(residuals) <= 1e-15
        assert roots[0, 1:].real == pytest.approx([-0.5, -0.5], rel=1e-9)
        assert roots[0, 1:].imag == pytest.approx([-lam, lam], rel=1e-9)

    def test_coefficient_consistency(self, unit_params):
        """Root sums and products reproduce the cubic coefficients."""
        lams = np.geomspace(0.5, 1e8, 40)
        for lam, r in zip(lams, mode_spectra(unit_params, lams)[0]):
            mu, kappa, eps = characteristic_coefficients(unit_params, float(lam))
            s1 = sum(z for z in r)
            s2 = r[0] * r[1] + r[0] * r[2] + r[1] * r[2]
            s3 = r[0] * r[1] * r[2]
            assert abs(s1.real + mu) <= 1e-9 * mu and abs(s1.imag) <= 1e-9 * mu
            assert abs(s2.real - (kappa + eps)) <= 1e-9 * (kappa + eps)
            assert abs(s3.real + kappa * mu) <= 1e-9 * kappa * mu


class TestFloatRange:
    """Roots where the cubic's coefficients leave the float range (kappa mu
    past 1e308 or below 1e-308) or its roots spread past long double's
    precision (d lam^2 against sqrt(c/rho) lam), against mpmath's roots of
    the exact float coefficients."""

    @pytest.mark.parametrize("lam", [1e-150, 1e-100, 1e10, 1e77, 1e80, 1e150])
    @pytest.mark.parametrize("params", [
        ModelParams.unit(), ModelParams.unit(c=-1.0), ModelParams.unit(d=0.0),
        ModelParams(0.7, 1.3, 3.0, 2.0, 0.5, 2.0),
    ])
    def test_roots_against_mpmath(self, params, lam):
        import mpmath

        roots, _, residuals = mode_spectra(params, [lam])
        with mpmath.workdps(60):
            lam_mp = mpmath.mpf(lam)
            mu = (params.b * lam_mp + params.d * lam_mp**2) / params.a
            kappa = mpmath.mpf(params.c) / params.rho * lam_mp**2
            eps = mpmath.mpf(params.eta) ** 2 / (params.rho * params.a) * lam_mp**2
            scale = mpmath.cbrt(abs(kappa * mu))
            ref = [scale * w for w in mpmath.polyroots(
                [1, mu / scale, (kappa + eps) / scale**2, kappa * mu / scale**3], maxsteps=200, extraprec=200
            )]
        for got in roots[0]:
            assert min(abs(got - complex(want)) / abs(complex(want)) for want in ref) <= 1e-13
        assert np.max(residuals) <= 1e-15


class TestSpectralAbscissa:
    def test_stable_negative_and_matches_modewise_max(self, unit_params, pi_interval):
        value = spectral_abscissa(unit_params, enumerate_modes(pi_interval, 64))
        roots, _, _ = mode_spectra(unit_params, [float(n * n) for n in range(1, 65)])
        per_mode = [max(z.real for z in row) for row in roots.tolist()]
        assert value == max(per_mode)
        assert value < 0.0

    def test_unstable_positive(self, pi_interval):
        params = ModelParams(1.0, 1.0, 1.0, -1.0, 1.0, 1.0)
        assert spectral_abscissa(params, enumerate_modes(pi_interval, 8)) > 0.0

    def test_order_invariance(self, unit_params):
        lams = [9.0, 1.0, 4.0]
        forward = np.max(mode_spectra(unit_params, lams)[0].real)
        assert forward == np.max(mode_spectra(unit_params, lams[::-1])[0].real)


class TestAsymptoticStrip:
    """The complex pair approaches the line Re z = -eta^2/(2 rho d)."""

    def test_unit_limit_and_convergence(self, unit_params):
        lams = np.geomspace(10.0, 1e6, 25)
        target = -unit_params.eta**2 / (2.0 * unit_params.rho * unit_params.d)
        assert target == -0.5
        pair = upper_pair(unit_params, lams)
        tail = np.abs(pair.real - target)[lams >= 1e4]
        assert np.all(tail <= 1e-3)
        # monotone approach from above along this sweep
        assert pair[-1].real == pytest.approx(-0.5, abs=1e-5)

    def test_eta_scaling_quadruples_limit(self):
        base = upper_pair(ModelParams.unit(), [1e7])[0].real
        doubled = upper_pair(ModelParams.unit(eta=2.0), [1e7])[0].real
        assert doubled == pytest.approx(4.0 * base, rel=1e-5)
        # the computed pair tracks the scaled limit too
        assert doubled == pytest.approx(-2.0, rel=1e-5)

    def test_pair_frequency_ratio(self):
        params = ModelParams(rho=4.0, a=1.0, b=1.0, c=9.0, d=1.0, eta=1.0)
        lams = np.array([1e5, 1e6])
        ratio = upper_pair(params, lams).imag / lams
        assert np.allclose(ratio, math.sqrt(params.c / params.rho), rtol=1e-6)


class TestFitDecay:
    """The rate of a log-linear fit to the tail of E(t)."""

    def test_pure_heat_mode_rate_exact(self, pi_interval):
        params = ModelParams(rho=1.0, a=2.0, b=0.5, c=1.0, d=0.25, eta=0.0)
        lam = 1.0
        rate = (params.b * lam + params.d * lam**2) / params.a
        init = initial(pi_interval, 1, theta=[1.0])
        times = np.linspace(0.0, 20.0, 3001)
        gamma, rms_residual = log_rate(evolve(params, *init, times), t_min=5.0)
        assert gamma == pytest.approx(rate, rel=1e-10)
        assert rms_residual <= 1e-10

    def test_multimode_gamma_close_to_abscissa(self, unit_params, pi_interval):
        init = initial(
            pi_interval, 8, u=[1.0, 0.2], theta=[0.5, 0.1, 0.05]
        )
        times = np.linspace(0.0, 50.0, 5001)
        gamma, _ = log_rate(evolve(unit_params, *init, times), t_min=5.0)
        abscissa = spectral_abscissa(unit_params, init[0])
        assert gamma > 0
        assert abs(gamma - abs(abscissa)) / abs(abscissa) <= 0.05


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
    """`mode_spectra` solves every lam at once and must give the scalar
    reference solver's answer, bit for bit, wherever the reference solves
    the cubic (from lam of about 5e9 on, with d > 0, it loses the pair)."""

    @staticmethod
    def assert_matches_scalar_reference(params, lams):
        roots, classification, residuals = mode_spectra(params, lams)
        assert roots.shape == residuals.shape == (len(lams), 3)
        for k, lam in enumerate(lams):
            mu, kappa, eps = characteristic_coefficients(params, lam)
            ref_roots, ref_class, ref_res = scalar_cubic.cubic_roots(mu, kappa + eps, kappa * mu)
            if max(ref_res) > 1e-10:  # roots too far apart for the reference: the restart's
                assert np.max(residuals[k]) <= 1e-15, (params, lam)
                continue
            assert roots[k].tobytes() == np.array(ref_roots).tobytes(), (params, lam)
            assert classification[k] == ref_class
            # the reference keeps the residuals in polishing order
            assert np.sort(residuals[k]).tobytes() == np.sort(ref_res).tobytes()

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

    def test_bench_grid_equals_scalar_reference(self, unit_params):
        """Every row of the bench's 2,000-lambda grid up to 1e8, bit for bit:
        the reference solves each of its cubics, so no row is skipped."""
        self.assert_matches_scalar_reference(unit_params, np.geomspace(1.0, 1e8, 2000))

    def test_polish_steps_only_moving_roots(self, unit_params, monkeypatch):
        """On the bench grid about half of the 2,000 x 3 roots x 6 Newton
        steps would repeat a settled root; the polish evaluates only the
        roots still moving."""
        evaluated, inside = [], []
        horner, polish = spectrum._horner, spectrum._polish

        def counting_horner(a2, a1, a0, z):
            if inside:
                evaluated.append(np.size(z))
            return horner(a2, a1, a0, z)

        def flagged_polish(*args):
            inside.append(True)
            try:
                return polish(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(spectrum, "_horner", counting_horner)
        monkeypatch.setattr(spectrum, "_polish", flagged_polish)
        mode_spectra(unit_params, np.geomspace(1.0, 1e8, 2000))
        assert 6_000 <= sum(evaluated) <= 18_000

    def test_rejects_nonpositive_lambda(self, unit_params):
        with pytest.raises(ValueError):
            mode_spectra(unit_params, [1.0, 0.0])

    def test_rows_do_not_depend_on_the_batch(self, unit_params):
        """A spectrum CSV row is the same whatever lambda_points puts
        beside it."""
        lams = np.geomspace(1.0, 1e8, 17)
        roots, classification, residuals = mode_spectra(unit_params, lams)
        for k, lam in enumerate(lams):
            one = mode_spectra(unit_params, [lam])
            assert one[0].tobytes() == roots[k].tobytes()
            assert one[1][0] == classification[k]
            assert one[2].tobytes() == residuals[k].tobytes()

    def test_row_max_keeps_the_first_maximal_entry(self):
        values = np.array([[-0.0, 0.0], [0.0, -0.0], [-1.0, 2.0]])
        got = row_max(values)
        assert np.signbit(got).tolist() == [True, False, False]
        assert got[2] == 2.0
