import math

import numpy as np
import pytest

from gradiplate.errors import DegenerateCapacity
from gradiplate.model import Interval, ModelParams, enumerate_modes
from gradiplate.quasistatic import effective_capacity, quasi_decay_report
from oracles import rk_scalar_decay


def quasi(c=-2.0, **overrides):
    return ModelParams.unit(c=c, **overrides)


def decay(params, theta0, t_grid):
    """The decay report of theta0 over the first modes of the unit interval."""
    return quasi_decay_report(params, enumerate_modes(Interval(1.0), len(theta0)), theta0, t_grid)


class TestEffectiveCapacity:
    def test_value(self):
        assert effective_capacity(quasi()) == 0.5

    def test_negative_rejected(self):
        with pytest.raises(DegenerateCapacity):
            effective_capacity(ModelParams(1.0, 1.0, 1.0, -2.0, 1.0, 2.0))

    def test_boundary_zero_rejected(self):
        with pytest.raises(DegenerateCapacity):
            effective_capacity(ModelParams(1.0, 1.0, 1.0, -1.0, 1.0, 1.0))

    def test_requires_negative_c(self, unit_params):
        with pytest.raises(ValueError):
            effective_capacity(unit_params)


class TestScalarEvolution:
    """The exact per-mode decay, read off the decay report's columns."""

    def test_rate_matches_adaptive_ode_oracle(self):
        params = quasi()
        lam1 = math.pi**2
        rate1 = (params.b * lam1 + params.d * lam1**2) / effective_capacity(params)
        assert rate1 == pytest.approx(2.0 * (math.pi**2 + math.pi**4), rel=1e-15)
        t = 0.02
        report = decay(params, [1.0], (t / 10) * np.arange(11))
        oracle = rk_scalar_decay(rate1, 1.0, report.t[-1])
        assert math.sqrt(report.theta_l2_sq[-1]) == pytest.approx(oracle, rel=1e-10)

    def test_plate_recovery_factor(self):
        # c = -2: u_n = -eta theta_n/(c lam_n) = theta_n/(2 lam_n), so
        # lam_1^2 u_1^2 = theta_1^2 / 4
        report = decay(quasi(), [1.0], 1e-4 * np.arange(11))
        assert report.h2_seminorm == pytest.approx(report.theta_l2_sq / 4.0, rel=1e-14)

    def test_elliptic_relation_residual(self):
        """c u_xx = eta theta per mode, at t = 0, 0.001, ..., 0.01."""
        report = decay(quasi(b=0.3, d=0.7, eta=-0.5), [1.0, -0.5, 0.25], 1e-3 * np.arange(11))
        assert report.relation_residual_max <= 1e-12

    def test_rates_strictly_increasing(self):
        """The decay rates heat_weight(lam_n) / a_eff, whose first excited
        mode sets the tail."""
        params = quasi()
        rates = params.heat_weight(enumerate_modes(Interval(1.0), 7)) / effective_capacity(params)
        assert np.all(np.diff(rates) > 0)

    def test_rate1_is_the_weight_of_the_first_mode(self):
        params = quasi(b=0.3, d=0.7, eta=-0.5)
        report = decay(params, [0.0, 1.0], 1e-3 * np.arange(11))
        (lam1,) = enumerate_modes(Interval(1.0), 1).tolist()
        assert report.rate1 == params.heat_weight(lam1) / effective_capacity(params)


class TestQuasiDecayReport:
    def grid(self, t_end=0.02, n=200):
        return (t_end / n) * np.arange(n + 1)

    def test_single_mode_rate_is_twice_mode_rate(self):
        report = decay(quasi(), [1.0], self.grid())
        assert report.fit_rel_residual <= 1e-6
        assert report.fitted_rate == pytest.approx(2.0 * report.rate1, rel=1e-6)

    def test_zero_data_all_zero(self):
        report = decay(quasi(), [0.0], self.grid())
        assert np.all(report.h2_seminorm == 0.0)
        assert np.all(report.theta_l2_sq == 0.0)
        assert report.envelope_holds

    def test_multimode_tail_dominated_by_first_mode(self):
        report = decay(quasi(), [1.0, 0.8, 0.5], self.grid())
        assert report.fit_rel_residual <= 1e-6

    def test_envelope_and_schwarz(self):
        report = decay(quasi(b=2.0, d=0.5, eta=-0.8), [1.0, -0.4], self.grid(t_end=0.01))
        assert report.envelope_holds
        assert report.k_measured > 0.0
        assert report.schwarz_max_ratio <= 1.0 + 1e-12

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            decay(quasi(), [1.0], np.array([0.0, 0.1, 0.05, 0.2]))
        with pytest.raises(ValueError):
            decay(quasi(), [1.0], np.array([0.0, 0.1]))

    def test_one_coefficient_per_mode(self):
        lams = enumerate_modes(Interval(1.0), 2)
        with pytest.raises(ValueError, match="one theta0 coefficient per mode"):
            quasi_decay_report(quasi(), lams, [1.0], self.grid())
