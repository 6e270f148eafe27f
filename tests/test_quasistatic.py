import math

import numpy as np
import pytest

from gradiplate import (
    DegenerateCapacity,
    ModelParams,
    QuasiParams,
    effective_capacity,
    quasi_decay_report,
)
from oracles import rk_scalar_decay


def quasi(c=-2.0, **overrides):
    return ModelParams.unit(c=c, **overrides)


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
        qp = QuasiParams.from_params(quasi())
        lam1 = math.pi**2
        rate1 = (qp.params.b * lam1 + qp.params.d * lam1**2) / qp.a_eff
        assert rate1 == pytest.approx(2.0 * (math.pi**2 + math.pi**4), rel=1e-15)
        t = 0.02
        report = quasi_decay_report(qp, [1.0], (t / 10) * np.arange(11))
        oracle = rk_scalar_decay(rate1, 1.0, report.t[-1])
        assert math.sqrt(report.theta_l2_sq[-1]) == pytest.approx(oracle, rel=1e-10)

    def test_plate_recovery_factor(self):
        # c = -2: u_n = -eta theta_n/(c lam_n) = theta_n/(2 lam_n), so
        # lam_1^2 u_1^2 = theta_1^2 / 4
        qp = QuasiParams.from_params(quasi())
        report = quasi_decay_report(qp, [1.0], 1e-4 * np.arange(11))
        assert report.h2_seminorm == pytest.approx(report.theta_l2_sq / 4.0, rel=1e-14)

    def test_elliptic_relation_residual(self):
        """c u_xx = eta theta per mode, at t = 0, 0.001, ..., 0.01."""
        qp = QuasiParams.from_params(quasi(b=0.3, d=0.7, eta=-0.5))
        report = quasi_decay_report(qp, [1.0, -0.5, 0.25], 1e-3 * np.arange(11))
        assert report.relation_residual_max <= 1e-12

    def test_rates_strictly_increasing(self):
        qp = QuasiParams.from_params(quasi())
        rates = [qp.rate(n) for n in range(1, 8)]
        assert all(r2 > r1 for r1, r2 in zip(rates, rates[1:]))


class TestQuasiDecayReport:
    def grid(self, t_end=0.02, n=200):
        return (t_end / n) * np.arange(n + 1)

    def test_single_mode_rate_is_twice_mode_rate(self):
        qp = QuasiParams.from_params(quasi())
        report = quasi_decay_report(qp, [1.0], self.grid())
        assert report.fit_rel_residual <= 1e-6
        assert report.fitted_rate == pytest.approx(2.0 * report.rate1, rel=1e-6)

    def test_zero_data_all_zero(self):
        qp = QuasiParams.from_params(quasi())
        report = quasi_decay_report(qp, [0.0], self.grid())
        assert np.all(report.h2_seminorm == 0.0)
        assert np.all(report.theta_l2_sq == 0.0)
        assert report.envelope_holds

    def test_multimode_tail_dominated_by_first_mode(self):
        qp = QuasiParams.from_params(quasi())
        report = quasi_decay_report(qp, [1.0, 0.8, 0.5], self.grid())
        assert report.fit_rel_residual <= 1e-6

    def test_envelope_and_schwarz(self):
        qp = QuasiParams.from_params(quasi(b=2.0, d=0.5, eta=-0.8))
        report = quasi_decay_report(qp, [1.0, -0.4], self.grid(t_end=0.01))
        assert report.envelope_holds
        assert report.k_measured > 0.0
        assert report.schwarz_max_ratio <= 1.0 + 1e-12

    def test_grid_validation(self):
        qp = QuasiParams.from_params(quasi())
        with pytest.raises(ValueError):
            quasi_decay_report(qp, [1.0], np.array([0.0, 0.1, 0.05, 0.2]))
        with pytest.raises(ValueError):
            quasi_decay_report(qp, [1.0], np.array([0.0, 0.1]))
