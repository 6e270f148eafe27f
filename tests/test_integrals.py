"""Exact running time integrals against independent references.

int_0^t D ds (the trajectory's `dissipation_integral`) and the convexity
functional's Psi_n = Phi_n + int_0^t theta_n ds and int_0^t w_n Psi_n^2 ds
all come from the per-mode exponential kernel in closed form.  They are
checked against DOP853 carrying them as extra states, on both branches of
the kernel, and against the sampled Richardson-Simpson quadrature.
"""

import numpy as np
import pytest

from gradiplate import (
    Direction,
    ModelParams,
    energy_balance_report,
    evolve,
    mode_matrix,
    state_from_coefficients,
)
from gradiplate import propagator
from gradiplate.functionals import convexity_trajectory, phi_coefficients
from oracles import rk_mode_integrals
from quadrature import cumulative_integral

# the double root of TestExpmFallback: the kernel's Van Loan branch
DOUBLE_ROOT = ModelParams(rho=1.0, a=1.0, b=5.590169943749474, c=1.0, d=0.0, eta=3.0)


def random_state(domain, count, seed):
    rng = np.random.default_rng(seed)
    return state_from_coefficients(
        domain, count, u=rng.standard_normal(count), v=rng.standard_normal(count),
        theta=rng.standard_normal(count),
    )


def oracle_sums(params, state, times, direction=Direction.FORWARD, phi=None):
    """Mode sums of the three DOP853 integrals; psi is returned per mode."""
    lams, x = state.modes.lam, state.x
    phi = np.zeros(lams.size) if phi is None else phi
    d_int, psi, q_int = np.zeros(times.size), [], np.zeros(times.size)
    for lam, x0, phi_n in zip(lams, x, phi):
        m = mode_matrix(params, lam, direction).entries
        d_n, psi_n, q_n = rk_mode_integrals(m, x0, params.heat_weight(lam), phi_n, times)
        d_int += d_n
        psi.append(psi_n)
        q_int += q_n
    return d_int, np.array(psi), q_int


class TestDissipationIntegral:
    @pytest.mark.parametrize(
        "direction, count, t_end",
        [(Direction.FORWARD, 6, 3.0), (Direction.BACKWARD, 3, 0.05)],
    )
    def test_matches_rk_oracle_on_a_coarse_grid(self, unit_params, pi_interval, direction, count, t_end):
        state = random_state(pi_interval, count, seed=11)
        times = np.linspace(0.0, t_end, 7)
        trajectory = evolve(unit_params, state, times, direction)
        reference, _, _ = oracle_sums(unit_params, state, times, direction)
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(trajectory.dissipation_integral - reference)) <= 1e-10 * scale
        balance = energy_balance_report(trajectory, direction)
        assert balance.max_abs_residual <= 1e-13

    def test_double_root_takes_van_loan_branch(self, pi_interval, monkeypatch):
        import scipy.linalg

        calls = []
        expm = scipy.linalg.expm
        monkeypatch.setattr(scipy.linalg, "expm", lambda a: calls.append(a) or expm(a))
        state = state_from_coefficients(pi_interval, 1, u=[1.0], v=[-0.5], theta=[0.25])
        times = 0.01 * np.arange(101)
        trajectory = evolve(DOUBLE_ROOT, state, times)
        assert calls and calls[0].shape == (6, 6)
        reference, _, _ = oracle_sums(DOUBLE_ROOT, state, times)
        assert np.max(np.abs(trajectory.dissipation_integral - reference)) <= 1e-9 * reference[-1]
        assert energy_balance_report(trajectory).max_abs_residual <= 1e-12

    def test_agrees_with_sampled_quadrature_on_a_fine_grid(self, unit_params, pi_interval):
        # the README data: a bend and a thermal pulse the grid resolves
        lams = (np.arange(1, 9)) ** 2.0
        state = state_from_coefficients(pi_interval, 8, u=[1.0], theta=np.exp(1.0 - lams))
        times = 1e-3 * np.arange(2001)
        trajectory = evolve(unit_params, state, times)
        sampled = cumulative_integral(trajectory.dissipation, times)
        gap = np.max(np.abs(trajectory.dissipation_integral - sampled))
        assert gap <= 1e-8 * trajectory.total[0]

    def test_zero_modes_add_nothing(self, unit_params, pi_interval):
        state = state_from_coefficients(pi_interval, 5, u=[1.0])
        times = np.linspace(0.0, 1.0, 11)
        alone = evolve(unit_params, state_from_coefficients(pi_interval, 1, u=[1.0]), times)
        assert np.array_equal(evolve(unit_params, state, times).dissipation_integral,
                              alone.dissipation_integral)


class TestConvexityIntegrals:
    @pytest.mark.parametrize("params", [ModelParams.unit(c=-1.0), DOUBLE_ROOT])
    def test_psi_and_its_integral_match_rk_oracle(self, params, pi_interval):
        count = 3 if params.c < 0 else 1
        state = random_state(pi_interval, count, seed=2)
        times = np.linspace(0.0, 1.0, 11)
        trajectory = evolve(params, state, times)
        omega, t0 = 0.5, 2.0
        states = convexity_trajectory(params, trajectory, omega, t0)
        phi = phi_coefficients(params, state).phi
        d_int, psi, q_int = oracle_sums(params, state, times, phi=phi)

        lams, x = trajectory.modes.lam, trajectory.x
        w = params.heat_weight(lams)
        shifted = times + t0
        rho_u2 = params.rho * np.sum(x[:, 0] ** 2, axis=0)
        got_q = states.f - rho_u2 - omega * shifted**2
        got_s = states.fdot - 2.0 * params.rho * np.sum(x[:, 0] * x[:, 1], axis=0) - 2.0 * omega * shifted
        assert np.max(np.abs(got_q - q_int)) <= 1e-9 * max(np.max(np.abs(q_int)), 1.0)
        ref_s = np.sum(w[:, None] * psi**2, axis=0)
        assert np.max(np.abs(got_s - ref_s)) <= 1e-9 * np.max(np.abs(ref_s))
        assert np.max(np.abs(trajectory.dissipation_integral - d_int)) <= 1e-9 * np.max(np.abs(d_int))


class TestIdentityIsNotVacuous:
    """Wrong physics must fail the energy identity: it checks something."""

    def residual(self, params, domain):
        state = random_state(domain, 4, seed=9)
        trajectory = evolve(params, state, np.linspace(0.0, 2.0, 21))
        return energy_balance_report(trajectory).max_abs_residual

    def test_exact_model_passes(self, unit_params, pi_interval):
        assert self.residual(unit_params, pi_interval) <= 1e-13

    def test_dissipation_weight_one_percent_off_fails(self, unit_params, pi_interval, monkeypatch):
        kernel = propagator._ModeTrajectory
        monkeypatch.setattr(
            propagator, "_ModeTrajectory", lambda m, x0, t, q: kernel(m, x0, t, 1.01 * q)
        )
        assert self.residual(unit_params, pi_interval) > 1e-8

    def test_wrong_coupling_sign_fails(self, unit_params, pi_interval, monkeypatch):
        blocks = propagator.mode_blocks

        def flipped(params, lams, direction=Direction.FORWARD):
            out = blocks(params, lams, direction)
            out[:, 2, 1] *= -1.0
            return out

        monkeypatch.setattr(propagator, "mode_blocks", flipped)
        assert self.residual(unit_params, pi_interval) > 1e-8
