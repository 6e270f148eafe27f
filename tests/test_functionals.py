import math

import numpy as np
import pytest

from gradiplate import (
    Direction,
    EpsilonOutOfRange,
    InsufficientSamples,
    ModelParams,
    PreconditionUnmet,
    choose_weight_shift,
    convexity_residual_check,
    convexity_trajectory,
    energy_of,
    evolve,
    gronwall_check,
    instability_lower_bound,
    lagrange_functionals,
    lyapunov_series,
    phi_coefficients,
    state_from_coefficients,
    verify_backward_identities,
)
from oracles import bisect_real_root

UNSTABLE = ModelParams(1.0, 1.0, 1.0, -1.0, 1.0, 1.0)


def one_mode(domain, u=0.0, v=0.0, theta=0.0):
    return state_from_coefficients(domain, 1, u=[u], v=[v], theta=[theta])


class TestLagrangeFunctionals:
    def test_zero_state(self, unit_params, pi_interval):
        s = lagrange_functionals(unit_params, one_mode(pi_interval), 0.5)
        assert (s.l1, s.l2, s.l) == (0.0, 0.0, 0.0)

    def test_no_thermal_part_means_equal(self, unit_params, pi_interval):
        s = lagrange_functionals(unit_params, one_mode(pi_interval, u=0.7, v=-0.2), 0.25)
        assert s.l1 == s.l2

    def test_unit_example(self, unit_params, pi_interval):
        s = lagrange_functionals(unit_params, one_mode(pi_interval, u=1.0, theta=1.0), 0.5)
        assert (s.l1, s.l2, s.l) == (1.0, 0.0, 0.5)

    def test_difference_is_thermal_mass(self, pi_interval):
        rng = np.random.default_rng(23)
        params = ModelParams(1.3, 2.1, 0.7, 3.0, 0.4, -0.9)
        for _ in range(20):
            state = state_from_coefficients(
                pi_interval, 3,
                u=rng.standard_normal(3).tolist(),
                v=rng.standard_normal(3).tolist(),
                theta=rng.standard_normal(3).tolist(),
            )
            s = lagrange_functionals(params, state, 0.5)
            _, x = state.coefficient_arrays()
            thermal = params.a * float(np.sum(x[2] ** 2))
            assert s.l1 - s.l2 == pytest.approx(thermal, rel=1e-14)
            assert s.l1 >= abs(s.l2)  # c > 0 here

    def test_epsilon_range(self, unit_params, pi_interval):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(EpsilonOutOfRange):
                lagrange_functionals(unit_params, one_mode(pi_interval), bad)


class TestBackwardIdentities:
    def test_zero_data_zero_residuals(self, unit_params, pi_interval):
        traj = evolve(unit_params, one_mode(pi_interval), 1e-2 * np.arange(11), Direction.BACKWARD)
        report = verify_backward_identities(unit_params, traj)
        assert report.max_rel_residual == 0.0

    def test_one_mode_dense_residual(self, unit_params, pi_interval):
        init = one_mode(pi_interval, u=1.0, theta=1.0)
        traj = evolve(unit_params, init, 1e-3 * np.arange(1001), Direction.BACKWARD)
        report = verify_backward_identities(unit_params, traj)
        assert report.max_rel_residual <= 1e-5

    def test_grid_halving_is_second_order(self, unit_params, pi_interval):
        init = one_mode(pi_interval, u=1.0, theta=1.0)

        def residual(dt):
            times = dt * np.arange(int(round(1.0 / dt)) + 1)
            traj = evolve(unit_params, init, times, Direction.BACKWARD)
            return verify_backward_identities(unit_params, traj).max_rel_residual

        r_coarse = residual(2e-3)
        r_fine = residual(1e-3)
        order = math.log2(r_coarse / r_fine)
        assert order >= 1.9, f"observed order {order}"

    def test_forward_identities_flip_sign(self, unit_params, pi_interval):
        """dL1/dt = -D on forward trajectories, second order in dt."""
        init = one_mode(pi_interval, u=1.0, theta=0.5)

        def residual(dt):
            times = dt * np.arange(int(round(1.0 / dt)) + 1)
            traj = evolve(unit_params, init, times, Direction.FORWARD)
            return verify_backward_identities(unit_params, traj, Direction.FORWARD)

        report = residual(1e-3)
        assert report.max_rel_residual <= 1e-5
        # analytic dL1/dt must be nonpositive forward in time
        assert np.all(report.dl1_analytic <= 0.0)
        order = math.log2(residual(2e-3).max_rel_residual / report.max_rel_residual)
        assert order >= 1.9

    def test_too_few_samples_rejected(self, unit_params, pi_interval):
        traj = evolve(unit_params, one_mode(pi_interval, u=1.0), [0.0, 0.1], Direction.BACKWARD)
        with pytest.raises(InsufficientSamples):
            verify_backward_identities(unit_params, traj)


class TestVectorizedFunctionals:
    """The array forms reproduce the per-sample forms exactly (no tolerance)."""

    @pytest.fixture(params=[Direction.FORWARD, Direction.BACKWARD])
    def case(self, request, unit_params, pi_interval):
        rng = np.random.default_rng(11)
        init = state_from_coefficients(
            pi_interval, 8, u=rng.standard_normal(8), v=rng.standard_normal(8),
            theta=rng.standard_normal(8),
        )
        params = ModelParams(1.3, 0.7, 0.4, 2.1, 0.3, -0.9)
        return params, evolve(params, init, 1e-4 * np.arange(101), request.param), request.param

    def test_lyapunov_series_matches_lagrange_functionals(self, case):
        params, traj, _ = case
        series = lyapunov_series(params, traj, 0.3)
        assert len(series) == len(traj)
        for k, sample in enumerate(traj):
            ref = lagrange_functionals(params, sample.state, 0.3, t=sample.t)
            assert series[k] == ref
            assert (series.l1[k], series.l2[k], series.l[k]) == (ref.l1, ref.l2, ref.l)

    def test_identity_right_hand_sides_match_per_sample_forms(self, case):
        params, traj, direction = case
        report = verify_backward_identities(params, traj, direction)
        for j, sample in enumerate(traj[1:-1]):
            lams, (u, v, th) = sample.state.coefficient_arrays()
            diss = float(np.sum(params.heat_weight(lams) * th**2))
            cross = float(2.0 * params.eta * np.sum(lams * v * th))
            if direction is Direction.BACKWARD:
                expected = (diss, -diss - cross)
            else:
                expected = (-diss, diss - cross)
            assert (report.dl1_analytic[j], report.dl2_analytic[j]) == expected

    def test_shared_series_gives_identical_reports(self, case):
        params, traj, direction = case
        series = lyapunov_series(params, traj, 0.7)
        shared = verify_backward_identities(params, traj, direction, series=series)
        own = verify_backward_identities(params, traj, direction)
        assert np.array_equal(shared.dl1_fd, own.dl1_fd)
        assert np.array_equal(shared.dl2_fd, own.dl2_fd)
        assert gronwall_check(params, traj, 0.7, series=series) == gronwall_check(params, traj, 0.7)
        with pytest.raises(ValueError):
            gronwall_check(params, traj, 0.5, series=series)


class TestGronwall:
    def test_zero_data_certified(self, unit_params, pi_interval):
        traj = evolve(unit_params, one_mode(pi_interval), 1e-2 * np.arange(101), Direction.BACKWARD)
        report = gronwall_check(unit_params, traj, 0.5)
        assert report.zero_data
        assert report.max_abs_l == 0.0
        assert report.k_star is None

    def test_one_mode_finite_k_star(self, unit_params, pi_interval):
        init = one_mode(pi_interval, u=1.0, theta=1.0)
        traj = evolve(unit_params, init, 1e-3 * np.arange(2001), Direction.BACKWARD)
        report = gronwall_check(unit_params, traj, 0.5)
        assert report.k_star is not None and np.isfinite(report.k_star)
        # the bound it certifies actually holds on the samples
        series = lyapunov_series(unit_params, traj, 0.5)
        for s in series[1:]:
            assert s.l <= report.l0 * math.exp(report.k_star * s.t) * (1.0 + 1e-12)

    def test_epsilon_sweep_reported(self, unit_params, pi_interval):
        init = one_mode(pi_interval, u=1.0, theta=1.0)
        traj = evolve(unit_params, init, 1e-3 * np.arange(1001), Direction.BACKWARD)
        values = [gronwall_check(unit_params, traj, eps).k_star for eps in (0.25, 0.5, 0.9)]
        assert all(v is not None and np.isfinite(v) for v in values)


class TestPhiCoefficients:
    def test_zero_data(self, unit_params, pi_interval):
        sol = phi_coefficients(unit_params, one_mode(pi_interval))
        assert np.all(sol.phi == 0.0)
        assert sol.nu == 0.0

    def test_bending_only_mode(self, pi_interval):
        params = ModelParams(1.0, 1.0, 2.0, 1.0, 0.5, 1.5)
        lam = 1.0
        sol = phi_coefficients(params, one_mode(pi_interval, u=2.0))
        expected = params.eta * lam * 2.0 / (params.b * lam + params.d * lam**2)
        assert sol.phi[0] == pytest.approx(expected, rel=1e-14)

    def test_unit_thermal_mode(self, unit_params, pi_interval):
        sol = phi_coefficients(unit_params, one_mode(pi_interval, theta=1.0))
        assert sol.phi[0] == -0.5
        assert sol.nu == pytest.approx(0.5, rel=1e-14)

    def test_residual_and_nu_nonnegative(self, pi_interval):
        rng = np.random.default_rng(29)
        for _ in range(25):
            rho, a, b, c, d = rng.uniform(0.1, 4.0, size=5)
            eta = rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0])
            params = ModelParams(rho, a, b, c, d, eta)
            state = state_from_coefficients(
                pi_interval, 4,
                u=rng.standard_normal(4).tolist(),
                theta=rng.standard_normal(4).tolist(),
            )
            sol = phi_coefficients(params, state)
            assert sol.residual_max <= 1e-12
            assert sol.nu >= 0.0


class TestConvexityTrajectory:
    def test_zero_data_zero_functional(self, pi_interval):
        traj = evolve(UNSTABLE, one_mode(pi_interval), 1e-2 * np.arange(51))
        states = convexity_trajectory(UNSTABLE, traj, 0.0, 0.0)
        assert all(s.f == 0.0 and s.fdot == 0.0 for s in states)

    def test_pure_weight_term(self, pi_interval):
        """Zero data with omega = 1, t0 = 2: F = (t+2)^2 exactly."""
        traj = evolve(UNSTABLE, one_mode(pi_interval), 1e-2 * np.arange(51))
        states = convexity_trajectory(UNSTABLE, traj, 1.0, 2.0)
        for s in states:
            assert s.f == pytest.approx((s.t + 2.0) ** 2, rel=1e-14)
            assert s.fdot == pytest.approx(2.0 * (s.t + 2.0), rel=1e-14)
            assert s.fddot == pytest.approx(2.0, rel=1e-14)

    def test_derivatives_match_finite_differences(self, pi_interval):
        """F' and F'' from the closed forms agree with dense FD of F."""
        init = one_mode(pi_interval, u=1.0)
        times = 1e-4 * np.arange(20001)  # t <= 2
        traj = evolve(UNSTABLE, init, times)
        states = convexity_trajectory(UNSTABLE, traj, 0.5, 2.0)
        f = np.array([s.f for s in states])
        fdot = np.array([s.fdot for s in states])
        fddot = np.array([s.fddot for s in states])
        t = np.array([s.t for s in states])
        fdot_fd = np.gradient(f, t)
        fddot_fd = np.gradient(fdot_fd, t)
        inner = slice(100, -100)
        scale_1 = np.max(np.abs(fdot))
        scale_2 = np.max(np.abs(fddot))
        assert np.max(np.abs(fdot[inner] - fdot_fd[inner])) <= 1e-6 * scale_1
        assert np.max(np.abs(fddot[inner] - fddot_fd[inner])) <= 1e-4 * scale_2

    def test_validation(self, pi_interval):
        traj = evolve(UNSTABLE, one_mode(pi_interval), [0.0, 0.1, 0.2])
        with pytest.raises(ValueError):
            convexity_trajectory(UNSTABLE, traj, -1.0, 0.0)


class TestConvexityInequality:
    def test_unstable_run_nonnegative(self, pi_interval):
        init = one_mode(pi_interval, u=1.0)
        e0 = energy_of(UNSTABLE, init).total
        traj = evolve(UNSTABLE, init, 1e-3 * np.arange(5001))
        states = convexity_trajectory(UNSTABLE, traj, max(0.0, -e0), 2.0)
        report = convexity_residual_check(states, e0)
        assert report.passed
        assert report.min_residual >= -report.tolerance
        f = np.array([s.f for s in states])
        assert np.all(np.diff(f) > 0.0)

    def test_uniqueness_branch_zero_energy(self, pi_interval):
        """E(0) = 0, omega = 0, nu = 0 data: F''F >= (F')^2 pointwise."""
        init = one_mode(pi_interval, u=1.0, theta=1.0)  # E0 = (0 - 1 + 1)/2 = 0
        e0 = energy_of(UNSTABLE, init).total
        assert e0 == 0.0
        assert phi_coefficients(UNSTABLE, init).nu == 0.0
        traj = evolve(UNSTABLE, init, 1e-3 * np.arange(3001))
        states = convexity_trajectory(UNSTABLE, traj, 0.0, 0.0)
        f = np.array([s.f for s in states])
        fdot = np.array([s.fdot for s in states])
        fddot = np.array([s.fddot for s in states])
        scale = np.max(fddot * f + fdot**2)
        assert np.all(fddot * f - fdot**2 >= -1e-8 * scale)

    def test_zero_data_zero_residual(self, pi_interval):
        traj = evolve(UNSTABLE, one_mode(pi_interval), 1e-2 * np.arange(11))
        states = convexity_trajectory(UNSTABLE, traj, 0.0, 0.0)
        report = convexity_residual_check(states, 0.0)
        assert report.min_residual == 0.0


class TestInstabilityBound:
    def test_acceptance_style_case(self, pi_interval):
        init = one_mode(pi_interval, u=1.0)
        e0 = energy_of(UNSTABLE, init).total
        assert e0 == -0.5
        omega = -e0
        t0 = choose_weight_shift(UNSTABLE, init, omega)
        traj = evolve(UNSTABLE, init, 1e-3 * np.arange(5001))
        states = convexity_trajectory(UNSTABLE, traj, omega, t0)
        report = instability_lower_bound(states, e0)
        assert report.holds
        # growth rate approaches the positive root of the mode cubic; the
        # transient still contaminates a t <= 5 window at the percent level
        root = bisect_real_root(lambda z: z**3 + 2.0 * z**2 - 2.0, 0.8, 0.9)
        assert report.growth_rate == pytest.approx(root, abs=5e-2)
        assert report.growth_rate >= report.bound_exponent / 2.0

    def test_log_growth_beats_bound_exponent(self, pi_interval):
        init = one_mode(pi_interval, u=1.0)
        e0 = energy_of(UNSTABLE, init).total
        t0 = choose_weight_shift(UNSTABLE, init, -e0)
        traj = evolve(UNSTABLE, init, 1e-3 * np.arange(8001))
        states = convexity_trajectory(UNSTABLE, traj, -e0, t0)
        report = instability_lower_bound(states, e0)
        t = np.array([s.t for s in states])
        f = np.array([s.f for s in states])
        late = t >= 6.0
        slope = np.polyfit(t[late], np.log(f[late]), 1)[0]
        assert slope >= report.bound_exponent - 1e-9

    def test_zero_data_rejected(self, pi_interval):
        traj = evolve(UNSTABLE, one_mode(pi_interval), 1e-2 * np.arange(11))
        states = convexity_trajectory(UNSTABLE, traj, 0.0, 0.0)
        with pytest.raises(PreconditionUnmet):
            instability_lower_bound(states, 0.0)

    def test_insufficient_shift_rejected(self, pi_interval):
        init = one_mode(pi_interval, u=1.0)
        e0 = energy_of(UNSTABLE, init).total
        traj = evolve(UNSTABLE, init, 1e-2 * np.arange(101))
        states = convexity_trajectory(UNSTABLE, traj, -e0, 0.0)  # t0 too small
        with pytest.raises(PreconditionUnmet):
            instability_lower_bound(states, e0)


class TestChooseWeightShift:
    def test_closed_form_value(self, pi_interval):
        init = one_mode(pi_interval, u=1.0)
        # nu = 1/2, cross term 0, omega = 1/2: t0 > 1/2, plus the pad
        assert choose_weight_shift(UNSTABLE, init, 0.5, pad=1.0) == pytest.approx(1.5)

    def test_resulting_shift_satisfies_condition(self, pi_interval):
        rng = np.random.default_rng(31)
        for _ in range(20):
            init = state_from_coefficients(
                pi_interval, 2,
                u=rng.standard_normal(2).tolist(),
                v=rng.standard_normal(2).tolist(),
                theta=rng.standard_normal(2).tolist(),
            )
            omega = float(rng.uniform(0.1, 2.0))
            t0 = choose_weight_shift(UNSTABLE, init, omega, pad=0.5)
            traj = evolve(UNSTABLE, init, [0.0, 0.01, 0.02])
            states = convexity_trajectory(UNSTABLE, traj, omega, t0)
            assert states[0].fdot > 2.0 * states[0].nu

    def test_omega_zero_unreachable(self, pi_interval):
        init = one_mode(pi_interval, u=1.0)  # cross term 0 < nu
        with pytest.raises(PreconditionUnmet):
            choose_weight_shift(UNSTABLE, init, 0.0)

    def test_t0_cap(self, pi_interval):
        init = one_mode(pi_interval, u=1.0)
        with pytest.raises(PreconditionUnmet):
            choose_weight_shift(UNSTABLE, init, 1e-6, t0_max=1.0)
