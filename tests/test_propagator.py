import math

import numpy as np
import pytest

from gradiplate import (
    Direction,
    ModelParams,
    ModeState,
    NonFiniteResult,
    PointOutsideDomain,
    Rectangle,
    energy_balance_report,
    energy_of,
    evolve,
    evolve_mode,
    mode_matrix,
    state_from_coefficients,
    synthesize_field,
)
from gradiplate import propagator
from gradiplate.errors import InsufficientSamples
from oracles import rk_mode_evolution


def single_mode_state(domain, u=0.0, v=0.0, theta=0.0):
    return state_from_coefficients(domain, 1, u=[u], v=[v], theta=[theta])


class TestEvolveMode:
    def test_zero_state_stays_zero(self, unit_params):
        m = mode_matrix(unit_params, 2.5)
        out = evolve_mode(m, ModeState(0.0, 0.0, 0.0), 0.7)
        assert (out.u, out.v, out.theta) == (0.0, 0.0, 0.0)

    def test_generator_consistency(self, unit_params):
        """(state(dt) - state(0))/dt approaches M (1,0,0)^T = (0,-1,0)."""
        m = mode_matrix(unit_params, 1.0)
        dt = 1e-6
        out = evolve_mode(m, ModeState(1.0, 0.0, 0.0), dt)
        rate = (np.array([out.u, out.v, out.theta]) - np.array([1.0, 0.0, 0.0])) / dt
        assert np.allclose(rate, [0.0, -1.0, 0.0], atol=5e-6)

    def test_against_adaptive_rk_oracle(self, unit_params):
        m = mode_matrix(unit_params, 1.0)
        out = evolve_mode(m, ModeState(1.0, 0.0, 0.0), 0.1)
        ref = rk_mode_evolution(m.entries, [1.0, 0.0, 0.0], 0.1)
        got = np.array([out.u, out.v, out.theta])
        assert np.linalg.norm(got - ref) / np.linalg.norm(ref) <= 1e-9

    def test_complex_state_supported(self, unit_params):
        m = mode_matrix(unit_params, 1.0)
        out = evolve_mode(m, ModeState(1.0 + 1.0j, 0.0, -2.0j), 0.3)
        # linearity: real and imaginary parts evolve independently
        re = evolve_mode(m, ModeState(1.0, 0.0, 0.0), 0.3)
        im = evolve_mode(m, ModeState(1.0, 0.0, -2.0), 0.3)
        assert out.u == pytest.approx(re.u + 1j * im.u, rel=1e-14)
        assert out.theta == pytest.approx(re.theta + 1j * im.theta, rel=1e-14)


class TestEvolve:
    def test_zero_initial_data_stays_zero(self, unit_params, pi_interval):
        init = state_from_coefficients(pi_interval, 3)
        for sample in evolve(unit_params, init, [0.0, 0.5, 1.0]):
            _, x = sample.state.coefficient_arrays()
            assert np.all(x == 0.0)
            assert sample.energy.total == 0.0

    def test_decoupled_closed_forms(self, pi_interval):
        """With eta = 0 the plate is an undamped oscillator and the heat
        coefficient decays at exactly (b lam + d lam^2)/a."""
        params = ModelParams(rho=2.0, a=3.0, b=0.5, c=4.5, d=0.25, eta=0.0)
        lam = 4.0  # n = 2 on the pi interval
        init = state_from_coefficients(pi_interval, 2, u=[0.0, 1.0], theta=[0.0, 2.0])
        times = np.linspace(0.0, 2.0, 41)
        freq = math.sqrt(params.c / params.rho) * lam
        rate = (params.b * lam + params.d * lam**2) / params.a
        for k, sample in enumerate(evolve(params, init, times)):
            t = times[k]
            _, x = sample.state.coefficient_arrays()
            assert x[0, 1] == pytest.approx(math.cos(freq * t), abs=1e-12)
            assert x[1, 1] == pytest.approx(-freq * math.sin(freq * t), abs=1e-12)
            assert x[2, 1] == pytest.approx(2.0 * math.exp(-rate * t), rel=1e-12)

    def test_energy_dissipates(self, unit_params, pi_interval):
        init = single_mode_state(pi_interval, u=1.0)
        times = np.linspace(0.0, 10.0, 2001)
        samples = evolve(unit_params, init, times)
        e = np.array([s.energy.total for s in samples])
        assert e[-1] < e[0]
        assert np.all(np.diff(e) <= 1e-12 * e[0])

    def test_mode_decoupling_exact(self, unit_params, pi_interval):
        both = state_from_coefficients(pi_interval, 2, u=[0.3, -1.2], theta=[0.5, 0.25])
        only1 = state_from_coefficients(pi_interval, 2, u=[0.3, 0.0], theta=[0.5, 0.0])
        only2 = state_from_coefficients(pi_interval, 2, u=[0.0, -1.2], theta=[0.0, 0.25])
        times = [0.0, 0.4, 1.1]
        t_both = evolve(unit_params, both, times)
        t_1 = evolve(unit_params, only1, times)
        t_2 = evolve(unit_params, only2, times)
        for sb, s1, s2 in zip(t_both, t_1, t_2):
            _, xb = sb.state.coefficient_arrays()
            _, x1 = s1.state.coefficient_arrays()
            _, x2 = s2.state.coefficient_arrays()
            assert np.array_equal(xb[:, 0], x1[:, 0])
            assert np.array_equal(xb[:, 1], x2[:, 1])

    def test_time_reversal_round_trip(self, pi_interval):
        """Forward by t, reflect (v -> -v), backward by t, reflect again
        recovers the initial state.

        The reversal re-amplifies the dissipated heat component, so its
        conditioning grows like exp(heat_rate * t); these constants keep
        heat_rate * t <= 9 over lam <= 10, well inside the 1e-6 tolerance.
        """
        rng = np.random.default_rng(5)
        for lam_n in (1, 2, 3):
            params = ModelParams.unit(b=0.1, d=0.1)
            u0, v0, th0 = rng.standard_normal(3)
            init = state_from_coefficients(
                pi_interval, lam_n, u=[0.0] * (lam_n - 1) + [u0],
                v=[0.0] * (lam_n - 1) + [v0], theta=[0.0] * (lam_n - 1) + [th0],
            )
            fwd = evolve(params, init, [0.0, 1.0])[-1].state
            reflected = state_from_coefficients(
                pi_interval,
                lam_n,
                u=[s.u for _, s in fwd.modes],
                v=[-s.v for _, s in fwd.modes],
                theta=[s.theta for _, s in fwd.modes],
            )
            back = evolve(params, reflected, [0.0, 1.0], Direction.BACKWARD)[-1].state
            got = np.array([[s.u, -s.v, s.theta] for _, s in back.modes])
            want = np.array([[s.u, s.v, s.theta] for _, s in init.modes])
            assert np.allclose(got, want, atol=1e-6)

    def test_times_validation(self, unit_params, pi_interval):
        init = single_mode_state(pi_interval, u=1.0)
        with pytest.raises(ValueError):
            evolve(unit_params, init, [0.5, 1.0])
        with pytest.raises(ValueError):
            evolve(unit_params, init, [0.0, 1.0, 1.0])

    def test_unstable_overflow_reports_time(self, pi_interval):
        params = ModelParams(1.0, 1.0, 1.0, -1.0, 1.0, 1.0)
        init = single_mode_state(pi_interval, u=1.0)
        with pytest.raises(NonFiniteResult) as err:
            evolve(params, init, [0.0, 1.0, 2000.0])
        assert err.value.time == 2000.0

    def test_zero_modes_immune_to_overflowing_eigendirections(self, pi_interval):
        """A silent high mode must stay exactly zero even when its growing
        eigendirection would overflow (inf * 0 must not poison the state)."""
        init = state_from_coefficients(pi_interval, 32, u=[1.0], theta=[1.0])
        backward = evolve(
            ModelParams.unit(), init, [0.0, 0.5, 1.0], Direction.BACKWARD
        )
        _, x = backward[-1].state.coefficient_arrays()
        assert np.all(x[:, 1:] == 0.0)
        assert np.all(np.isfinite(x))

        unstable = ModelParams(1.0, 1.0, 1.0, -1.0, 1.0, 1.0)
        forward = evolve(unstable, init, [0.0, 5.0, 10.0])
        _, y = forward[-1].state.coefficient_arrays()
        assert np.all(y[:, 1:] == 0.0)
        assert np.all(np.isfinite(y))


class TestExpmFallback:
    """At a double root of the block cubic (b = 5 sqrt(5)/2, eta = 3, d = 0,
    lam = 1) the eigenvector matrix is past EIGVEC_COND_LIMIT, so evolution
    takes the scipy expm fallback."""

    PARAMS = ModelParams(rho=1.0, a=1.0, b=5.590169943749474, c=1.0, d=0.0, eta=3.0)
    X0 = [1.0, -0.5, 0.25]

    @pytest.fixture
    def expm_calls(self, monkeypatch):
        import scipy.linalg

        calls = []
        expm = scipy.linalg.expm

        def counted(a):
            calls.append(a)
            return expm(a)

        monkeypatch.setattr(scipy.linalg, "expm", counted)
        return calls

    def test_block_is_past_the_condition_limit(self):
        _, vecs = np.linalg.eig(mode_matrix(self.PARAMS, 1.0).entries)
        assert np.linalg.cond(vecs) > propagator.EIGVEC_COND_LIMIT

    def test_evolve_mode_against_adaptive_rk_oracle(self, expm_calls):
        m = mode_matrix(self.PARAMS, 1.0)
        out = evolve_mode(m, ModeState(*self.X0), 0.7)
        ref = rk_mode_evolution(m.entries, self.X0, 0.7)
        got = np.array([out.u, out.v, out.theta])
        assert np.linalg.norm(got - ref) / np.linalg.norm(ref) <= 1e-9
        assert len(expm_calls) == 1

    def test_evolve_against_adaptive_rk_oracle(self, pi_interval, expm_calls):
        init = state_from_coefficients(
            pi_interval, 1, u=[self.X0[0]], v=[self.X0[1]], theta=[self.X0[2]]
        )
        times = 0.01 * np.arange(101)
        trajectory = evolve(self.PARAMS, init, times)
        m = mode_matrix(self.PARAMS, 1.0).entries
        for k in (10, 50, 100):
            ref = rk_mode_evolution(m, self.X0, times[k])
            got = trajectory.x[0, :, k]
            assert np.linalg.norm(got - ref) / np.linalg.norm(ref) <= 1e-9
        assert expm_calls


class TestTrajectoryArrays:
    """evolve returns arrays; indexing builds per-sample views of them."""

    @pytest.fixture(params=[Direction.FORWARD, Direction.BACKWARD])
    def trajectory(self, request, unit_params, pi_interval):
        rng = np.random.default_rng(5)
        init = state_from_coefficients(
            pi_interval, 8, u=rng.standard_normal(8), v=rng.standard_normal(8),
            theta=rng.standard_normal(8),
        )
        return evolve(unit_params, init, 1e-4 * np.arange(201), request.param)

    def test_samples_view_the_coefficient_array(self, trajectory):
        assert trajectory.x.shape == (8, 3, 201)
        assert trajectory.lams.shape == (8,)
        for k in (0, 100, -1):
            lams, x = trajectory[k].state.coefficient_arrays()
            assert np.array_equal(x, trajectory.x[:, :, k].T)
            assert np.array_equal(lams, trajectory.lams)
            assert trajectory[k].t == trajectory.t[k]
            assert trajectory[k].energy.total == trajectory.total[k]

    def test_behaves_as_a_sequence(self, trajectory):
        assert len(trajectory) == 201
        assert trajectory[-1].t == trajectory[200].t == trajectory.t[-1]
        assert trajectory[-201].t == 0.0
        with pytest.raises(IndexError):
            trajectory[201]
        with pytest.raises(IndexError):
            trajectory[-202]
        times = [sample.t for sample in trajectory]
        assert times == trajectory.t.tolist()
        assert [s.t for s in trajectory[1:4]] == trajectory.t[1:4].tolist()

    def test_energy_columns_match_energy_of(self, unit_params, trajectory):
        for k in (0, 100, -1):
            sample = trajectory[k]
            assert energy_of(unit_params, sample.state).total == pytest.approx(
                sample.energy.total, rel=1e-14
            )

    def test_energy_columns_equal_energy_of_exactly(self, unit_params, trajectory):
        """One quadratic form: a sample's columns are its state's energy."""
        columns = (
            trajectory.kinetic, trajectory.bending, trajectory.thermal,
            trajectory.total, trajectory.dissipation,
        )
        for k, sample in enumerate(trajectory):
            e = energy_of(unit_params, sample.state)
            expected = (e.kinetic, e.bending, e.thermal, e.total, e.dissipation_rate)
            assert tuple(col[k] for col in columns) == expected


class TestEnergyBalance:
    def test_zero_trajectory_residual_zero(self, unit_params, pi_interval):
        init = state_from_coefficients(pi_interval, 2)
        samples = evolve(unit_params, init, np.linspace(0.0, 1.0, 11))
        report = energy_balance_report(samples)
        assert report.max_abs_residual == 0.0

    def test_forward_identity_dense(self, unit_params, pi_interval):
        init = single_mode_state(pi_interval, u=1.0, theta=0.5)
        times = 1e-3 * np.arange(5001)
        report = energy_balance_report(evolve(unit_params, init, times))
        assert report.max_abs_residual <= 1e-8

    def test_backward_identity_sign_flipped(self, unit_params, pi_interval):
        init = single_mode_state(pi_interval, u=1.0, theta=1.0)
        times = 1e-3 * np.arange(1001)
        samples = evolve(unit_params, init, times, Direction.BACKWARD)
        report = energy_balance_report(samples, Direction.BACKWARD)
        assert report.max_abs_residual <= 1e-8
        # energy grows along the reversed heat flow here, so the forward
        # convention must NOT fit
        wrong = energy_balance_report(samples, Direction.FORWARD)
        assert wrong.max_abs_residual > 1e-3

    def test_backward_derivative_matrix_identity(self):
        """d/dt of the energy quadratic form along either direction equals
        -+ the dissipation form: Q M + M^T Q = diag(0, 0, -+2w) with
        Q = diag(c lam^2, rho, a)."""
        rng = np.random.default_rng(9)
        for _ in range(20):
            rho, a, b, c, d = rng.uniform(0.1, 4.0, size=5)
            eta = rng.uniform(-2.0, 2.0)
            lam = rng.uniform(0.2, 30.0)
            params = ModelParams(rho, a, b, c, d, eta)
            q = np.diag([c * lam**2, rho, a])
            w = b * lam + d * lam**2
            for direction, sign in ((Direction.FORWARD, -1.0), (Direction.BACKWARD, 1.0)):
                m = mode_matrix(params, lam, direction).entries
                sym = q @ m + m.T @ q
                assert np.allclose(sym, np.diag([0.0, 0.0, sign * 2.0 * w]), atol=1e-12 * max(1.0, w))

    def test_needs_two_samples(self, unit_params, pi_interval):
        init = single_mode_state(pi_interval, u=1.0)
        samples = evolve(unit_params, init, [0.0])
        with pytest.raises(InsufficientSamples):
            energy_balance_report(samples)


class TestEnergyBreakdown:
    def test_total_is_exact_sum(self, pi_interval):
        rng = np.random.default_rng(21)
        params = ModelParams(1.7, 0.9, 1.1, 2.2, 0.8, -1.1)
        state = state_from_coefficients(
            pi_interval, 4, u=rng.standard_normal(4).tolist(),
            v=rng.standard_normal(4).tolist(), theta=rng.standard_normal(4).tolist(),
        )
        e = energy_of(params, state)
        assert e.total == e.kinetic + e.bending + e.thermal
        assert e.dissipation_rate >= 0.0

    def test_negative_bending_when_c_negative(self, pi_interval):
        params = ModelParams(1.0, 1.0, 1.0, -1.0, 1.0, 1.0)
        state = single_mode_state(pi_interval, u=1.0)
        e = energy_of(params, state)
        assert e.total == pytest.approx(-0.5)


class TestSynthesizeField:
    def test_boundary_exactly_zero(self, pi_interval):
        state = state_from_coefficients(pi_interval, 3, u=[1.0, 2.0, 3.0], theta=[1.0, 0.0, -1.0])
        values = synthesize_field(state, [0.0, math.pi])
        assert np.all(values.u == 0.0)
        assert np.all(values.u_t == 0.0)
        assert np.all(values.theta == 0.0)

    def test_first_mode_peak(self, pi_interval):
        state = state_from_coefficients(pi_interval, 1, u=[1.0])
        values = synthesize_field(state, [math.pi / 2.0])
        assert values.u[0] == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-14)

    def test_superposition(self, pi_interval):
        s12 = state_from_coefficients(pi_interval, 2, u=[1.0, -0.5])
        s1 = state_from_coefficients(pi_interval, 2, u=[1.0, 0.0])
        s2 = state_from_coefficients(pi_interval, 2, u=[0.0, -0.5])
        grid = np.linspace(0.0, math.pi, 17)
        v12 = synthesize_field(s12, grid)
        v1 = synthesize_field(s1, grid)
        v2 = synthesize_field(s2, grid)
        assert np.allclose(v12.u, v1.u + v2.u, rtol=1e-14, atol=1e-16)

    def test_outside_domain_rejected(self, pi_interval):
        state = state_from_coefficients(pi_interval, 1, u=[1.0])
        with pytest.raises(PointOutsideDomain):
            synthesize_field(state, [-0.1])
        with pytest.raises(PointOutsideDomain):
            synthesize_field(state, [math.pi + 0.1])

    def test_rectangle_fields(self):
        dom = Rectangle(1.0, 2.0)
        state = state_from_coefficients(dom, 1, u=[1.0])
        border = synthesize_field(state, [[0.0, 1.0], [1.0, 0.5], [0.3, 0.0]])
        assert np.all(border.u == 0.0)
        mid = synthesize_field(state, [[0.5, 1.0]])
        assert mid.u[0] == pytest.approx(2.0 / math.sqrt(2.0), rel=1e-14)
        with pytest.raises(PointOutsideDomain):
            synthesize_field(state, [[1.5, 0.5]])
