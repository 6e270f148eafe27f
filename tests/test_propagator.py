import math

import numpy as np
import pytest

from gradiplate.errors import InsufficientSamples, NonFiniteResult
from gradiplate.model import Direction, Interval, ModelParams
from gradiplate.propagator import energy_balance_report, energy_of
from gradiplate.spectrum import mode_spectra
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import generator_block, mp_mode_evolution, rk_mode_evolution
from states import evolve, initial


def single_mode_state(domain, u=0.0, v=0.0, theta=0.0):
    return initial(domain, 1, u=[u], v=[v], theta=[theta])


def sample_state(trajectory, k):
    """(lams, x) of sample k of a trajectory."""
    return trajectory.lams, trajectory.x[:, :, k]


class TestOneModeEvolution:
    """`evolve` on the one mode of the pi interval, lam = 1."""

    @staticmethod
    def at(params, domain, t, u=0.0, theta=0.0):
        """The state at time t of the mode started at (u, 0, theta)."""
        return evolve(params, *single_mode_state(domain, u=u, theta=theta), [0.0, t]).x[0, :, 1]

    def test_generator_consistency(self, unit_params, pi_interval):
        """(state(dt) - state(0))/dt approaches M (1,0,0)^T = (0,-1,0)."""
        dt = 1e-6
        out = self.at(unit_params, pi_interval, dt, u=1.0)
        rate = (out - np.array([1.0, 0.0, 0.0])) / dt
        assert np.allclose(rate, [0.0, -1.0, 0.0], atol=5e-6)

    def test_against_adaptive_rk_oracle(self, unit_params, pi_interval):
        got = self.at(unit_params, pi_interval, 0.1, u=1.0)
        ref = rk_mode_evolution(generator_block(unit_params, 1.0), [1.0, 0.0, 0.0], 0.1)
        assert np.linalg.norm(got - ref) / np.linalg.norm(ref) <= 1e-9


class TestEvolve:
    def test_zero_initial_data_stays_zero(self, unit_params, pi_interval):
        init = initial(pi_interval, 3)
        trajectory = evolve(unit_params, *init, [0.0, 0.5, 1.0])
        assert np.all(trajectory.x == 0.0)
        assert np.all(trajectory.total == 0.0)

    def test_decoupled_closed_forms(self, pi_interval):
        """With eta = 0 the plate is an undamped oscillator and the heat
        coefficient decays at exactly (b lam + d lam^2)/a."""
        params = ModelParams(rho=2.0, a=3.0, b=0.5, c=4.5, d=0.25, eta=0.0)
        lam = 4.0  # n = 2 on the pi interval
        init = initial(pi_interval, 2, u=[0.0, 1.0], theta=[0.0, 2.0])
        times = np.linspace(0.0, 2.0, 41)
        freq = math.sqrt(params.c / params.rho) * lam
        rate = (params.b * lam + params.d * lam**2) / params.a
        trajectory = evolve(params, *init, times)
        for k, t in enumerate(times):
            u, v, theta = trajectory.x[1, :, k]
            assert u == pytest.approx(math.cos(freq * t), abs=1e-12)
            assert v == pytest.approx(-freq * math.sin(freq * t), abs=1e-12)
            assert theta == pytest.approx(2.0 * math.exp(-rate * t), rel=1e-12)

    def test_energy_dissipates(self, unit_params, pi_interval):
        init = single_mode_state(pi_interval, u=1.0)
        times = np.linspace(0.0, 10.0, 2001)
        e = evolve(unit_params, *init, times).total
        assert e[-1] < e[0]
        assert np.all(np.diff(e) <= 1e-12 * e[0])

    def test_mode_decoupling_exact(self, unit_params, pi_interval):
        both = initial(pi_interval, 2, u=[0.3, -1.2], theta=[0.5, 0.25])
        only1 = initial(pi_interval, 2, u=[0.3, 0.0], theta=[0.5, 0.0])
        only2 = initial(pi_interval, 2, u=[0.0, -1.2], theta=[0.0, 0.25])
        times = [0.0, 0.4, 1.1]
        t_both = evolve(unit_params, *both, times)
        t_1 = evolve(unit_params, *only1, times)
        t_2 = evolve(unit_params, *only2, times)
        assert np.array_equal(t_both.x[0], t_1.x[0])
        assert np.array_equal(t_both.x[1], t_2.x[1])

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
            init = initial(
                pi_interval, lam_n, u=[0.0] * (lam_n - 1) + [u0],
                v=[0.0] * (lam_n - 1) + [v0], theta=[0.0] * (lam_n - 1) + [th0],
            )
            lams, x0 = init
            reflect = np.array([1.0, -1.0, 1.0])
            fwd = evolve(params, lams, x0, [0.0, 1.0]).x[:, :, -1]
            back = evolve(params, lams, fwd * reflect, [0.0, 1.0], Direction.BACKWARD).x[:, :, -1]
            assert np.allclose(back * reflect, x0, atol=1e-6)

    def test_times_validation(self, unit_params, pi_interval):
        init = single_mode_state(pi_interval, u=1.0)
        with pytest.raises(ValueError):
            evolve(unit_params, *init, [0.5, 1.0])
        with pytest.raises(ValueError):
            evolve(unit_params, *init, [0.0, 1.0, 1.0])

    def test_unstable_overflow_reports_time(self, pi_interval):
        params = ModelParams(1.0, 1.0, 1.0, -1.0, 1.0, 1.0)
        init = single_mode_state(pi_interval, u=1.0)
        with pytest.raises(NonFiniteResult) as err:
            evolve(params, *init, [0.0, 1.0, 2000.0])
        assert err.value.time == 2000.0

    def test_growth_past_the_float_range_of_the_exponential(self, pi_interval):
        """Data of 1e-300 grown by e^750: u = v0 sinh(t) on the decoupled
        unstable mode, finite although e^750 is not."""
        params = ModelParams(1.0, 1.0, 1.0, -1.0, 0.0, 0.0)
        trajectory = evolve(params, *single_mode_state(pi_interval, v=1e-300), [0.0, 750.0])
        u = trajectory.x[0, 0, 1]
        assert u == pytest.approx(math.exp(750.0 + math.log(1e-300) - math.log(2.0)), rel=1e-12)

    def test_decoupled_heat_stays_apart_backward(self, pi_interval):
        """eta = 0, c < 0: the heat root lies between the plate roots -k and k.
        Heat-only data grow backward as theta0 e^{ht} alone; no rounding may
        put it on the plate root k, which grows far faster."""
        params = ModelParams(0.22, 2.94, 0.157, -1.79, 0.0, 0.0)
        lams, x0 = single_mode_state(Interval(0.2), theta=1.0)
        lam = lams[0]
        trajectory = evolve(params, lams, x0, np.linspace(0.0, 10.0, 11), Direction.BACKWARD)
        h = params.heat_weight(lam) / params.a
        assert not np.any(trajectory.x[0, :2])
        assert np.allclose(trajectory.x[0, 2], np.exp(h * trajectory.t), rtol=1e-12)

    def test_zero_modes_immune_to_overflowing_eigendirections(self, pi_interval):
        """A silent high mode must stay exactly zero even when its growing
        eigendirection would overflow (inf * 0 must not poison the state)."""
        init = initial(pi_interval, 32, u=[1.0], theta=[1.0])
        backward = evolve(
            ModelParams.unit(), *init, [0.0, 0.5, 1.0], Direction.BACKWARD
        )
        x = backward.x[:, :, -1]
        assert np.all(x[1:] == 0.0)
        assert np.all(np.isfinite(x))

        unstable = ModelParams(1.0, 1.0, 1.0, -1.0, 1.0, 1.0)
        forward = evolve(unstable, *init, [0.0, 5.0, 10.0])
        y = forward.x[:, :, -1]
        assert np.all(y[1:] == 0.0)
        assert np.all(np.isfinite(y))


class TestDoubleRoot:
    """At a double root of the block cubic (b = 5 sqrt(5)/2, eta = 3, d = 0,
    lam = 1) the block is defective; the kernel's closed form still holds."""

    PARAMS = ModelParams(rho=1.0, a=1.0, b=5.590169943749474, c=1.0, d=0.0, eta=3.0)
    X0 = [1.0, -0.5, 0.25]

    def test_pair_coincides(self):
        roots = np.sort_complex(mode_spectra(self.PARAMS, [1.0])[0][0])
        assert abs(roots[0] - roots[1]) <= 1e-6 * abs(roots[0])

    def test_one_step_against_adaptive_rk_oracle(self, pi_interval):
        init = initial(
            pi_interval, 1, u=[self.X0[0]], v=[self.X0[1]], theta=[self.X0[2]]
        )
        got = evolve(self.PARAMS, *init, [0.0, 0.7]).x[0, :, 1]
        ref = rk_mode_evolution(generator_block(self.PARAMS, 1.0), self.X0, 0.7)
        assert np.linalg.norm(got - ref) / np.linalg.norm(ref) <= 1e-9

    def test_evolve_against_adaptive_rk_oracle(self, pi_interval):
        init = initial(
            pi_interval, 1, u=[self.X0[0]], v=[self.X0[1]], theta=[self.X0[2]]
        )
        times = 0.01 * np.arange(101)
        trajectory = evolve(self.PARAMS, *init, times)
        m = generator_block(self.PARAMS, 1.0)
        for k in (10, 50, 100):
            ref = rk_mode_evolution(m, self.X0, times[k])
            got = trajectory.x[0, :, k]
            assert np.linalg.norm(got - ref) / np.linalg.norm(ref) <= 1e-9


def energy_norm_error(params, lam, got, want):
    """The largest energy-norm distance of got from want, (3, T) each, over
    the largest energy norm of want."""
    weights = np.array([abs(params.c) * lam * lam, params.rho, params.a])[:, None]
    norm = lambda x: np.sqrt(np.sum(weights * x * x, axis=0))
    return np.max(norm(got - want)) / np.max(norm(want))


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


class TestKernelAgainstMpmath:
    """States and int_0^t D ds of one mode against mpmath's
    eigendecomposition of the exact float parameters, to 1e-11 of the
    largest energy norm and of the largest integral."""

    @staticmethod
    def check(params, lam, x0, times, direction):
        domain = Interval(math.pi / math.sqrt(lam))
        state = initial(domain, 1, u=[x0[0]], v=[x0[1]], theta=[x0[2]])
        trajectory = evolve(params, *state, times, direction)
        lam = state[0][0]
        states, integral = mp_mode_evolution(params, lam, x0, times, direction)
        assert energy_norm_error(params, lam, trajectory.x[0], states) <= 1e-11
        error = np.max(np.abs(trajectory.dissipation_integral - integral))
        assert error <= 1e-11 * max(np.max(np.abs(integral)), 1e-300)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(log_uniform(0.1, 10.0), min_size=4, max_size=4),
        st.sampled_from((1.0, -1.0)),
        st.one_of(st.just(0.0), log_uniform(0.1, 10.0)),
        st.sampled_from((1.0, -1.0, 1e-6, -1e-6)),
        log_uniform(0.3, 30.0),
        st.floats(0.1, 3.0),
        st.sampled_from(tuple(Direction)),
    )
    def test_random_blocks(self, rho_a_b_c, c_sign, d, eta_scale, lam, horizon, direction):
        rho, a, b, c = rho_a_b_c
        params = ModelParams(rho, a, b, c_sign * c, d, eta_scale * rho_a_b_c[0])
        rate = max(math.sqrt(c / rho) * lam, (b * lam + d * lam * lam) / a, 1.0)
        # a horizon of a few e-folds of the fastest rate
        t_end = horizon / rate * (1.0 if direction is Direction.BACKWARD else 10.0)
        self.check(params, lam, [1.0, -0.5, 0.25], np.linspace(0.0, t_end, 9), direction)

    @pytest.mark.parametrize("direction, reach", [
        (Direction.FORWARD, 3.0), (Direction.FORWARD, 5.0), (Direction.FORWARD, 20.0),
        (Direction.BACKWARD, 3.0), (Direction.BACKWARD, 5.0),
    ])
    @pytest.mark.parametrize("b", [3.003, 2.997])
    def test_near_a_triple_root(self, b, direction, reach):
        """Roots within 0.2 of -1 (of +1 backward) over a horizon of `reach`
        times 1/spread: the undeflated power series up to CLUSTER_REACH,
        the deflation past it."""
        params = ModelParams(1.0, 1.0, b, 0.3333333333333333, 0.0, 1.632993161855452)
        roots = mode_spectra(params, [1.0])[0][0]
        spread = np.max(np.abs(roots - np.mean(roots)))
        assert 0.1 < spread < 0.2
        t_end = reach / spread
        self.check(params, 1.0, [1.0, -0.5, 0.25], np.linspace(0.0, t_end, 31), direction)


class TestTrajectoryArrays:
    """evolve returns a record of arrays."""

    @pytest.fixture(params=[Direction.FORWARD, Direction.BACKWARD])
    def trajectory(self, request, unit_params, pi_interval):
        rng = np.random.default_rng(5)
        init = initial(
            pi_interval, 8, u=rng.standard_normal(8), v=rng.standard_normal(8),
            theta=rng.standard_normal(8),
        )
        return evolve(unit_params, *init, 1e-4 * np.arange(201), request.param)

    def test_coefficient_array_layout(self, trajectory):
        assert trajectory.x.shape == (8, 3, 201)
        assert trajectory.t.shape == trajectory.total.shape == (201,)
        assert trajectory.lams.shape == (8,)

    def test_energy_columns_match_energy_of(self, unit_params, trajectory):
        for k in (0, 100, -1):
            assert energy_of(unit_params, *sample_state(trajectory, k)).total == pytest.approx(
                trajectory.total[k], rel=1e-14
            )

    def test_energy_columns_equal_energy_of_exactly(self, unit_params, trajectory):
        """One quadratic form: a sample's columns are its state's energy."""
        columns = (
            trajectory.kinetic, trajectory.bending, trajectory.thermal,
            trajectory.total, trajectory.dissipation,
        )
        for k in range(trajectory.t.size):
            e = energy_of(unit_params, *sample_state(trajectory, k))
            expected = (e.kinetic, e.bending, e.thermal, e.total, e.dissipation_rate)
            assert tuple(col[k] for col in columns) == expected


class TestEnergyBalance:
    def test_zero_trajectory_residual_zero(self, unit_params, pi_interval):
        init = initial(pi_interval, 2)
        samples = evolve(unit_params, *init, np.linspace(0.0, 1.0, 11))
        report = energy_balance_report(samples)
        assert report.max_abs_residual == 0.0

    def test_forward_identity_dense(self, unit_params, pi_interval):
        init = single_mode_state(pi_interval, u=1.0, theta=0.5)
        times = 1e-3 * np.arange(5001)
        report = energy_balance_report(evolve(unit_params, *init, times))
        assert report.max_abs_residual <= 1e-8

    def test_backward_identity_sign_flipped(self, unit_params, pi_interval):
        init = single_mode_state(pi_interval, u=1.0, theta=1.0)
        times = 1e-3 * np.arange(1001)
        samples = evolve(unit_params, *init, times, Direction.BACKWARD)
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
                m = generator_block(params, lam, direction)
                sym = q @ m + m.T @ q
                assert np.allclose(sym, np.diag([0.0, 0.0, sign * 2.0 * w]), atol=1e-12 * max(1.0, w))

    def test_needs_two_samples(self, unit_params, pi_interval):
        init = single_mode_state(pi_interval, u=1.0)
        samples = evolve(unit_params, *init, [0.0])
        with pytest.raises(InsufficientSamples):
            energy_balance_report(samples)


class TestEnergyBreakdown:
    def test_total_is_exact_sum(self, pi_interval):
        rng = np.random.default_rng(21)
        params = ModelParams(1.7, 0.9, 1.1, 2.2, 0.8, -1.1)
        state = initial(
            pi_interval, 4, u=rng.standard_normal(4).tolist(),
            v=rng.standard_normal(4).tolist(), theta=rng.standard_normal(4).tolist(),
        )
        e = energy_of(params, *state)
        assert e.total == e.kinetic + e.bending + e.thermal
        assert e.dissipation_rate >= 0.0

    def test_unit_weights(self, unit_params, pi_interval):
        """Mode 2 of the pi interval (lam = 4) weighs u by c lam^2 = 16,
        v by rho and theta by a; D weighs theta by b lam + d lam^2."""
        state = initial(pi_interval, 2, u=[0.0, 1.0], v=[0.0, 1.0], theta=[0.0, 1.0])
        e = energy_of(unit_params, *state)
        assert (e.kinetic, e.bending, e.thermal) == (0.5, 8.0, 0.5)
        assert e.dissipation_rate == 20.0

    def test_only_bending_scales_with_lam(self, pi_interval):
        """Halving the interval multiplies lam by 4: the bending weight
        grows 16-fold and the kinetic and thermal weights stay."""
        params = ModelParams(2.0, 3.0, 1.0, 5.0, 1.0, 1.0)
        half = Interval(math.pi / 2.0)
        assert half.eigenvalue(1) == 4.0
        coefficients = dict(u=[0.7], v=[-1.3], theta=[0.4])
        e1 = energy_of(params, *initial(pi_interval, 1, **coefficients))
        e4 = energy_of(params, *initial(half, 1, **coefficients))
        assert e4.bending == 16.0 * e1.bending
        assert (e4.kinetic, e4.thermal) == (e1.kinetic, e1.thermal)

    def test_negative_bending_when_c_negative(self, pi_interval):
        params = ModelParams(1.0, 1.0, 1.0, -1.0, 1.0, 1.0)
        state = single_mode_state(pi_interval, u=1.0)
        e = energy_of(params, *state)
        assert e.total == pytest.approx(-0.5)
