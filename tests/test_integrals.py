"""Exact running time integrals against independent references.

int_0^t D ds (the trajectory's `dissipation_integral`) and the convexity
functional's int_0^t w_n Psi_n^2 ds, with Psi_n = Phi_n + int_0^t theta_n ds,
come from the per-mode exponential kernel in closed form.  They are
checked against DOP853 carrying them as extra states, at a double root
too, against mpmath sums of exponentials, and against the sampled
Richardson-Simpson quadrature.  The convexity functional rests on Psi being
a function of the state, w_n Psi_n = eta lam_n u_n - a theta_n, which is
checked along DOP853's Psi.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradiplate.propagator as propagator
from gradiplate.cli import main
from gradiplate.config import load_config
from gradiplate.instability import convexity_trajectory, phi_coefficients
from gradiplate.model import Direction, ModelParams
from gradiplate.propagator import energy_balance_report
from gradiplate.spectrum import mode_spectra
from oracles import generator_block, mp_convexity_functional, rk_mode_evolution, rk_mode_integrals
from quadrature import cumulative_integral
from states import evolve, initial

# the double root of test_propagator.TestDoubleRoot: a defective block
DOUBLE_ROOT = ModelParams(rho=1.0, a=1.0, b=5.590169943749474, c=1.0, d=0.0, eta=3.0)


def random_state(domain, count, seed):
    rng = np.random.default_rng(seed)
    return initial(
        domain, count, u=rng.standard_normal(count), v=rng.standard_normal(count),
        theta=rng.standard_normal(count),
    )


def oracle_sums(params, state, times, direction=Direction.FORWARD, phi=None):
    """Mode sums of the three DOP853 integrals; psi is returned per mode."""
    lams, x = state
    phi = np.zeros(lams.size) if phi is None else phi
    d_int, psi, q_int = np.zeros(times.size), [], np.zeros(times.size)
    for lam, x0, phi_n in zip(lams, x, phi):
        m = generator_block(params, lam, direction)
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
        trajectory = evolve(unit_params, *state, times, direction)
        reference, _, _ = oracle_sums(unit_params, state, times, direction)
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(trajectory.dissipation_integral - reference)) <= 1e-10 * scale
        balance = energy_balance_report(trajectory, direction)
        assert balance.max_abs_residual <= 1e-13

    def test_double_root(self, pi_interval):
        roots = np.sort_complex(mode_spectra(DOUBLE_ROOT, [1.0])[0][0])
        assert abs(roots[0] - roots[1]) <= 1e-6 * abs(roots[0])
        state = initial(pi_interval, 1, u=[1.0], v=[-0.5], theta=[0.25])
        times = 0.01 * np.arange(101)
        trajectory = evolve(DOUBLE_ROOT, *state, times)
        reference, _, _ = oracle_sums(DOUBLE_ROOT, state, times)
        assert np.max(np.abs(trajectory.dissipation_integral - reference)) <= 1e-9 * reference[-1]
        assert energy_balance_report(trajectory).max_abs_residual <= 1e-12

    def test_agrees_with_sampled_quadrature_on_a_fine_grid(self, unit_params, pi_interval):
        # the README data: a bend and a thermal pulse the grid resolves
        lams = (np.arange(1, 9)) ** 2.0
        state = initial(pi_interval, 8, u=[1.0], theta=np.exp(1.0 - lams))
        times = 1e-3 * np.arange(2001)
        trajectory = evolve(unit_params, *state, times)
        sampled = cumulative_integral(trajectory.dissipation, times)
        gap = np.max(np.abs(trajectory.dissipation_integral - sampled))
        assert gap <= 1e-8 * trajectory.total[0]

    def test_zero_modes_add_nothing(self, unit_params, pi_interval):
        state = initial(pi_interval, 5, u=[1.0])
        times = np.linspace(0.0, 1.0, 11)
        alone = evolve(unit_params, *initial(pi_interval, 1, u=[1.0]), times)
        assert np.array_equal(evolve(unit_params, *state, times).dissipation_integral,
                              alone.dissipation_integral)


class TestConvexityIntegrals:
    @pytest.mark.parametrize("params", [ModelParams.unit(c=-1.0), DOUBLE_ROOT])
    def test_psi_and_its_integral_match_rk_oracle(self, params, pi_interval):
        count = 3 if params.c < 0 else 1
        state = random_state(pi_interval, count, seed=2)
        times = np.linspace(0.0, 1.0, 11)
        trajectory = evolve(params, *state, times)
        omega, t0 = 0.5, 2.0
        states = convexity_trajectory(params, *state, times, omega, t0)
        phi = phi_coefficients(params, *state).phi
        d_int, psi, q_int = oracle_sums(params, state, times, phi=phi)

        lams, x = trajectory.lams, trajectory.x
        w = params.heat_weight(lams)
        shifted = times + t0
        rho_u2 = params.rho * np.sum(x[:, 0] ** 2, axis=0)
        got_q = states.f - rho_u2 - omega * shifted**2
        got_s = states.fdot - 2.0 * params.rho * np.sum(x[:, 0] * x[:, 1], axis=0) - 2.0 * omega * shifted
        assert np.max(np.abs(got_q - q_int)) <= 1e-9 * max(np.max(np.abs(q_int)), 1.0)
        ref_s = np.sum(w[:, None] * psi**2, axis=0)
        assert np.max(np.abs(got_s - ref_s)) <= 1e-9 * np.max(np.abs(ref_s))
        assert np.max(np.abs(trajectory.dissipation_integral - d_int)) <= 1e-9 * np.max(np.abs(d_int))


class TestConvexityClosedForm:
    """F and F' against mpmath sums of exponentials, to 1e-12 relative at
    every compared sample."""

    @staticmethod
    def assert_close(got, ref):
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-12

    def test_time_domain_bench_config(self, tmp_path):
        lines = [
            "rho = 1", "a = 1", "b = 1", "c = -1", "d = 1", "eta = 1", "domain = interval",
            "length = 3.141592653589793", "mode_count = 64", "t_end = 10", "dt = 0.001",
            "initial = first-mode-bend",
        ]
        config = tmp_path / "run.cfg"
        config.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main(["instability", "--config", str(config), "--out", str(out)]) == 0
        rows = np.loadtxt(out / "instability.csv", delimiter=",", skiprows=1)[::250]
        manifest = dict(
            line.split(" = ", 1) for line in (out / "manifest.txt").read_text().splitlines()
        )
        cfg = load_config(str(config), "instability")
        live = np.any(cfg.x0 != 0.0, axis=1)
        f, fdot = mp_convexity_functional(
            cfg.params, cfg.lams[live], cfg.x0[live], rows[:, 0],
            float(manifest["result.omega_const"]), float(manifest["result.t0"]),
        )
        self.assert_close(rows[:, 1], f)
        self.assert_close(rows[:, 2], fdot)

    def test_near_zero_elasticity(self, pi_interval):
        """c = -1e-6 with u_n = 1/n^2: F' to 1e-14 where the stepwise
        exponential once drifted to 1e-13."""
        params = ModelParams(1.0, 1.0, 1.0, -1e-6, 1.0, 1.0)
        state = initial(pi_interval, 3, u=[1.0, 0.25, 1.0 / 9.0])
        times = 2e-4 * np.arange(5001)
        states = convexity_trajectory(params, *state, times, 0.0, 0.0)
        picks = [1000, 2500, 5000]
        _, fdot = mp_convexity_functional(params, *state, times[picks], 0.0, 0.0)
        assert np.max(np.abs(states.fdot[picks] - fdot) / np.abs(fdot)) <= 1e-14

    def test_random_three_mode_config(self, pi_interval):
        rng = np.random.default_rng(17)
        rho, a, b, d = rng.uniform(0.5, 2.0, size=4)
        params = ModelParams(rho, a, b, -rng.uniform(0.5, 2.0), d, rng.uniform(-2.0, 2.0))
        state = random_state(pi_interval, 3, seed=17)
        times = 1e-3 * np.arange(2001)
        states = convexity_trajectory(params, *state, times, 1.0, 2.0)
        f, fdot = mp_convexity_functional(params, *state, times[::50], 1.0, 2.0)
        self.assert_close(states.f[::50], f)
        self.assert_close(states.fdot[::50], fdot)


class TestPsiIsAStateFunction:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(st.floats(0.25, 4.0), min_size=3, max_size=3),
        st.floats(0.25, 4.0).flatmap(lambda c: st.sampled_from((c, -c))),
        st.floats(0.0, 4.0),
        st.floats(-4.0, 4.0),
        st.floats(0.5, 4.0),
        st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
        st.floats(0.05, 1.0),
    )
    def test_w_psi_is_eta_lam_u_minus_a_theta(self, rab, c, d, eta, lam, x0, t):
        """Along DOP853's Psi = Phi + int theta, with Phi from the data at
        t = 0 only."""
        params = ModelParams(rab[0], rab[1], rab[2], c, d, eta)
        m = generator_block(params, lam)
        w = params.heat_weight(lam)
        phi = (eta * lam * x0[0] - params.a * x0[2]) / w
        times = np.array([0.0, t / 2.0, t])
        _, psi, _ = rk_mode_integrals(m, x0, w, phi, times)
        for k in (1, 2):
            u, _, theta = rk_mode_evolution(m, x0, times[k])
            scale = max(abs(eta * lam * u), abs(params.a * theta), abs(w * psi[k]))
            assert abs(w * psi[k] - (eta * lam * u - params.a * theta)) <= 1e-9 * scale + 1e-12


class TestIdentityIsNotVacuous:
    """Wrong physics must fail the energy identity: it checks something."""

    def residual(self, params, domain):
        state = random_state(domain, 4, seed=9)
        trajectory = evolve(params, *state, np.linspace(0.0, 2.0, 21))
        return energy_balance_report(trajectory).max_abs_residual

    def test_exact_model_passes(self, unit_params, pi_interval):
        assert self.residual(unit_params, pi_interval) <= 1e-13

    def test_dissipation_weight_one_percent_off_fails(self, unit_params, pi_interval, monkeypatch):
        kernel = propagator._ModeKernel
        monkeypatch.setattr(
            propagator, "_ModeKernel", lambda *args: kernel(*args[:-1], 1.01 * args[-1])
        )
        assert self.residual(unit_params, pi_interval) > 1e-8

    def test_wrong_coupling_sign_fails(self, unit_params, pi_interval, monkeypatch):
        """The (2, 1) entry of the kernel's block flipped alone: flipping g
        itself, both coupling entries, is the eta-sign similarity, which no
        identity can see."""
        blocks = propagator._energy_blocks

        def flipped(params, lams, direction):
            out = blocks(params, lams, direction)
            out[:, 2, 1] *= -1.0
            return out

        monkeypatch.setattr(propagator, "_energy_blocks", flipped)
        assert self.residual(unit_params, pi_interval) > 1e-8
