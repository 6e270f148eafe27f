import math

import numpy as np
import pytest

from gradiplate import (
    Direction,
    Interval,
    ModelParams,
    Rectangle,
    Regime,
    enumerate_modes,
    hilbert_weight,
    mode_matrix,
)
from oracles import fd_generator_column


class TestModelParams:
    def test_positive_constants_enforced(self):
        for bad in ({"rho": 0.0}, {"a": -1.0}, {"b": 0.0}, {"d": -0.5}):
            with pytest.raises(ValueError):
                ModelParams.unit(**bad)

    def test_c_nonzero(self):
        with pytest.raises(ValueError):
            ModelParams.unit(c=0.0)

    def test_degenerate_limits_accepted(self):
        # d = 0 (classical heat) and eta = 0 (decoupled) are contrast limits
        assert ModelParams.unit(d=0.0).d == 0.0
        assert ModelParams.unit(eta=0.0).eta == 0.0

    def test_regime_inference_and_mismatch(self):
        assert ModelParams.unit().regime is Regime.STABLE
        assert ModelParams.unit(c=-1.0).regime is Regime.UNSTABLE
        with pytest.raises(ValueError):
            ModelParams.unit(c=-1.0, regime=Regime.STABLE)
        with pytest.raises(ValueError):
            ModelParams.unit(c=1.0, regime=Regime.QUASISTATIC)


class TestEnumerateModes:
    def test_interval_pi(self, pi_interval):
        modes = enumerate_modes(pi_interval, 3)
        assert [m.lam for m in modes] == [1.0, 4.0, 9.0]
        assert [m.index for m in modes] == [1, 2, 3]

    def test_unit_interval_first_eigenvalue(self):
        (mode,) = enumerate_modes(Interval(1.0), 1)
        assert mode.lam == pytest.approx(math.pi**2, rel=1e-15)

    def test_square_degeneracy_tie_break(self):
        modes = enumerate_modes(Rectangle(math.pi, math.pi), 4)
        assert [m.index for m in modes] == [(1, 1), (1, 2), (2, 1), (2, 2)]
        assert np.allclose([m.lam for m in modes], [2.0, 5.0, 5.0, 8.0])

    def test_rectangle_ordering_is_global(self):
        # elongated rectangle: many (1, k) modes precede (2, 1)
        modes = enumerate_modes(Rectangle(1.0, 10.0), 50)
        lams = [m.lam for m in modes]
        assert lams == sorted(lams)
        assert all(lams[i] > 0 for i in range(50))
        # anything outside the returned set must be no smaller
        worst = lams[-1]
        dom = Rectangle(1.0, 10.0)
        included = {m.index for m in modes}
        for j in range(1, 12):
            for k in range(1, 80):
                if (j, k) not in included:
                    assert dom.eigenvalue((j, k)) >= worst

    def test_count_validation(self, pi_interval):
        with pytest.raises(ValueError):
            enumerate_modes(pi_interval, 0)

    @pytest.mark.parametrize(
        "domain, count",
        [
            (Interval(math.pi), 1000),
            (Rectangle(math.pi, 2.0), 300),
            (Rectangle(1.0, 1.0), 200),
            (Rectangle(2.0, 1.0), 200),
        ],
    )
    def test_enumeration_is_a_prefix_of_a_longer_one(self, domain, count):
        # nondiff enumerates n_max modes once and reads mode n from it
        modes = enumerate_modes(domain, count)
        for n in range(1, count + 1):
            assert modes[n - 1] == enumerate_modes(domain, n)[-1]


class TestModeMatrix:
    def test_unit_forward_rows(self, unit_params):
        m = mode_matrix(unit_params, 1.0, Direction.FORWARD).entries
        assert np.array_equal(m, np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, -1.0], [0.0, 1.0, -2.0]]))

    def test_unit_backward_rows(self, unit_params):
        m = mode_matrix(unit_params, 1.0, Direction.BACKWARD).entries
        assert np.array_equal(m, np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, -1.0], [0.0, 1.0, 2.0]]))

    def test_matches_pde_finite_difference_oracle(self):
        """Generator columns agree with a fine FD discretization of the PDE
        restricted to a single sine mode (forward direction)."""
        rho, a, b, c, d, eta = 1.3, 0.7, 2.0, 1.1, 0.4, -0.8
        params = ModelParams(rho, a, b, c, d, eta)
        length = math.pi
        for n in (1, 2):
            lam = (n * math.pi / length) ** 2
            m = mode_matrix(params, lam).entries
            for col in range(3):
                oracle = fd_generator_column(rho, a, b, c, d, eta, length, n, col)
                scale = max(np.max(np.abs(m[:, col])), 1.0)
                assert np.allclose(m[:, col], oracle, atol=1e-5 * scale), (
                    f"n={n} column {col}: {m[:, col]} vs oracle {oracle}"
                )

    def test_trace_is_heat_rate(self):
        params = ModelParams(2.0, 3.0, 0.5, 4.0, 1.5, 1.0)
        for lam in (0.5, 1.0, 7.0):
            m = mode_matrix(params, lam).entries
            assert np.trace(m) == -(params.b * lam + params.d * lam**2) / params.a

    def test_decoupled_when_eta_zero(self):
        m = mode_matrix(ModelParams.unit(eta=0.0), 3.0).entries
        assert m[1, 2] == 0.0 and m[2, 1] == 0.0

    def test_forward_backward_differ_only_in_heat_sign(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            rho, a, b, c, d = rng.uniform(0.1, 5.0, size=5)
            eta = rng.uniform(-3.0, 3.0)
            lam = rng.uniform(0.1, 50.0)
            params = ModelParams(rho, a, b, c, d, eta)
            fw = mode_matrix(params, lam, Direction.FORWARD).entries
            bw = mode_matrix(params, lam, Direction.BACKWARD).entries
            assert np.array_equal(fw[:2], bw[:2])
            assert fw[2, :2].tolist() == bw[2, :2].tolist()
            assert fw[2, 2] == -bw[2, 2]

    def test_eta_flip_is_diagonal_conjugation(self):
        """eta -> -eta conjugates the block by diag(1, 1, -1), exactly."""
        rng = np.random.default_rng(11)
        s = np.diag([1.0, 1.0, -1.0])
        for _ in range(25):
            rho, a, b, c, d = rng.uniform(0.1, 5.0, size=5)
            eta = rng.uniform(-3.0, 3.0)
            lam = rng.uniform(0.1, 50.0)
            m_plus = mode_matrix(ModelParams(rho, a, b, c, d, eta), lam).entries
            m_minus = mode_matrix(ModelParams(rho, a, b, c, d, -eta), lam).entries
            assert np.array_equal(m_minus, s @ m_plus @ s)

    def test_lambda_validation(self, unit_params):
        with pytest.raises(ValueError):
            mode_matrix(unit_params, 0.0)


class TestHilbertWeight:
    def test_unit_values(self, unit_params):
        w = hilbert_weight(unit_params, 2.0)
        assert (w.w_u, w.w_v, w.w_theta) == (4.0, 1.0, 1.0)
        assert not w.pseudo_norm

    def test_negative_c_flagged(self):
        w = hilbert_weight(ModelParams(1.0, 1.0, 1.0, -1.0, 1.0, 1.0), 1.0)
        assert (w.w_u, w.w_v, w.w_theta) == (1.0, 1.0, 1.0)
        assert w.pseudo_norm

    def test_homogeneity(self):
        params = ModelParams(2.0, 3.0, 1.0, 5.0, 1.0, 1.0)
        for lam in (0.5, 1.0, 4.0):
            w1 = hilbert_weight(params, lam)
            w2 = hilbert_weight(params, 2.0 * lam)
            assert w2.w_u == 4.0 * w1.w_u
            assert w2.w_v == w1.w_v and w2.w_theta == w1.w_theta
