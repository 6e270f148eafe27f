import math

import numpy as np
import pytest

import gradiplate.propagator as propagator
from gradiplate.errors import EigenvalueOutOfRange
from gradiplate.model import Direction, Interval, ModelParams, Rectangle, enumerate_modes
from oracles import fd_generator_column, generator_block, rectangle_eigenvalue


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


class TestEnumerateModes:
    def test_interval_pi(self, pi_interval):
        lams = enumerate_modes(pi_interval, 3)
        assert lams.tolist() == [1.0, 4.0, 9.0]

    def test_unit_interval_first_eigenvalue(self):
        (lam,) = enumerate_modes(Interval(1.0), 1)
        assert lam == pytest.approx(math.pi**2, rel=1e-15)

    def test_square_degeneracy(self):
        # (1, 2) and (2, 1) share lam = 5
        lams = enumerate_modes(Rectangle(math.pi, math.pi), 4)
        assert np.allclose(lams, [2.0, 5.0, 5.0, 8.0])

    def test_rectangle_ordering_is_global(self):
        # elongated rectangle: many (1, k) modes precede (2, 1)
        dom = Rectangle(1.0, 10.0)
        lams = enumerate_modes(dom, 50).tolist()
        assert lams == sorted(lams)
        assert all(lam > 0 for lam in lams)
        # the 50 smallest of a box that holds them, lam rounded as the oracle rounds it
        assert min(rectangle_eigenvalue(dom, (12, 1)), rectangle_eigenvalue(dom, (1, 80))) > lams[-1]
        box = sorted(rectangle_eigenvalue(dom, (j, k)) for j in range(1, 12) for k in range(1, 80))
        assert lams == box[:50]

    def test_count_validation(self, pi_interval):
        with pytest.raises(ValueError):
            enumerate_modes(pi_interval, 0)

    @pytest.mark.parametrize("domain", [
        Interval(1e300),  # lambda underflows to 0
        Interval(1e-300),  # (n pi / L)^2 overflows
        Rectangle(1e200, 1.0),
        Rectangle(1.0, 1e-200),
    ])
    def test_eigenvalues_outside_the_float_range_raise(self, domain):
        with pytest.raises(EigenvalueOutOfRange, match="positive float range"):
            enumerate_modes(domain, 4)
        assert issubclass(EigenvalueOutOfRange, ValueError)

    def test_ties_in_lam_end_the_box_search(self):
        # 1/L1^2 swamps k^2/L2^2: the modes (1, k) share one float eigenvalue
        dom = Rectangle(1e-5, 1e5)
        lams = enumerate_modes(dom, 10)
        assert lams.tolist() == [rectangle_eigenvalue(dom, (1, 1))] * 10

    def test_extreme_aspect_ratio_box_stays_small(self):
        # the Weyl box would be about 2e10 modes wide; count bounds it
        dom = Rectangle(1e20, 1.0)
        lams = enumerate_modes(dom, 4)
        assert lams.tolist() == [rectangle_eigenvalue(dom, (j, 1)) for j in range(1, 5)]

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
        lams = enumerate_modes(domain, count)
        for n in range(1, count + 1):
            assert enumerate_modes(domain, n).tobytes() == lams[:n].tobytes()


def block(params, lam, direction=Direction.FORWARD):
    """The kernel's block of one lam, in energy coordinates."""
    return propagator._energy_blocks(params, np.array([lam]), direction)[0]


def energy_scaling(params, lam):
    """S = diag(sqrt|c| lam, sqrt rho, sqrt a): y = S x takes (u, v, theta)
    to energy coordinates."""
    return np.diag([math.sqrt(abs(params.c)) * lam, math.sqrt(params.rho), math.sqrt(params.a)])


def random_params(rng):
    rho, a, b, c, d = rng.uniform(0.1, 5.0, size=5)
    return ModelParams(rho, a, b, c * rng.choice((1.0, -1.0)), d, rng.uniform(-3.0, 3.0))


class TestBlockRates:
    """`ModelParams.block_rates` is the one definition of the mode blocks."""

    def test_unit_forward_rows(self, unit_params):
        m = block(unit_params, 1.0, Direction.FORWARD)
        assert np.array_equal(m, np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, -1.0], [0.0, 1.0, -2.0]]))

    def test_unit_backward_rows(self, unit_params):
        m = block(unit_params, 1.0, Direction.BACKWARD)
        assert np.array_equal(m, np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, -1.0], [0.0, 1.0, 2.0]]))

    def test_is_the_oracle_in_energy_coordinates(self):
        """The energy block is S M S^-1 of the (u, v, theta) oracle to a few
        ulps of each entry, for either sign of c and either direction."""
        rng = np.random.default_rng(5)
        for _ in range(50):
            params, lam = random_params(rng), 10.0 ** rng.uniform(-2.0, 6.0)
            scale = energy_scaling(params, lam)
            for direction in Direction:
                oracle = scale @ generator_block(params, lam, direction) @ np.linalg.inv(scale)
                m = block(params, lam, direction)
                assert np.all(abs(m - oracle) <= 4 * np.finfo(float).eps * abs(oracle)), (params, lam)

    def test_matches_pde_finite_difference_oracle(self):
        """Generator columns agree with a fine FD discretization of the PDE
        restricted to a single sine mode (forward direction)."""
        rho, a, b, c, d, eta = 1.3, 0.7, 2.0, 1.1, 0.4, -0.8
        params = ModelParams(rho, a, b, c, d, eta)
        length = math.pi
        for n in (1, 2):
            lam = (n * math.pi / length) ** 2
            scale = energy_scaling(params, lam)
            m = np.linalg.inv(scale) @ block(params, lam) @ scale
            for col in range(3):
                oracle = fd_generator_column(rho, a, b, c, d, eta, length, n, col)
                size = max(np.max(np.abs(m[:, col])), 1.0)
                assert np.allclose(m[:, col], oracle, atol=1e-5 * size), (
                    f"n={n} column {col}: {m[:, col]} vs oracle {oracle}"
                )

    def test_trace_is_heat_rate(self):
        params = ModelParams(2.0, 3.0, 0.5, 4.0, 1.5, 1.0)
        for lam in (0.5, 1.0, 7.0):
            m = block(params, lam)
            assert np.trace(m) == -(params.b * lam + params.d * lam**2) / params.a

    def test_decoupled_when_eta_zero(self):
        m = block(ModelParams.unit(eta=0.0), 3.0)
        assert m[1, 2] == 0.0 and m[2, 1] == 0.0

    def test_forward_backward_differ_only_in_heat_sign(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            params, lam = random_params(rng), rng.uniform(0.1, 50.0)
            fw = block(params, lam, Direction.FORWARD)
            bw = block(params, lam, Direction.BACKWARD)
            assert np.array_equal(fw[:2], bw[:2])
            assert fw[2, :2].tolist() == bw[2, :2].tolist()
            assert fw[2, 2] == -bw[2, 2]

    def test_eta_flip_flips_g_exactly(self):
        """eta -> -eta negates g and leaves k and h, bit for bit, so it
        conjugates the block by diag(1, 1, -1) exactly."""
        rng = np.random.default_rng(11)
        s = np.diag([1.0, 1.0, -1.0])
        for _ in range(25):
            params, lam = random_params(rng), rng.uniform(0.1, 50.0)
            rho, a, b, c, d, eta = (getattr(params, name) for name in ModelParams.__slots__)
            flipped = ModelParams(rho, a, b, c, d, -eta)
            (k, g, h), (k_f, g_f, h_f) = params.block_rates(lam), flipped.block_rates(lam)
            assert (k_f, g_f, h_f) == (k, -g, h)
            assert np.array_equal(block(flipped, lam), s @ block(params, lam) @ s)

    def test_rows_are_the_single_lam_rates(self):
        """A mode's rates do not depend on the lams batched beside it."""
        params = ModelParams(2.0, 3.0, 0.5, -4.0, 1.5, -1.0)
        lams = np.geomspace(0.1, 1e6, 13)
        batch = params.block_rates(lams)
        for n, lam in enumerate(lams.tolist()):
            assert [rate[n] for rate in batch] == list(params.block_rates(lam))
        for direction in Direction:
            blocks = propagator._energy_blocks(params, lams, direction)
            for n, lam in enumerate(lams):
                assert blocks[n].tobytes() == block(params, lam, direction).tobytes()
