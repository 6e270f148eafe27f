import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradiplate import (
    Interval,
    ModelParams,
    Rectangle,
    ResolventRHS,
    SingularSystem,
    mode_matrix,
    mode_resolvent_norm,
    nondiff_limit_check,
    nondiff_sequence,
    resolvent_norm,
    resonant_omega_grid,
    scan_imaginary_axis,
    solve_mode_resolvent,
)
from gradiplate import resolvent
from gradiplate.model import enumerate_modes
from oracles import lapack_resolvent_norms, mp_resolvent_singular_values


def h_inner(params, lam, x, g):
    """Energy inner product <x, g> on one mode."""
    w = np.array([params.c * lam**2, params.rho, params.a])
    return complex(np.sum(w * x * np.conj(g)))


class TestSolveModeResolvent:
    def test_zero_rhs_zero_solution(self, unit_params):
        out = solve_mode_resolvent(unit_params, 1.0, 0.0, ResolventRHS(0.0, 0.0, 0.0))
        assert (out.u, out.v, out.theta) == (0.0, 0.0, 0.0)

    def test_backsubstitution_residual(self, unit_params):
        rhs = ResolventRHS(1.0, 0.0, 0.0)
        out = solve_mode_resolvent(unit_params, 1.0, 0.0, rhs)
        m = mode_matrix(unit_params, 1.0).entries
        x = np.array([out.u, out.v, out.theta])
        residual = np.linalg.norm(-m @ x - np.array([1.0, 0.0, 0.0]))
        assert residual <= 1e-12

    def test_dissipation_identity_sweep(self):
        """Re<U, G>_H equals (b lam + d lam^2) |theta|^2 for every solve."""
        rng = np.random.default_rng(17)
        for _ in range(100):
            rho, a, b, c, d = rng.uniform(0.2, 4.0, size=5)
            eta = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
            params = ModelParams(rho, a, b, c, d, eta)
            lam = float(rng.uniform(0.3, 40.0))
            omega = float(rng.uniform(-60.0, 60.0))
            g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            out = solve_mode_resolvent(params, lam, omega, ResolventRHS(*g))
            x = np.array([out.u, out.v, out.theta])
            lhs = h_inner(params, lam, x, g).real
            rhs = (b * lam + d * lam**2) * abs(out.theta) ** 2
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1e-30)

    def test_requires_stable_regime(self):
        params = ModelParams(1, 1, 1, -1.0, 1, 1)
        with pytest.raises(ValueError):
            solve_mode_resolvent(params, 1.0, 0.0, ResolventRHS(1.0, 0.0, 0.0))


class TestResolventNorm:
    def test_zero_frequency_dominated_by_first_mode(self, unit_params, pi_interval):
        total = resolvent_norm(unit_params, pi_interval, 0.0, 16)
        per_block = [
            mode_resolvent_norm(unit_params, float(n * n), 0.0) for n in range(1, 17)
        ]
        assert total == max(per_block)
        assert np.argmax(per_block) == 0
        assert np.isfinite(total)

    def test_sign_symmetry(self, unit_params, pi_interval):
        for omega in (0.5, 3.0, 41.0):
            plus = resolvent_norm(unit_params, pi_interval, omega, 8)
            minus = resolvent_norm(unit_params, pi_interval, -omega, 8)
            assert plus == pytest.approx(minus, rel=1e-12)

    def test_mode_count_monotonicity(self, unit_params, pi_interval):
        for omega in (0.0, 2.0, 10.0, 100.0):
            lo = resolvent_norm(unit_params, pi_interval, omega, 8)
            hi = resolvent_norm(unit_params, pi_interval, omega, 16)
            assert hi >= lo

    def test_bounded_over_wide_sweep(self, unit_params, pi_interval):
        positive = np.geomspace(1e-2, 1e4, 60)
        omegas = np.concatenate([-positive[::-1], [0.0], positive])
        norms = [resolvent_norm(unit_params, pi_interval, float(w), 32) for w in omegas]
        assert np.all(np.isfinite(norms))
        assert max(norms) < 10.0


class TestScan:
    def test_single_point_grid(self, unit_params, pi_interval):
        scan = scan_imaginary_axis(unit_params, pi_interval, [0.0], 4)
        assert scan.norms.shape == (1,)
        assert np.isfinite(scan.norms[0])
        assert scan.sup_norm == scan.tail_min == scan.norms[0]

    def test_matches_pointwise_norm(self, unit_params, pi_interval):
        grid = [0.0, 1.0, 5.0, 25.0]
        scan = scan_imaginary_axis(unit_params, pi_interval, grid, 12)
        for k, omega in enumerate(grid):
            assert scan.norms[k] == pytest.approx(
                resolvent_norm(unit_params, pi_interval, omega, 12), rel=1e-12
            )

    def test_resonant_tail_does_not_vanish(self, unit_params, pi_interval):
        grid = resonant_omega_grid(unit_params, pi_interval, 64, 5.0, 2000.0)
        scan = scan_imaginary_axis(unit_params, pi_interval, grid, 64)
        # tail minimum stays within 10% of the verified asymptotic peak
        assert scan.limit_peak == 2.0
        assert scan.tail_min >= 0.9 * scan.limit_peak

    def test_classical_limit_tail_decays(self, pi_interval):
        """d = 0 restores resolvent decay ~ 1/omega along the resonances."""
        stable = ModelParams.unit()
        classical = ModelParams.unit(d=0.0)
        grid = resonant_omega_grid(stable, pi_interval, 64, 5.0, 2000.0)
        scan = scan_imaginary_axis(classical, pi_interval, grid, 64)
        head = scan.norms[0]
        assert scan.tail_min <= head / 10.0

    def test_mode_count_monotone(self, unit_params, pi_interval):
        grid = np.linspace(1.0, 50.0, 9)
        lo = scan_imaginary_axis(unit_params, pi_interval, grid, 8)
        hi = scan_imaginary_axis(unit_params, pi_interval, grid, 16)
        assert np.all(hi.norms >= lo.norms)


@st.composite
def stable_params(draw):
    scale = st.floats(0.1, 10.0)
    return ModelParams(
        rho=draw(scale),
        a=draw(scale),
        b=draw(scale),
        c=draw(scale),
        d=draw(st.floats(0.0, 10.0)),
        eta=draw(scale) * draw(st.sampled_from((-1.0, 1.0))),
    )


class TestNormKernel:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(stable_params(), st.floats(1e-2, 1e4), st.floats(-1e5, 1e5))
    def test_matches_lapack_oracle(self, params, lam, omega):
        expected = lapack_resolvent_norms(params, [lam], [omega])[0, 0]
        assert mode_resolvent_norm(params, lam, omega) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "params, lam, omega",
        [
            (ModelParams.unit(), 1.0, 1e-300),
            (ModelParams.unit(), 1.0, -1e-300),
            (ModelParams.unit(), 1.0, 1e300),
            (ModelParams.unit(), 1.0, -1e300),
            (ModelParams.unit(), 1e10, 1e-300),
            (ModelParams.unit(), 1e10, 1e300),
            (ModelParams.unit(d=0.0), 1.0, 3.0),
            (ModelParams.unit(d=0.0), 1e10, 1e-300),
            (ModelParams.unit(d=0.0), 1e10, 1e10),
            (ModelParams(2.5, 0.7, 1.3, 0.4, 2.0, -1.7), 7.3, -40.0),
        ],
    )
    def test_matches_mpmath_at_extremes(self, params, lam, omega):
        pytest.importorskip("mpmath")
        expected = mp_resolvent_singular_values(params, lam, omega)[0]
        assert mode_resolvent_norm(params, lam, omega) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("lam, omega", [(1e4, 1.0), (1e10, 1.0), (1e10, -1e-3)])
    def test_coincident_top_singular_values(self, unit_params, lam, omega):
        """omega << k: the top two singular values agree to 2e-4 relative
        (lam = 1e4) and 1e-10 (lam = 1e10), where a closed-form cubic for the
        top eigenvalue loses digits."""
        pytest.importorskip("mpmath")
        values = mp_resolvent_singular_values(unit_params, lam, omega)
        assert values[0] - values[1] <= 1e-3 * values[0]
        assert mode_resolvent_norm(unit_params, lam, omega) == pytest.approx(values[0], rel=1e-14)

    def test_scan_bits_do_not_depend_on_passes(self, unit_params, pi_interval):
        grid = np.geomspace(0.1, 1e4, 300)
        assert grid.size * 64 > 2 * resolvent.BLOCK_BUDGET
        scan = scan_imaginary_axis(unit_params, pi_interval, grid, 64)
        pointwise = [resolvent_norm(unit_params, pi_interval, w, 64) for w in grid]
        assert scan.norms.tobytes() == np.array(pointwise).tobytes()
        mirror = resolvent_norm(unit_params, pi_interval, -grid[0], 64)
        assert scan.sign_gap == abs(scan.norms[0] - mirror) / scan.norms[0]

    def test_scan_memory_is_bounded(self, unit_params, pi_interval):
        """4000 frequencies x 512 modes once built 1.2 GB of block stacks.
        The bound, 12 MiB, is below one float64 per block (15.6 MiB): the
        kernel's passes hold a fixed number of blocks, and nothing the size
        of the whole grid is built."""
        grid = np.geomspace(0.1, 1e4, 4000)
        tracemalloc.start()
        try:
            scan = scan_imaginary_axis(unit_params, pi_interval, grid, 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(scan.norms))
        assert peak < 12 * 2**20

    def test_decoupled_resonance_is_singular(self):
        """eta = 0 leaves the plate undamped: i*omega = i*sqrt(c/rho)*lam is
        an eigenvalue of the block."""
        with pytest.raises(SingularSystem):
            mode_resolvent_norm(ModelParams.unit(eta=0.0), 4.0, 4.0)


@st.composite
def sup_params(draw):
    """Stable parameters, d = 0 and weak coupling included."""
    scale = st.floats(0.1, 10.0)
    return ModelParams(
        rho=draw(scale),
        a=draw(scale),
        b=draw(scale),
        c=draw(scale),
        d=draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0))),
        eta=draw(st.one_of(scale, st.floats(1e-4, 1e-2))) * draw(st.sampled_from((-1.0, 1.0))),
    )


@st.composite
def lam_sets(draw):
    """2-64 lambdas, some of them repeated as on a square."""
    distinct = draw(st.lists(st.floats(1e-2, 1e6), min_size=1, max_size=32, unique=True))
    repeats = draw(st.lists(st.sampled_from(distinct), min_size=max(0, 2 - len(distinct)), max_size=32))
    return draw(st.permutations(distinct + repeats))


class TestPrunedSup:
    """The scan keeps one number per omega, the sup over modes, and sends to
    Jacobi only the blocks whose upper bound reaches the row's bar."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(sup_params(), lam_sets(), st.lists(st.floats(-1e5, 1e5), max_size=4))
    def test_sup_is_the_max_of_single_block_norms(self, params, lams, extra):
        resonant = math.sqrt(params.c / params.rho) * np.array(lams[:4])
        omegas = np.concatenate([[0.0, 1e-300, -1e-300, 1e300, -1e300], resonant, -resonant, extra])
        # one lambda per row: each row is a single block, with nothing to
        # prune, and its bits are mode_resolvent_norm's at every omega
        singles = np.array([resolvent._sup_norms(params, [lam], omegas) for lam in lams])
        assert np.all(singles > 0)
        assert singles[0, 5] == mode_resolvent_norm(params, lams[0], omegas[5])
        sups = resolvent._sup_norms(params, lams, omegas)
        assert sups.tobytes() == np.max(singles, axis=0).tobytes()

    def test_few_blocks_reach_jacobi(self, unit_params, pi_interval, monkeypatch):
        """On the README-size scan about 4% of the blocks can hold their
        row's sup; the rest are settled by their bounds."""
        received = []
        gram_top = resolvent._gram_top

        def counting(d0, *rest):
            received.append(d0.size)
            return gram_top(d0, *rest)

        monkeypatch.setattr(resolvent, "_gram_top", counting)
        grid = np.geomspace(0.1, 1e4, 2000)
        scan_imaginary_axis(unit_params, pi_interval, grid, 64)
        # the scan adds -grid[0], its conjugation-symmetry probe
        assert sum(received) <= 0.1 * (grid.size + 1) * 64


class TestNondiffSequence:
    def test_frozen_values_unit_params(self, unit_params, pi_interval):
        p2 = nondiff_sequence(unit_params, pi_interval, 2)
        assert p2.q == 0.25
        assert p2.norm_v_sq == pytest.approx(1.625, rel=1e-14)
        p3 = nondiff_sequence(unit_params, pi_interval, 3)
        assert p3.norm_v_sq == pytest.approx(8181.0 / 6561.0, rel=1e-14)

    def test_amplitude_system_residuals(self, unit_params, pi_interval):
        for n in range(1, 31):
            point = nondiff_sequence(unit_params, pi_interval, n)
            assert point.alg1_residual <= 1e-12
            assert point.alg2_residual <= 1e-12

    def test_closed_form_agrees_with_direct_solve(self, pi_interval):
        """|v_n|^2 from the closed form equals the resolvent solve at the
        resonant frequency (unit load on the mass-scaled velocity row, i.e.
        abstract right-hand side (0, 1/rho, 0))."""
        params = ModelParams(rho=1.5, a=0.8, b=1.2, c=2.5, d=0.6, eta=-1.1)
        for n in (1, 2, 3, 5, 8):
            point = nondiff_sequence(params, pi_interval, n)
            out = solve_mode_resolvent(
                params, point.lam, point.omega, ResolventRHS(0.0, 1.0 / params.rho, 0.0)
            )
            assert abs(out.u - point.p) <= 1e-10 * max(1.0, abs(point.p))
            assert abs(out.theta - point.q) <= 1e-10 * max(1.0, abs(point.q))
            assert abs(abs(out.v) ** 2 - point.norm_v_sq) <= 1e-10 * point.norm_v_sq
            # v = i omega u for the constructed solution
            assert cmath.isclose(out.v, 1j * point.omega * out.u, rel_tol=1e-9)

    def test_negative_branch_conjugates(self, unit_params, pi_interval):
        plus = nondiff_sequence(unit_params, pi_interval, 4, branch=+1)
        minus = nondiff_sequence(unit_params, pi_interval, 4, branch=-1)
        assert minus.omega == -plus.omega
        assert minus.p == pytest.approx(plus.p.conjugate(), rel=1e-14)
        assert minus.norm_v_sq == pytest.approx(plus.norm_v_sq, rel=1e-14)

    def test_weighted_norm_carries_rho(self, pi_interval):
        params = ModelParams(rho=3.0, a=1.0, b=1.0, c=1.0, d=1.0, eta=1.0)
        point = nondiff_sequence(params, pi_interval, 2)
        assert point.norm_v_sq_weighted == pytest.approx(3.0 * point.norm_v_sq, rel=1e-14)

    def test_norm_u_sq_accumulates_weights(self, unit_params, pi_interval):
        point = nondiff_sequence(unit_params, pi_interval, 2)
        expected = (
            point.lam**2 * abs(point.p) ** 2
            + point.omega**2 * abs(point.p) ** 2
            + point.q**2
        )
        assert point.norm_u_sq == pytest.approx(expected, rel=1e-14)

    def test_eta_zero_rejected(self, pi_interval):
        with pytest.raises(ValueError):
            nondiff_sequence(ModelParams.unit(eta=0.0), pi_interval, 2)

    def test_precomputed_modes_give_the_same_point(self, unit_params):
        domain = Rectangle(2.0, 1.0)
        modes = enumerate_modes(domain, 40)
        for n in (1, 7, 40):
            assert nondiff_sequence(unit_params, domain, n, -1, modes=modes) == (
                nondiff_sequence(unit_params, domain, n, -1)
            )
        with pytest.raises(ValueError):
            nondiff_sequence(unit_params, domain, 41, modes=modes)


class TestNondiffLimit:
    @pytest.mark.parametrize(
        "d, eta, target",
        [(1.0, 1.0, 1.0), (2.0, 1.0, 4.0), (1.0, 2.0, 0.0625)],
    )
    def test_limit_targets(self, pi_interval, d, eta, target):
        params = ModelParams.unit(d=d, eta=eta)
        report = nondiff_limit_check(params, pi_interval, 30)
        assert report.target == target
        assert report.gap_at_end <= 0.01
        assert report.matching_norm == "l2"

    def test_rectangle_sequence_also_converges(self):
        params = ModelParams.unit()
        report = nondiff_limit_check(params, Interval(1.0), 30)
        assert report.gap_at_end <= 0.01

    def test_n_max_validation(self, unit_params, pi_interval):
        with pytest.raises(ValueError):
            nondiff_limit_check(unit_params, pi_interval, 5)

    def test_precomputed_points_give_the_same_report(self, unit_params, pi_interval):
        points = [nondiff_sequence(unit_params, pi_interval, n) for n in range(1, 31)]
        given = nondiff_limit_check(unit_params, pi_interval, 30, points=points)
        fresh = nondiff_limit_check(unit_params, pi_interval, 30)
        assert given.norm_v_sq.tobytes() == fresh.norm_v_sq.tobytes()
        assert given.gap_at_end == fresh.gap_at_end
        with pytest.raises(ValueError):
            nondiff_limit_check(unit_params, pi_interval, 30, points=points[1:])


class TestResonantGrid:
    def test_grid_contents(self, unit_params, pi_interval):
        grid = resonant_omega_grid(unit_params, pi_interval, 10, 3.0, 50.0)
        assert np.array_equal(grid, [4.0, 9.0, 16.0, 25.0, 36.0, 49.0])

    def test_fill_merges_sorted_unique(self, unit_params, pi_interval):
        grid = resonant_omega_grid(unit_params, pi_interval, 10, 3.0, 50.0, fill=7)
        assert np.all(np.diff(grid) > 0)
        assert {4.0, 9.0, 16.0, 25.0, 36.0, 49.0} <= set(grid.tolist())
