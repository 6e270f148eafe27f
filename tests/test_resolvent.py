import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gradiplate.resolvent as resolvent
from gradiplate.errors import EigenvalueOutOfRange, SingularSystem
from gradiplate.model import Interval, ModelParams, Rectangle, enumerate_modes
from gradiplate.nondiff import closed_form_gap, gap_reach, nondiff_sequence
from gradiplate.resolvent import resonant_omega_grid, scan_imaginary_axis
from oracles import (
    generator_block, lapack_resolvent_norms, lapack_resolvent_solve, mp_resolvent_singular_values,
)


def block_norm(params, lam, omega):
    """The energy-weighted resolvent norm of one block."""
    return float(resolvent._sup_norms(params, [lam], [omega])[0][0])


def sup_norm(params, domain, omega, mode_count):
    """The sup of block_norm over the first mode_count modes of a domain."""
    return float(resolvent._sup_norms(params, enumerate_modes(domain, mode_count), [omega])[0][0])


class TestResolventNorm:
    def test_zero_frequency_dominated_by_first_mode(self, unit_params, pi_interval):
        total = sup_norm(unit_params, pi_interval, 0.0, 16)
        per_block = [
            block_norm(unit_params, float(n * n), 0.0) for n in range(1, 17)
        ]
        assert total == max(per_block)
        assert np.argmax(per_block) == 0
        assert np.isfinite(total)

    def test_sign_symmetry(self, unit_params, pi_interval):
        for omega in (0.5, 3.0, 41.0):
            plus = sup_norm(unit_params, pi_interval, omega, 8)
            minus = sup_norm(unit_params, pi_interval, -omega, 8)
            assert plus == pytest.approx(minus, rel=1e-12)

    def test_mode_count_monotonicity(self, unit_params, pi_interval):
        for omega in (0.0, 2.0, 10.0, 100.0):
            lo = sup_norm(unit_params, pi_interval, omega, 8)
            hi = sup_norm(unit_params, pi_interval, omega, 16)
            assert hi >= lo

    def test_bounded_over_wide_sweep(self, unit_params, pi_interval):
        positive = np.geomspace(1e-2, 1e4, 60)
        omegas = np.concatenate([-positive[::-1], [0.0], positive])
        norms = [sup_norm(unit_params, pi_interval, float(w), 32) for w in omegas]
        assert np.all(np.isfinite(norms))
        assert max(norms) < 10.0


class TestScan:
    def test_single_point_grid(self, unit_params, pi_interval):
        scan = scan_imaginary_axis(unit_params, enumerate_modes(pi_interval, 4), [0.0])
        assert scan.norms.shape == (1,)
        assert np.isfinite(scan.norms[0])
        assert scan.sup_norm == scan.tail_min == scan.norms[0]

    def test_matches_pointwise_norm(self, unit_params, pi_interval):
        grid = [0.0, 1.0, 5.0, 25.0]
        scan = scan_imaginary_axis(unit_params, enumerate_modes(pi_interval, 12), grid)
        for k, omega in enumerate(grid):
            assert scan.norms[k] == pytest.approx(
                sup_norm(unit_params, pi_interval, omega, 12), rel=1e-12
            )

    def test_resonant_tail_does_not_vanish(self, unit_params, pi_interval):
        lams = enumerate_modes(pi_interval, 64)
        scan = scan_imaginary_axis(unit_params, lams, resonant_omega_grid(unit_params, lams, 5.0, 2000.0))
        # tail minimum stays within 10% of the verified asymptotic peak
        assert scan.limit_peak == 2.0
        assert scan.tail_min >= 0.9 * scan.limit_peak

    def test_classical_limit_tail_decays(self, pi_interval):
        """d = 0 restores resolvent decay ~ 1/omega along the resonances."""
        stable = ModelParams.unit()
        classical = ModelParams.unit(d=0.0)
        lams = enumerate_modes(pi_interval, 64)
        scan = scan_imaginary_axis(classical, lams, resonant_omega_grid(stable, lams, 5.0, 2000.0))
        head = scan.norms[0]
        assert scan.tail_min <= head / 10.0

    def test_mode_count_monotone(self, unit_params, pi_interval):
        grid = np.linspace(1.0, 50.0, 9)
        lo = scan_imaginary_axis(unit_params, enumerate_modes(pi_interval, 8), grid)
        hi = scan_imaginary_axis(unit_params, enumerate_modes(pi_interval, 16), grid)
        assert np.all(hi.norms >= lo.norms)

    def test_requires_stable_regime(self, pi_interval):
        """For c < 0 the energy is not a norm and the scan has no meaning."""
        with pytest.raises(ValueError, match="requires c > 0"):
            scan_imaginary_axis(ModelParams.unit(c=-1.0), enumerate_modes(pi_interval, 4), [0.0, 1.0])


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
        assert block_norm(params, lam, omega) == pytest.approx(expected, rel=1e-12)

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
        assert block_norm(params, lam, omega) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("lam, omega", [(1e4, 1.0), (1e10, 1.0), (1e10, -1e-3)])
    def test_coincident_top_singular_values(self, unit_params, lam, omega):
        """omega << k: the top two singular values agree to 2e-4 relative
        (lam = 1e4) and 1e-10 (lam = 1e10), where a closed-form cubic for the
        top eigenvalue loses digits."""
        pytest.importorskip("mpmath")
        values = mp_resolvent_singular_values(unit_params, lam, omega)
        assert values[0] - values[1] <= 1e-3 * values[0]
        assert block_norm(unit_params, lam, omega) == pytest.approx(values[0], rel=1e-14)

    def test_scan_bits_do_not_depend_on_passes(self, unit_params, pi_interval):
        grid = np.geomspace(0.1, 1e4, 300)
        assert grid.size * 64 > 2 * resolvent.BLOCK_BUDGET
        scan = scan_imaginary_axis(unit_params, enumerate_modes(pi_interval, 64), grid)
        pointwise = [sup_norm(unit_params, pi_interval, w, 64) for w in grid]
        assert scan.norms.tobytes() == np.array(pointwise).tobytes()
        mirror = sup_norm(unit_params, pi_interval, -grid[0], 64)
        assert scan.sign_gap == abs(scan.norms[0] - mirror) / scan.norms[0]

    def test_scan_memory_is_bounded(self, unit_params, pi_interval):
        """4000 frequencies x 512 modes once built 1.2 GB of block stacks.
        The bound, 12 MiB, is below one float64 per block (15.6 MiB): the
        kernel's passes hold a fixed number of blocks, and nothing the size
        of the whole grid is built."""
        grid = np.geomspace(0.1, 1e4, 4000)
        tracemalloc.start()
        try:
            scan = scan_imaginary_axis(unit_params, enumerate_modes(pi_interval, 512), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(scan.norms))
        assert peak < 12 * 2**20

    def test_wide_scan_memory_is_its_working_set(self, unit_params):
        """The bench's wide-plate scan, 200 frequencies x 2048 rectangle
        modes, peaked at 6.5 MB when a pass's kept blocks joined the pending
        ones in one Jacobi call of up to twice BLOCK_BUDGET, and at 4.6 MB
        with every call at most a BLOCK_BUDGET of 8,192.  At 4,096 it stays
        below 3 MB."""
        domain = Rectangle(math.pi, 2.0)
        grid = np.geomspace(0.1, 1e4, 200)
        scan_imaginary_axis(unit_params, enumerate_modes(domain, 2048), grid[:2])
        tracemalloc.start()
        try:
            scan = scan_imaginary_axis(unit_params, enumerate_modes(domain, 2048), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6
        assert scan.kept_blocks > resolvent.BLOCK_BUDGET

    def test_scan_memory_does_not_grow_with_the_modes(self, unit_params):
        """20 frequencies x 65,536 interval modes peaked at 13.2 MB when a
        bound pass held one omega row whole.  A pass now holds at most
        BLOCK_BUDGET (omega, chunk) bounds and BLOCK_BUDGET blocks: the scan
        peaks at 0.96 MB here, and at 0.98 MB with 262,144 modes."""
        lams = enumerate_modes(Interval(math.pi), 65536)
        grid = np.geomspace(0.1, 1e4, 20)
        scan_imaginary_axis(unit_params, lams[:64], grid[:2])
        tracemalloc.start()
        try:
            scan = scan_imaginary_axis(unit_params, lams, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6
        assert np.all(np.isfinite(scan.norms))

    def test_decoupled_resonance_is_singular(self):
        """eta = 0 leaves the plate undamped: i*omega = i*sqrt(c/rho)*lam is
        an eigenvalue of the block.  Singularity is found before anything
        divides, so no RuntimeWarning escapes."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystem, match="^singular resolvent block at omega=4.0, lam=4.0$"):
                block_norm(ModelParams.unit(eta=0.0), 4.0, 4.0)


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


def probe_omegas(params, lams, extra):
    """0, +-1e-300, +-1e300, the +- resonances of the first four lams, and
    `extra`."""
    resonant = math.sqrt(params.c / params.rho) * np.array(lams[:4])
    return np.concatenate([[0.0, 1e-300, -1e-300, 1e300, -1e300], resonant, -resonant, extra])


# the bench's wide-plate scan: 2,048 rectangle modes, 200 log frequencies and
# the -omega_0 probe
WIDE_PLATE = (
    ModelParams.unit(),
    enumerate_modes(Rectangle(math.pi, 2.0), 2048).tolist(),
    [*np.geomspace(0.1, 1e4, 200).tolist(), -0.1],
)


class TestPrunedSup:
    """The scan keeps one number per omega, the sup over modes, and sends to
    Jacobi only the blocks whose upper bound reaches the row's bar."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(sup_params(), lam_sets(), st.lists(st.floats(-1e5, 1e5), max_size=4))
    @example(*WIDE_PLATE)
    def test_sup_is_the_max_of_single_block_norms(self, params, lams, extra):
        omegas = probe_omegas(params, lams, extra)
        # one lambda per row: each row is a single block, with nothing to prune
        singles = np.array([resolvent._sup_norms(params, [lam], omegas)[0] for lam in lams])
        assert np.all(singles > 0)
        sups = resolvent._sup_norms(params, lams, omegas)[0]
        assert sups.tobytes() == np.max(singles, axis=0).tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(sup_params(), lam_sets(), st.lists(st.floats(-1e5, 1e5), max_size=4))
    @example(*WIDE_PLATE)
    def test_kept_blocks_are_those_whose_high_reaches_the_bar(self, params, lams, extra):
        """The chunk bounds skip only blocks that exact bounds on the whole
        grid would prune: the kept count is that of every block whose `high`
        reaches the largest `low` of its row."""
        omegas = probe_omegas(params, lams, extra)
        lam, omega = (x.ravel() for x in np.meshgrid(lams, omegas))
        low, high, _ = resolvent._bounds(params, lam, omega)
        low, high = low.reshape(omegas.size, -1), high.reshape(omegas.size, -1)
        reach = ~(high < np.max(low, axis=1, keepdims=True))
        assert resolvent._sup_norms(params, lams, omegas)[1] == np.count_nonzero(reach)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(sup_params(), lam_sets(), st.lists(st.floats(-1e5, 1e5), min_size=1, max_size=4))
    def test_eta_sign_leaves_the_norms(self, params, lams, omegas):
        """diag(1, 1, -1) is an isometry of the energy space that maps the
        block of eta onto the block of -eta, so the norms agree."""
        flipped = ModelParams(params.rho, params.a, params.b, params.c, params.d, -params.eta)
        plus = resolvent._sup_norms(params, lams, omegas)[0]
        minus = resolvent._sup_norms(flipped, lams, omegas)[0]
        assert minus == pytest.approx(plus, rel=1e-12)

    @pytest.mark.parametrize("budget", [7, 64, 300])
    def test_sup_bits_do_not_depend_on_the_budget(self, unit_params, pi_interval, monkeypatch, budget):
        """Kept blocks carried from one Jacobi call to the next, and passes
        of one omega that fill several calls (budget 7 < 64 modes), leave
        every bit of the sups as one call over all the kept blocks does."""
        lams = enumerate_modes(pi_interval, 64)
        omegas = np.geomspace(0.1, 1e4, 300)
        whole, kept, calls = resolvent._sup_norms(unit_params, lams, omegas)
        assert calls == 1
        monkeypatch.setattr(resolvent, "BLOCK_BUDGET", budget)
        sups, kept_now, calls_now = resolvent._sup_norms(unit_params, lams, omegas)
        assert sups.tobytes() == whole.tobytes()
        assert kept_now == kept
        assert calls_now == -(-kept // budget) > 1

    def test_one_batch_pass_bounds_each_block_once(self, unit_params, pi_interval, monkeypatch):
        """A pass whose chunks above the seeds' bar fit one batch of exact
        bounds raises the bar and builds its kept blocks from the same
        bounds, so no block's bounds run twice."""
        seen = []
        bounds = resolvent._bounds

        def counting(params, lam, omega):
            seen.extend(zip(omega.tolist(), lam.tolist()))
            return bounds(params, lam, omega)

        monkeypatch.setattr(resolvent, "_bounds", counting)
        omegas = np.geomspace(0.1, 1e4, 300)
        resolvent._sup_norms(unit_params, enumerate_modes(pi_interval, 64), omegas)
        # more than the seed chunks of 8 modes, one per row
        assert len(seen) > 8 * omegas.size
        assert len(set(seen)) == len(seen)

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
        scan_imaginary_axis(unit_params, enumerate_modes(pi_interval, 64), grid)
        # the scan adds -grid[0], its conjugation-symmetry probe
        assert sum(received) <= 0.1 * (grid.size + 1) * 64

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        sup_params(), lam_sets(),
        st.lists(st.tuples(st.integers(0, 63), st.sampled_from((-1.0, 1.0))), min_size=1, max_size=6),
        st.lists(st.floats(-1e5, 1e5), max_size=4),
    )
    def test_first_singular_block_in_row_mode_order(self, params, lams, picks, extra):
        """With eta = 0 a block is singular exactly where k = |omega|, and the
        error names the first such block in (row, mode) order, whichever
        chunk it lies in."""
        decoupled = ModelParams(params.rho, params.a, params.b, params.c, params.d, 0.0)
        root = math.sqrt(params.c / params.rho)
        omegas = extra + [sign * root * lams[i % len(lams)] for i, sign in picks]
        first = next((w, lam) for w in omegas for lam in lams if root * lam == abs(w))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystem) as raised:
                resolvent._sup_norms(decoupled, lams, omegas)
        assert str(raised.value) == f"singular resolvent block at omega={first[0]!r}, lam={first[1]!r}"


def scalar_term(params, lam, branch):
    """One term of the resonant-drive sequence in Python complex arithmetic."""
    root = math.sqrt(params.c / params.rho)
    omega = branch * root * lam
    p = branch * (
        (1j * params.a * omega + params.d * lam**2 + params.b * lam)
        / (1j * params.eta**2 * lam**3 * root)
    )
    return omega, 1.0 / (params.eta * lam), p, omega**2 * abs(p) ** 2


class TestNondiffSequence:
    def test_frozen_values_unit_params(self, unit_params, pi_interval):
        seq = nondiff_sequence(unit_params, enumerate_modes(pi_interval, 3))
        assert seq.q[1] == 0.25
        assert seq.norm_v_sq[1] == pytest.approx(1.625, rel=1e-14)
        assert seq.norm_v_sq[2] == pytest.approx(8181.0 / 6561.0, rel=1e-14)

    def test_amplitude_system_residuals(self, unit_params, pi_interval):
        seq = nondiff_sequence(unit_params, enumerate_modes(pi_interval, 30))
        assert np.max(seq.alg1_residual) <= 1e-12
        assert np.max(seq.alg2_residual) <= 1e-12

    def test_closed_form_agrees_with_direct_solve(self, pi_interval):
        """|v_n|^2 from the closed form equals the resolvent solve at the
        resonant frequency (unit load on the mass-scaled velocity row, i.e.
        abstract right-hand side (0, 1/rho, 0))."""
        params = ModelParams(rho=1.5, a=0.8, b=1.2, c=2.5, d=0.6, eta=-1.1)
        seq = nondiff_sequence(params, enumerate_modes(pi_interval, 8))
        for n in (1, 2, 3, 5, 8):
            lam, omega, p, q = seq.lam[n - 1], seq.omega[n - 1], seq.p[n - 1], seq.q[n - 1]
            u, v, theta = lapack_resolvent_solve(params, lam, omega, (0.0, 1.0 / params.rho, 0.0))
            assert abs(u - p) <= 1e-10 * max(1.0, abs(p))
            assert abs(theta - q) <= 1e-10 * max(1.0, abs(q))
            assert abs(abs(v) ** 2 - seq.norm_v_sq[n - 1]) <= 1e-10 * seq.norm_v_sq[n - 1]
            # v = i omega u for the constructed solution
            assert cmath.isclose(v, 1j * omega * u, rel_tol=1e-9)

    def test_negative_branch_conjugates(self, unit_params, pi_interval):
        plus = nondiff_sequence(unit_params, enumerate_modes(pi_interval, 4), branch=+1)
        minus = nondiff_sequence(unit_params, enumerate_modes(pi_interval, 4), branch=-1)
        assert np.array_equal(minus.omega, -plus.omega)
        assert minus.p == pytest.approx(plus.p.conjugate(), rel=1e-14)
        assert minus.norm_v_sq == pytest.approx(plus.norm_v_sq, rel=1e-14)

    @pytest.mark.parametrize("branch", [+1, -1])
    def test_dissipation_identity(self, branch, pi_interval):
        """Re<G, U>_H = (b lam + d lam^2) |theta|^2 for the solution U of
        (i omega - M) U = G.  With G = (0, 1/rho, 0) the left side is
        Re v = Re(i omega p)."""
        params = ModelParams(rho=1.5, a=0.8, b=1.2, c=2.5, d=0.6, eta=-1.1)
        seq = nondiff_sequence(params, enumerate_modes(pi_interval, 12), branch=branch)
        lhs = (1j * seq.omega * seq.p).real
        rhs = (params.b * seq.lam + params.d * seq.lam**2) * seq.q**2
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_solves_the_generator_block(self, pi_interval):
        """(p, i omega p, q) solves (i omega - M) U = (0, 1/rho, 0) with M
        the forward (u, v, theta) block of the oracle, to the rounding of
        the largest term of each row."""
        params = ModelParams(rho=1.5, a=0.8, b=1.2, c=2.5, d=0.6, eta=-1.1)
        seq = nondiff_sequence(params, enumerate_modes(pi_interval, 8))
        blocks = generator_block(params, seq.lam)
        u = np.stack([seq.p, 1j * seq.omega * seq.p, seq.q + 0j], axis=1)
        lhs = 1j * seq.omega[:, None] * u - np.einsum("nij,nj->ni", blocks, u)
        rhs = np.array([0.0, 1.0 / params.rho, 0.0])
        terms = np.abs(seq.omega[:, None] * u) + np.einsum("nij,nj->ni", np.abs(blocks), np.abs(u))
        assert np.all(np.abs(lhs - rhs) <= 1e-13 * np.maximum(terms, 1.0))

    def test_requires_stable_regime(self, pi_interval):
        with pytest.raises(ValueError, match="requires c > 0"):
            nondiff_sequence(ModelParams.unit(c=-1.0), enumerate_modes(pi_interval, 2))

    def test_weighted_norm_carries_rho(self, pi_interval):
        params = ModelParams(rho=3.0, a=1.0, b=1.0, c=1.0, d=1.0, eta=1.0)
        seq = nondiff_sequence(params, enumerate_modes(pi_interval, 2))
        assert seq.norm_v_sq_weighted == pytest.approx(3.0 * seq.norm_v_sq, rel=1e-14)

    def test_norm_u_sq_accumulates_weights(self, unit_params, pi_interval):
        seq = nondiff_sequence(unit_params, enumerate_modes(pi_interval, 2))
        norm_p_sq = np.abs(seq.p) ** 2
        expected = seq.lam**2 * norm_p_sq + seq.omega**2 * norm_p_sq + seq.q**2
        assert seq.norm_u_sq == pytest.approx(expected, rel=1e-14)

    def test_eta_zero_rejected(self, pi_interval):
        with pytest.raises(ValueError):
            nondiff_sequence(ModelParams.unit(eta=0.0), enumerate_modes(pi_interval, 2))

    # eta**4 overflows for 1e100 and underflows to 0 for 1e-100, and d = 0
    # leaves a zero limit: none is a finite positive d^2/eta^4
    @pytest.mark.parametrize("overrides", [{"eta": 1e100}, {"eta": 1e-100}, {"d": 0.0}])
    def test_limit_outside_the_float_range_rejected(self, pi_interval, overrides):
        with pytest.raises(ValueError, match="d\\^2/eta\\^4 to be a finite positive float"):
            nondiff_sequence(ModelParams.unit(**overrides), enumerate_modes(pi_interval, 2))

    @pytest.mark.parametrize("branch", [1, -1])
    def test_terms_match_the_scalar_formula(self, branch):
        """Each entry is the term of its mode, in the rectangle's mode order:
        n, lambda, omega and q to the bit, p and |v|^2 to a few ulps."""
        params = ModelParams(rho=1.5, a=0.8, b=1.2, c=2.5, d=0.6, eta=-1.1)
        domain = Rectangle(2.0, 1.0)
        seq = nondiff_sequence(params, enumerate_modes(domain, 40), branch)
        assert seq.n.tolist() == list(range(1, 41))
        for i, lam in enumerate(enumerate_modes(domain, 40).tolist()):
            omega, q, p, norm_v_sq = scalar_term(params, lam, branch)
            assert (seq.lam[i], seq.omega[i], seq.q[i]) == (lam, omega, q)
            assert seq.p[i] == pytest.approx(p, rel=1e-15)
            assert seq.norm_v_sq[i] == pytest.approx(norm_v_sq, rel=1e-15)


class TestNondiffLimit:
    @pytest.mark.parametrize(
        "d, eta, target",
        [(1.0, 1.0, 1.0), (2.0, 1.0, 4.0), (1.0, 2.0, 0.0625)],
    )
    def test_limit_targets(self, pi_interval, d, eta, target):
        params = ModelParams.unit(d=d, eta=eta)
        seq = nondiff_sequence(params, enumerate_modes(pi_interval, 30))
        assert seq.target == target
        assert seq.gap_at_end <= 0.01
        assert seq.matching_norm == "l2"

    def test_rectangle_sequence_also_converges(self):
        params = ModelParams.unit()
        seq = nondiff_sequence(params, enumerate_modes(Interval(1.0), 30))
        assert seq.gap_at_end <= 0.01

    def test_n_max_validation(self, unit_params):
        with pytest.raises(ValueError, match="at least one mode"):
            nondiff_sequence(unit_params, np.empty(0))

    @pytest.mark.parametrize("length, n_max", [
        (math.pi * 1e-76, 30), (math.pi * 1e-50, 1000), (math.pi * 1e160, 10),
    ])
    def test_terms_out_of_the_float_range(self, unit_params, length, n_max):
        """lam^3 overflows at lam_1 = 1e152, and at lam_1000 = 1e106 although
        not at lam_1 = 1e100; at lam_1 = 1e-320, 1/(eta lam) does."""
        with pytest.raises(EigenvalueOutOfRange):
            nondiff_sequence(unit_params, enumerate_modes(Interval(length), n_max))

    def test_gap_column_ends_in_gap_at_end(self, unit_params, pi_interval):
        seq = nondiff_sequence(unit_params, enumerate_modes(pi_interval, 30))
        assert np.array_equal(seq.gap, np.abs(seq.norm_v_sq - seq.target) / seq.target)
        assert seq.gap_at_end == seq.gap[-1]

    def test_closed_form_gap_is_the_measured_gap(self):
        params = ModelParams(rho=1.5, a=0.8, b=1.2, c=2.5, d=0.6, eta=-1.1)
        seq = nondiff_sequence(params, enumerate_modes(Rectangle(2.0, 1.0), 200))
        assert closed_form_gap(params, seq.lam) == pytest.approx(seq.gap, rel=1e-12)

    @pytest.mark.parametrize("domain", [Interval(0.7), Interval(math.pi), Rectangle(2.0, 1.0), Rectangle(0.8, 3.1)])
    @pytest.mark.parametrize("tolerance", [0.3, 0.01, 1e-3])
    def test_gap_reach_is_the_first_mode_under_the_tolerance(self, domain, tolerance):
        params = ModelParams(rho=1.5, a=0.8, b=1.2, c=2.5, d=0.6, eta=-1.1)
        lam_star, n = gap_reach(params, domain, tolerance)
        assert closed_form_gap(params, lam_star) == pytest.approx(tolerance, rel=1e-12)
        lams = enumerate_modes(domain, n)
        gaps = closed_form_gap(params, lams)
        assert gaps[-1] <= tolerance
        assert np.all(gaps[:-1] > tolerance)

    def test_gap_reach_past_the_row_limit_names_lambda_only(self):
        params = ModelParams.unit(d=1e-6)
        lam_star, n = gap_reach(params, Rectangle(1.0, 1.0), 1e-9)
        assert n is None
        assert closed_form_gap(params, lam_star) == pytest.approx(1e-9, rel=1e-12)


class TestResonantGrid:
    def test_grid_contents(self, unit_params, pi_interval):
        grid = resonant_omega_grid(unit_params, enumerate_modes(pi_interval, 10), 3.0, 50.0)
        assert np.array_equal(grid, [4.0, 9.0, 16.0, 25.0, 36.0, 49.0])

    def test_dedupe_keeps_the_bits_of_np_unique(self, unit_params):
        # the unit square repeats eigenvalues (lam_jk = lam_kj)
        lams = enumerate_modes(Rectangle(math.pi, math.pi), 60)
        grid = resonant_omega_grid(unit_params, lams, 1.0, 100.0)
        omegas = lams[(1.0 <= lams) & (lams <= 100.0)]
        expected = np.unique(omegas)
        assert expected.size < omegas.size
        assert grid.tobytes() == expected.tobytes()
