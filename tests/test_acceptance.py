"""Acceptance gate: every criterion printed as one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Each test computes its quantities, prints the measured value against the
pinned tolerance, and asserts.
"""

import math
import time

import numpy as np

from gradiplate.backward import gronwall_check, lyapunov_series
from gradiplate.cli import main
from gradiplate.config import preset_coefficients
from gradiplate.errors import DegenerateCapacity
from gradiplate.instability import (
    ConvexityTrajectory,
    choose_weight_shift,
    convexity_residual_check,
    convexity_trajectory,
    instability_lower_bound,
)
from gradiplate.model import Direction, Interval, ModelParams, enumerate_modes
from gradiplate.nondiff import nondiff_sequence
from gradiplate.propagator import energy_balance_report, energy_of
from gradiplate.quasistatic import effective_capacity, quasi_decay_report
from gradiplate.resolvent import resonant_omega_grid, scan_imaginary_axis
from gradiplate.spectrum import mode_spectra
from oracles import bisect_real_root, generator_block, lapack_resolvent_solve, rk_mode_evolution
from states import evolve, initial
from test_functionals import identities

PI_INTERVAL = Interval(math.pi)


def report(num, name, ok, detail):
    print(f"[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_energy_identity():
    started = time.perf_counter()
    params = ModelParams.unit()
    lams = enumerate_modes(PI_INTERVAL, 64)
    x0 = preset_coefficients("first-mode-bend+thermal-pulse", lams)
    times = 1e-3 * np.arange(10001)
    trajectory = evolve(params, lams, x0, times, Direction.FORWARD)
    balance = energy_balance_report(trajectory, Direction.FORWARD)
    elapsed = time.perf_counter() - started
    ok = balance.max_abs_residual <= 1e-8 and elapsed <= 10.0
    report(
        1,
        "energy identity",
        ok,
        f"max residual {balance.max_abs_residual:.3e} <= 1e-8, runtime {elapsed:.2f}s <= 10s",
    )


def test_criterion_2_nondiff_sequence():
    started = time.perf_counter()
    frozen = {2: 1.625, 3: 8181.0 / 6561.0}
    details = []
    ok = True

    params = ModelParams.unit()
    seq = nondiff_sequence(params, enumerate_modes(PI_INTERVAL, 3))
    for n, expected in frozen.items():
        lam, omega, norm_v_sq = seq.lam[n - 1], seq.omega[n - 1], seq.norm_v_sq[n - 1]
        solved = lapack_resolvent_solve(params, lam, omega, (0.0, 1.0, 0.0))
        closed_gap = abs(norm_v_sq - expected)
        solve_gap = abs(abs(solved[1]) ** 2 - expected)
        ok &= closed_gap <= 1e-10 and solve_gap <= 1e-10
        details.append(f"n={n}: closed {closed_gap:.1e}, solve {solve_gap:.1e}")

    for d, eta, target in ((1.0, 1.0, 1.0), (2.0, 1.0, 4.0), (1.0, 2.0, 0.0625)):
        limit = nondiff_sequence(ModelParams.unit(d=d, eta=eta), enumerate_modes(PI_INTERVAL, 30))
        ok &= limit.target == target and limit.gap_at_end <= 0.01
        details.append(f"(d={d},eta={eta}): gap {limit.gap_at_end:.4f}")

    elapsed = time.perf_counter() - started
    ok &= elapsed <= 1.0
    report(2, "resonant sequence and limit", ok, "; ".join(details) + f"; runtime {elapsed:.2f}s <= 1s")


def test_criterion_3_nonvanishing_scan():
    started = time.perf_counter()
    params = ModelParams.unit()
    lams = enumerate_modes(PI_INTERVAL, 128)
    grid = resonant_omega_grid(params, lams, 10.0, 1e4)
    scan = scan_imaginary_axis(params, lams, grid)
    midpoint = scan.norms[scan.norms.size // 2]
    tail_ok = scan.tail_min >= 0.1 * midpoint

    classical = scan_imaginary_axis(ModelParams.unit(d=0.0), lams, grid)
    contrast_ok = classical.tail_min <= classical.norms[0] / 10.0

    elapsed = time.perf_counter() - started
    ok = tail_ok and contrast_ok and elapsed <= 30.0
    report(
        3,
        "non-vanishing resolvent tail",
        ok,
        f"tail_min {scan.tail_min:.3f} >= 0.1*midpoint {0.1 * midpoint:.3f}; "
        f"d=0 head/tail {classical.norms[0] / classical.tail_min:.1f}x >= 10x; "
        f"runtime {elapsed:.2f}s <= 30s",
    )


def test_criterion_4_stability_spectrum():
    started = time.perf_counter()
    params = ModelParams.unit()
    lams = np.geomspace(1.0, 1e8, 10000)
    target = -params.eta**2 / (2.0 * params.rho * params.d)

    roots, _, residuals = mode_spectra(params, lams)
    max_real = float(np.max(roots.real))
    max_residual = float(np.max(residuals))
    # a row holds at most one root above the real axis: its pair's upper member
    upper = roots[lams >= 1e4].imag > 0
    assert upper.any(axis=1).all()
    max_tail_gap = float(np.max(np.abs(roots[lams >= 1e4][upper].real - target)))
    elapsed = time.perf_counter() - started

    ok = (
        max_real < 0.0
        and max_residual <= 1e-10
        and max_tail_gap <= 1e-3
        and elapsed <= 5.0
    )
    report(
        4,
        "stability spectrum",
        ok,
        f"abscissa {max_real:.4f} < 0, residual {max_residual:.1e} <= 1e-10, "
        f"strip gap {max_tail_gap:.2e} <= 1e-3 for lam >= 1e4, runtime {elapsed:.2f}s <= 5s",
    )


def test_criterion_5_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        rho, a, b, c, d = rng.uniform(0.1, 10.0, size=5)
        eta = 0.0
        while abs(eta) < 1e-2:
            eta = rng.uniform(-5.0, 5.0)
        lam = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        params = ModelParams(rho, a, b, c, d, eta)
        x0 = rng.standard_normal(3)
        t = float(rng.uniform(0.05, 1.0))
        # one mode whose eigenvalue is lam up to rounding
        init = initial(
            Interval(math.pi / math.sqrt(lam)), 1, u=[x0[0]], v=[x0[1]], theta=[x0[2]]
        )
        got = evolve(params, *init, [0.0, t]).x[0, :, 1]
        ref = rk_mode_evolution(generator_block(params, init[0][0]), x0, t)
        err = np.linalg.norm(got - ref) / max(np.linalg.norm(ref), 1e-30)
        worst = max(worst, err)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed <= 10.0
    report(
        5,
        "exponential vs adaptive RK oracle",
        ok,
        f"worst relative error {worst:.2e} <= 1e-9 over 100 draws, runtime {elapsed:.2f}s <= 10s",
    )


def test_criterion_6_backward_identities():
    params = ModelParams.unit()
    init = initial(PI_INTERVAL, 1, u=[1.0], theta=[1.0])

    def residual(dt):
        times = dt * np.arange(int(round(1.0 / dt)) + 1)
        traj = evolve(params, *init, times, Direction.BACKWARD)
        return identities(params, traj, Direction.BACKWARD).max_rel_residual

    r2, r1 = residual(2e-3), residual(1e-3)
    order = math.log2(r2 / r1)

    zero_traj = evolve(
        params, *initial(PI_INTERVAL, 1), 1e-2 * np.arange(101), Direction.BACKWARD
    )
    zero_report = gronwall_check(lyapunov_series(zero_traj, 0.5))

    data_traj = evolve(params, *init, 1e-3 * np.arange(1001), Direction.BACKWARD)
    data_report = gronwall_check(lyapunov_series(data_traj, 0.5))

    ok = (
        order >= 1.9
        and zero_report.zero_data
        and zero_report.max_abs_l == 0.0
        and data_report.k_star is not None
        and np.isfinite(data_report.k_star)
    )
    report(
        6,
        "backward identities and Gronwall",
        ok,
        f"observed order {order:.3f} >= 1.9, zero data stays zero, "
        f"k* = {data_report.k_star:.3f} finite",
    )


def test_criterion_7_convexity_instability():
    params = ModelParams(1.0, 1.0, 1.0, -1.0, 1.0, 1.0)
    init = initial(PI_INTERVAL, 1, u=[1.0])
    e0 = energy_of(params, *init).total
    omega = -e0
    t0 = choose_weight_shift(params, *init, omega)

    times = 1e-3 * np.arange(18001)
    states = convexity_trajectory(params, *init, times, omega, t0)

    early = states.t <= 5.0
    head = ConvexityTrajectory(
        states.t[early], states.f[early], states.fdot[early], states.fddot[early],
        states.nu, states.omega_const, states.t0, states.phi,
    )
    convexity = convexity_residual_check(head, e0)
    bound = instability_lower_bound(states, e0, growth_window=(14.0, 18.0))
    root = bisect_real_root(lambda z: z**3 + 2.0 * z**2 - 2.0, 0.8, 0.9)
    rate_gap = abs(bound.growth_rate - root)

    ok = (
        e0 == -0.5
        and convexity.passed
        and bound.holds
        and rate_gap <= 1e-6
    )
    report(
        7,
        "convexity and instability",
        ok,
        f"E(0) = {e0}, convexity min {convexity.min_residual:.3e} >= -{convexity.tolerance:.1e}, "
        f"bound holds pointwise, growth rate gap {rate_gap:.2e} <= 1e-6",
    )


def test_criterion_8_quasistatic():
    params = ModelParams(1.0, 1.0, 1.0, -2.0, 1.0, 1.0)
    expected_rate = 2.0 * (math.pi**2 + math.pi**4)

    t_grid = 1e-4 * np.arange(201)
    decay = quasi_decay_report(params, enumerate_modes(Interval(1.0), 1), [1.0], t_grid)
    # theta_1(t)^2 = exp(-2 rate t), read at t = 0.01
    t_probe = decay.t[100]
    measured_rate = -math.log(decay.theta_l2_sq[100]) / (2.0 * t_probe)
    rate_gap = abs(measured_rate - expected_rate) / expected_rate

    try:
        effective_capacity(ModelParams(1.0, 1.0, 1.0, -2.0, 1.0, 2.0))
        rejected = False
    except DegenerateCapacity:
        rejected = True

    ok = (
        decay.a_eff == 0.5
        and rate_gap <= 1e-10
        and decay.fit_rel_residual <= 1e-6
        and rejected
    )
    report(
        8,
        "quasi-static reduction",
        ok,
        f"a_eff = {decay.a_eff}, theta_1 rate gap {rate_gap:.2e} <= 1e-10, "
        f"H^2 fit residual {decay.fit_rel_residual:.2e} <= 1e-6, degenerate capacity rejected",
    )


def test_criterion_9_determinism(tmp_path):
    config = "\n".join(
        [
            "rho = 1", "a = 1", "b = 1", "c = 1", "d = 1", "eta = 1",
            "domain = interval", "length = 3.141592653589793", "mode_count = 64",
            "t_end = 10.0", "dt = 0.001",
            "initial = first-mode-bend+thermal-pulse",
        ]
    )
    cfg_path = tmp_path / "acceptance.cfg"
    cfg_path.write_text(config + "\n", encoding="utf-8")

    outputs = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        code = main(["simulate", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        outputs.append((out / "simulate.csv").read_bytes())

    qs_config = "\n".join(
        [
            "rho = 1", "a = 1", "b = 1", "c = -2", "d = 1", "eta = 1",
            "t_end = 0.02", "dt = 0.0001", "initial_theta = 1.0,0.25",
        ]
    )
    qs_path = tmp_path / "qs.cfg"
    qs_path.write_text(qs_config + "\n", encoding="utf-8")
    qs_outputs = []
    for run in ("q1", "q2"):
        out = tmp_path / run
        code = main(["quasistatic", "--config", str(qs_path), "--out", str(out)])
        assert code == 0
        qs_outputs.append((out / "quasistatic.csv").read_bytes())

    ok = outputs[0] == outputs[1] and qs_outputs[0] == qs_outputs[1]
    report(
        9,
        "byte-identical CSV determinism",
        ok,
        f"simulate {len(outputs[0])} bytes identical, quasistatic {len(qs_outputs[0])} bytes identical",
    )
