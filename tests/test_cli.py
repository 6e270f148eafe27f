import argparse
import ast
import gc
import importlib
import os
import pkgutil
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gradiplate
import gradiplate.backward as backward
import gradiplate.cli as cli
import gradiplate.config as config
import gradiplate.csvout as csvout
import gradiplate.instability as instability
import gradiplate.model as model
import gradiplate.nondiff as nondiff
import gradiplate.resolvent as resolvent
from gradiplate.backward import lyapunov_series
from gradiplate.cli import main
from gradiplate.config import load_config
from gradiplate.manifest import Check, RunOutput, _fmt
from gradiplate.spectrum import characteristic_coefficients
from scalar_cubic import cubic_roots
from states import evolve

PI = "3.141592653589793"


def write_config(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def base_model(c="1"):
    return [
        "rho = 1", "a = 1", "b = 1", f"c = {c}", "d = 1", "eta = 1",
    ]


def simulate_config(tmp_path, **overrides):
    lines = base_model() + [
        f"domain = interval", f"length = {PI}", "mode_count = 4",
        "t_end = 1.0", "dt = 0.001", "initial = first-mode-bend",
    ]
    for key, value in overrides.items():
        lines = [l for l in lines if not l.startswith(f"{key} ")]
        lines.append(f"{key} = {value}")
    return write_config(tmp_path, "run.cfg", lines)


def read_manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.txt"), encoding="utf-8") as fh:
        entries = {}
        for line in fh:
            key, _, value = line.strip().partition(" = ")
            entries[key] = value
        return entries


class TestSimulate:
    def test_zero_preset_all_zero_csv(self, tmp_path):
        cfg = simulate_config(tmp_path, initial="zero", dt="0.1")
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        rows = (tmp_path / "out" / "simulate.csv").read_text().splitlines()
        assert rows[0] == "t,E,kinetic,bending,thermal,D,energy_balance_residual"
        for row in rows[2:]:
            fields = row.split(",")
            assert all(float(v) == 0.0 for v in fields[1:])

    def test_stable_run_passes_checks(self, tmp_path):
        cfg = simulate_config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        manifest = read_manifest(out)
        assert manifest["status"] == "ok"
        assert manifest["check.energy_identity.pass"] == "true"
        assert manifest["check.energy_monotone.pass"] == "true"
        assert manifest["config.mode_count"] == "4"
        assert manifest["tool"].startswith("gradiplate")

    def test_csv_floats_have_17_significant_digits(self, tmp_path):
        cfg = simulate_config(tmp_path, dt="0.01")
        out = str(tmp_path / "out")
        main(["simulate", "--config", cfg, "--out", out])
        row = (tmp_path / "out" / "simulate.csv").read_text().splitlines()[1]
        first = row.split(",")[1]
        mantissa = first.split("e")[0]
        # one leading digit plus 16 decimals = 17 significant digits,
        # enough to round-trip float64 exactly
        assert len(mantissa.split(".")[1]) == 16
        assert float(first) == float(f"{float(first):.16e}")

    def test_determinism_byte_identical(self, tmp_path):
        cfg = simulate_config(tmp_path)
        out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
        assert main(["simulate", "--config", cfg, "--out", out1]) == 0
        assert main(["simulate", "--config", cfg, "--out", out2]) == 0
        b1 = (tmp_path / "o1" / "simulate.csv").read_bytes()
        b2 = (tmp_path / "o2" / "simulate.csv").read_bytes()
        assert b1 == b2

    def test_regime_mismatch_is_config_error(self, tmp_path, capsys):
        cfg = simulate_config(tmp_path, c="-1", regime="stable")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_key_is_config_error(self, tmp_path):
        cfg = simulate_config(tmp_path, wavelength="2")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_unstable_overflow_exits_4_with_manifest(self, tmp_path):
        cfg = simulate_config(tmp_path, c="-1", t_end="2000", dt="100")
        out = str(tmp_path / "o")
        assert main(["simulate", "--config", cfg, "--out", out]) == 4
        manifest = read_manifest(out)
        assert manifest["status"] == "nonfinite"
        assert manifest["exit_code"] == "4"

    def test_coarse_unstable_passes_energy_identity(self, tmp_path):
        cfg = simulate_config(tmp_path, c="-1", t_end="10", dt="0.5")
        out = str(tmp_path / "o")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        manifest = read_manifest(out)
        assert manifest["check.energy_identity.pass"] == "true"
        assert float(manifest["check.energy_identity.value"]) <= 1e-12

    def test_failing_check_exits_3_with_manifest(self, tmp_path, monkeypatch):
        def failing(cfg):
            return RunOutput(
                columns={"t": np.array([0.0])},
                checks=[Check("energy_identity", False, 1.0, 1e-8)],
                results={},
            )

        monkeypatch.setitem(cli.HANDLERS, "simulate", failing)
        out = str(tmp_path / "o")
        assert main(["simulate", "--config", simulate_config(tmp_path), "--out", out]) == 3
        manifest = read_manifest(out)
        assert manifest["status"] == "check_failure"
        assert manifest["exit_code"] == "3"
        assert manifest["check.energy_identity.pass"] == "false"
        # CSV still written for inspection
        assert (tmp_path / "o" / "simulate.csv").exists()


class TestRegressionConfigs:
    """Valid configs that once exited 3; each must pass every check."""

    README_SIMULATE = base_model() + [
        "domain = interval", f"length = {PI}", "mode_count = 64", "t_end = 10",
        "initial = first-mode-bend+thermal-pulse",
    ]

    def run(self, tmp_path, subcommand, lines):
        out = str(tmp_path / "o")
        code = main([subcommand, "--config", write_config(tmp_path, "run.cfg", lines), "--out", out])
        return code, read_manifest(out)

    def test_readme_simulate_at_dt_0_01(self, tmp_path):
        code, manifest = self.run(tmp_path, "simulate", self.README_SIMULATE + ["dt = 0.01"])
        assert code == 0
        assert float(manifest["check.energy_identity.value"]) <= 1e-12

    def test_readme_simulate_at_dt_0_1(self, tmp_path):
        code, manifest = self.run(tmp_path, "simulate", self.README_SIMULATE + ["dt = 0.1"])
        assert code == 0
        assert float(manifest["check.energy_identity.value"]) <= 1e-12

    def test_wide_plate_simulate(self, tmp_path):
        lines = base_model() + [
            "domain = rectangle", f"length1 = {PI}", "length2 = 2", "mode_count = 4096",
            "t_end = 0.01", "dt = 0.001", "initial = first-mode-bend+thermal-pulse",
        ]
        code, manifest = self.run(tmp_path, "simulate", lines)
        assert code == 0
        assert float(manifest["check.energy_identity.value"]) <= 1e-12

    # c < 0 with eta = d = 0: the plate mode grows like e^{lam t} while
    # E = kinetic + bending stays 1/2, a difference of huge numbers
    DECOUPLED_UNSTABLE = [
        "rho = 1", "a = 1", "b = 1", "c = -1", "d = 0", "eta = 0",
        "domain = rectangle", "length1 = 1", "length2 = 1", "mode_count = 1",
        "dt = 0.1", "initial_u = 0", "initial_v = 1", "initial_theta = 0",
    ]

    def test_indefinite_energy_is_judged_against_the_energy_norm(self, tmp_path):
        code, manifest = self.run(tmp_path, "simulate", self.DECOUPLED_UNSTABLE + ["t_end = 17.9"])
        assert code == 0
        assert float(manifest["check.energy_identity.value"]) <= 1e-12

    # the cubic's three roots coincide at -1 (no root is separated)
    TRIPLE_ROOT = [
        "rho = 1", "a = 1", "b = 3", "c = 0.3333333333333333", "d = 0", "eta = 1.632993161855452",
        "domain = interval", f"length = {PI}", "mode_count = 1", "initial_u = 1",
        "initial_v = -0.5", "initial_theta = 0.25", "t_end = 3", "dt = 0.01",
    ]
    # the double root of test_propagator.TestDoubleRoot
    DOUBLE_ROOT = [
        "rho = 1", "a = 1", "b = 5.590169943749474", "c = 1", "d = 0", "eta = 3",
        "domain = interval", f"length = {PI}", "mode_count = 1", "initial_u = 1",
        "initial_v = -0.5", "initial_theta = 0.25", "t_end = 3", "dt = 0.01",
    ]

    @pytest.mark.parametrize("subcommand, check", [
        ("simulate", "energy_identity"), ("backward", "energy_identity_reversed"),
    ])
    def test_triple_root(self, tmp_path, subcommand, check):
        code, manifest = self.run(tmp_path, subcommand, self.TRIPLE_ROOT)
        assert code == 0
        assert float(manifest[f"check.{check}.value"]) <= 1e-12

    def test_spectrum_on_a_long_interval(self, tmp_path):
        # lam = (pi / 1e60)^2: the cubic's constant term kappa mu underflows
        lines = base_model() + [
            "domain = interval", "length = 1e60", "mode_count = 2",
            "lambda_max = 100", "lambda_points = 10",
        ]
        code, manifest = self.run(tmp_path, "spectrum", lines)
        assert code == 0
        assert float(manifest["result.abscissa_modes"]) < 0.0

    def test_backward_at_a_roundoff_level_dt(self, tmp_path):
        # (2 rate)^2 dt^2 once overflowed in Python's float power (exit 1)
        lines = base_model() + [
            "domain = interval", "length = 1e-60", "mode_count = 2", "t_end = 2e-300",
            "dt = 1e-300", "initial = first-mode-bend",
        ]
        code, manifest = self.run(tmp_path, "backward", lines)
        assert code in (0, 3, 4)
        assert manifest["status"] in ("ok", "check_failure", "nonfinite")

    def test_energy_past_the_float_range_exits_4(self, tmp_path):
        code, manifest = self.run(tmp_path, "simulate", self.DECOUPLED_UNSTABLE + ["t_end = 18.1"])
        assert code == 4
        assert manifest["status"] == "nonfinite"

    def test_growth_from_a_tiny_energy(self, tmp_path):
        lines = [
            "rho = 1", "a = 1", "b = 0.2353156980440316", "c = -0.2353156980440316",
            "d = 0", "eta = 6.103515625e-05", "domain = rectangle",
            "length1 = 1.475681121131099", "length2 = 0.8695679651124587",
            "mode_count = 1", "dt = 0.06537774151018443", "t_end = 45.96055228165965",
            "initial_u = 0", "initial_v = 1.175494351e-38", "initial_theta = 0",
        ]
        code, manifest = self.run(tmp_path, "simulate", lines)
        assert code == 0
        assert float(manifest["check.energy_identity.value"]) <= 1e-12

    def test_quasistatic_past_the_underflow_of_the_envelope(self, tmp_path):
        # rate1 is about 107, so exp(-2 rate1 t) underflows from t of about 3.5
        lines = ["rho = 1", "a = 2", "b = 1", "c = -1", "d = 1", "eta = 1",
                 "initial_theta = 1,0.5,0.25", "t_end = 10", "dt = 1e-3"]
        code, manifest = self.run(tmp_path, "quasistatic", lines)
        assert code == 0
        assert manifest["check.envelope_holds.value"] != "nan"

    def test_energy_sum_past_the_float_range_exits_4(self, tmp_path):
        # the finiteness test itself overflowed, outside the errstate guard
        lines = [
            "rho = 1.333521432163324", "a = 1.0", "b = 1.0", "c = -10.0", "d = 0.0",
            "eta = 0.0", "mode_count = 5", "dt = 0.001", "t_end = 1.313",
            "domain = rectangle", "length1 = 1.0", "length2 = 1.0", "initial_u = 0.0",
            "initial_v = 0.0,0.0,0.0,0.0,2.0", "initial_theta = 0.0",
        ]
        code, manifest = self.run(tmp_path, "simulate", lines)
        assert code == 4
        assert manifest["status"] == "nonfinite"

    TWO_SAMPLES = base_model() + [
        "domain = interval", f"length = {PI}", "mode_count = 2", "t_end = 0.1", "dt = 0.1",
        "initial = first-mode-bend+thermal-pulse",
    ]

    def test_simulate_on_a_two_sample_grid(self, tmp_path):
        code, manifest = self.run(tmp_path, "simulate", self.TWO_SAMPLES)
        assert code == 0
        assert float(manifest["check.energy_identity.value"]) <= 1e-12
        rows = (tmp_path / "o" / "simulate.csv").read_text().splitlines()
        assert len(rows) == 3

    def test_nondiff_whose_terms_overflow_is_a_config_error(self, tmp_path, capsys):
        # lam_1000 = 1e106 passes the range rule (its square is 1e212), but
        # the sequence cubes it, which overflows
        lines = base_model() + [
            "domain = interval", "length = 3.141592653589793e-50", "mode_count = 1", "n_max = 1000",
        ]
        out = tmp_path / "o"
        cfg = write_config(tmp_path, "run.cfg", lines)
        assert main(["nondiff", "--config", cfg, "--out", str(out)]) == 2
        assert "lam^2, lam^3 and their products" in capsys.readouterr().err
        assert not out.exists()

    def test_nondiff_modes_whose_squares_overflow_are_refused_by_the_parser(self, tmp_path, capsys):
        # lam_1 = 1e152 passed the range rule of mode_count = 1, but the
        # sequence squares lam_1 .. lam_30, which overflows from lam_12 on:
        # it exited 3 after numpy's overflow warnings; the rule now judges
        # the n_max modes that the sequence runs over
        lines = base_model() + [
            "domain = interval", "length = 3.141592653589793e-76", "mode_count = 1", "n_max = 30",
        ]
        out = tmp_path / "o"
        cfg = write_config(tmp_path, "run.cfg", lines)
        assert main(["nondiff", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: length, n_max: lam_1^2 or lam_N^2 of "
            "Interval(length=3.141592653589793e-76) leaves the normal float range\n"
        )
        assert not out.exists()

    def test_backward_on_a_two_sample_grid_is_a_config_error(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        cfg = write_config(tmp_path, "run.cfg", self.TWO_SAMPLES)
        assert main(["backward", "--config", cfg, "--out", out]) == 2
        assert "at least 3 time samples" in capsys.readouterr().err

    # the cold-start instability model on grids of 2, 3 and 4 samples: the
    # convexity functional once wanted 3 samples, and the last quarter of
    # the grid held fewer than the 2 samples the growth fit needs
    SHORT_INSTABILITY = base_model(c="-1") + [
        "domain = interval", f"length = {PI}", "mode_count = 1", "dt = 0.1", "initial_u = 1",
    ]

    # D grows from 0 when only displacement carries data, so max |dL/dt|
    # is no scale for the centered-difference error
    @pytest.mark.parametrize("dt", ["0.01", "0.001", "0.0001"])
    def test_backward_on_a_short_horizon_from_displacement_alone(self, tmp_path, dt):
        lines = base_model() + [
            "domain = interval", f"length = {PI}", "mode_count = 2", "initial_u = 1",
            "t_end = 0.1", f"dt = {dt}",
        ]
        code, manifest = self.run(tmp_path, "backward", lines)
        assert code == 0
        assert manifest["check.identity_residual.pass"] == "true"

    def test_instability_on_a_two_sample_grid(self, tmp_path):
        code, _ = self.run(tmp_path, "instability", self.SHORT_INSTABILITY + ["t_end = 0.1"])
        assert code == 0

    def test_instability_on_a_three_sample_grid(self, tmp_path):
        code, _ = self.run(tmp_path, "instability", self.SHORT_INSTABILITY + ["t_end = 0.2"])
        assert code == 0

    def test_instability_on_a_four_sample_grid(self, tmp_path):
        code, _ = self.run(tmp_path, "instability", self.SHORT_INSTABILITY + ["t_end = 0.3"])
        assert code == 0

    def test_instability_whose_bound_nearly_equals_f(self, tmp_path):
        # t0 = 8,880 makes the bound's C and B about 4.5e7 against F(0) =
        # 2,524: C e^{mt} - B rounded to a margin of -1.0e-8 against a
        # gate of -2.5e-9
        lines = base_model(c="-1e-6") + [
            "domain = interval", f"length = {PI}", "mode_count = 64", "t_end = 2",
            "dt = 2e-4", "initial_u = " + ",".join(repr(1.0 / n**2) for n in range(1, 65)),
        ]
        code, manifest = self.run(tmp_path, "instability", lines)
        assert code == 0
        assert manifest["check.exponential_lower_bound.pass"] == "true"
        # the manifest reports the gate as applied: min(F - bound) against
        # -1e-12 max|bound|
        bound = np.loadtxt(tmp_path / "o" / "instability.csv", delimiter=",", skiprows=1)[:, 5]
        tolerance = float(manifest["check.exponential_lower_bound.tolerance"])
        assert tolerance == -1e-12 * np.max(np.abs(bound))
        assert float(manifest["check.exponential_lower_bound.value"]) >= tolerance

    def test_nondiff_without_gradient_conduction_is_a_config_error(self, tmp_path, capsys):
        # d = 0 makes the limit d^2/eta^4 zero, and the gap to it divided by zero
        lines = [l for l in base_model() if not l.startswith("d ")] + [
            "d = 0", "domain = interval", f"length = {PI}", "mode_count = 4", "n_max = 10",
        ]
        out = str(tmp_path / "o")
        assert main(["nondiff", "--config", write_config(tmp_path, "run.cfg", lines), "--out", out]) == 2
        assert "nondiff requires d > 0" in capsys.readouterr().err

    # eta**4 overflows for 1e100 and underflows to 0 for 1e-100: both once
    # crashed the run with a traceback and no manifest
    @pytest.mark.parametrize("eta", ["1e100", "1e-100"])
    def test_nondiff_with_an_extreme_coupling_is_a_config_error(self, tmp_path, capsys, eta):
        lines = base_model() + ["domain = interval", f"length = {PI}", "mode_count = 4", "n_max = 10"]
        out = tmp_path / "o"
        cfg = write_config(tmp_path, "run.cfg", lines)
        assert main(["nondiff", "--config", cfg, "--out", str(out), "--params", f"eta={eta}"]) == 2
        assert "d^2/eta^4 to be a finite positive float" in capsys.readouterr().err
        assert not out.exists()

    # the CHANGES.md amplitude_system_residual config: lambda up to 3.1e6,
    # where the rounding of omega_n left 2.8e-8 in the first amplitude row
    SHORT_INTERVAL_NONDIFF = [
        "rho = 5.621663183966992", "a = 4.434532059793753", "b = 0.3463945270226868",
        "c = 1.1476015333699319", "d = 0.33725058003640007", "eta = 0.18661809685476657",
        "domain = interval", "length = 0.3209124442613934", "mode_count = 9", "n_max = 181",
    ]
    # the CHANGES.md limit_gap config: a gap of 0.577 at n_max = 80
    SLOW_GAP_NONDIFF = [
        "rho = 0.2501765351593549", "a = 7.4610265612829565", "b = 0.18842040246272004",
        "c = 0.7589503424477275", "d = 0.036873049084739984", "eta = -0.4510987167498154",
        "domain = rectangle", "length1 = 0.8114113350270618", "length2 = 3.075990162996799",
        "mode_count = 2",
    ]

    # |p| about 1.6e-172, so |p|^2 underflows to 0, while the target
    # |v|^2 -> d^2/eta^4 is 3.0e-184, a normal float
    UNDERFLOWING_P_NONDIFF = [
        "rho = 0.0017854951235357168", "a = 3.9850736175008326e17", "b = 0.09205902355761154",
        "c = 8.771451518750602e19", "d = 6.442783583021093e-23", "eta = 6.077684111306135e34",
        "domain = interval", "length = 1.394566800305619e-34", "mode_count = 1", "n_max = 10",
    ]

    def test_nondiff_where_the_amplitude_square_underflows(self, tmp_path):
        code, manifest = self.run(tmp_path, "nondiff", self.UNDERFLOWING_P_NONDIFF)
        assert code == 0, manifest.get("error")
        assert float(manifest["check.limit_gap.value"]) <= 1e-15
        assert float(manifest["check.norm_v_sq_expansion.value"]) <= 1e-15

    def test_nondiff_at_exact_resonance_on_a_short_interval(self, tmp_path):
        code, manifest = self.run(tmp_path, "nondiff", self.SHORT_INTERVAL_NONDIFF)
        assert code == 0
        assert float(manifest["check.amplitude_system_residual.value"]) <= 1e-15

    def test_nondiff_with_an_unreachable_gap_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = write_config(tmp_path, "run.cfg", self.SLOW_GAP_NONDIFF + ["n_max = 80"])
        assert main(["nondiff", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: nondiff: the limit gap at n_max = 80 is 0.577")
        assert err.rstrip().endswith("the smallest n_max that reaches it is 772")
        assert not out.exists()
        # the n_max it names passes, and the one before it is refused
        assert main(["nondiff", "--config", cfg, "--out", str(out), "--params", "n_max=771"]) == 2
        code, manifest = self.run(tmp_path, "nondiff", self.SLOW_GAP_NONDIFF + ["n_max = 772"])
        assert code == 0
        assert float(manifest["check.limit_gap.value"]) <= 0.01

    def test_resonant_scan_with_no_resonance_in_range_is_a_config_error(self, tmp_path, capsys):
        # lam_n = n^2: no sqrt(c/rho) lam_n lies in [1.5, 3.5]
        out = tmp_path / "o"
        cfg = write_config(tmp_path, "run.cfg", base_model() + [
            "domain = interval", f"length = {PI}", "mode_count = 4",
            "omega_min = 1.5", "omega_max = 3.5", "omega_points = 10", "omega_grid = resonant",
        ])
        assert main(["resolvent-scan", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: no resonant frequencies fall inside [omega_min, omega_max]\n"
        )
        assert not out.exists()

    def test_spectrum_of_the_decoupled_plate(self, tmp_path):
        # eta = 0: the plate roots +-i sqrt(c/rho) lam have real part 0 up to
        # rounding, and no exponential stability is claimed without coupling
        lines = [l for l in base_model() if not l.startswith("eta ")] + [
            "eta = 0", "domain = interval", f"length = {PI}", "mode_count = 4",
            "lambda_max = 100", "lambda_points = 10",
        ]
        code, manifest = self.run(tmp_path, "spectrum", lines)
        assert code == 0
        assert "check.abscissa_negative.pass" not in manifest
        assert "result.abscissa_modes" in manifest
        assert "result.abscissa_lambda_scan" in manifest

    QUASISTATIC = ["rho = 1", "a = 1", "b = 1", "c = -2", "d = 1", "t_end = 0.02", "dt = 1e-4"]

    def test_quasistatic_without_coupling(self, tmp_path):
        # eta = 0: u and its seminorm vanish, so there is no decay to fit
        code, manifest = self.run(tmp_path, "quasistatic", self.QUASISTATIC + ["eta = 0", "initial_theta = 1"])
        assert code == 0
        assert "check.decay_rate_fit.pass" not in manifest

    def test_quasistatic_whose_seminorm_underflows_after_one_step(self, tmp_path):
        # rate1 is about 2e6: h2 is normal at t = 0 and dt only
        lines = ["rho = 1", "a = 1", "b = 1", "c = -2", "d = 10000", "eta = 1",
                 "t_end = 0.001", "dt = 1e-4", "initial_theta = 1"]
        code, manifest = self.run(tmp_path, "quasistatic", lines)
        assert code == 0
        assert float(manifest["check.decay_rate_fit.value"]) <= 1e-6

    def test_quasistatic_before_the_faster_modes_die_out(self, tmp_path):
        # three modes over a horizon of about 4.5 / rate1: modes 2 and 3 hold
        # 4e-7 of h2 where the late window starts and 5e-13 at the end, above
        # rounding, so no sample is the slowest mode's tail and none is fitted
        lines = [
            "rho = 1.224756853358419", "a = 0.34628957392427245", "b = 0.12962758538509214",
            "c = -0.6364578084049854", "d = 0.0", "eta = 0.27841562126947395",
            "length = 0.43498045443316646", "dt = 0.0001581489609547596",
            "t_end = 0.15087410875084067", "initial_theta = 1.2,-0.7,0.4",
        ]
        code, manifest = self.run(tmp_path, "quasistatic", lines)
        assert code == 0
        assert "check.decay_rate_fit.pass" not in manifest

    def test_quasistatic_whose_tail_is_one_sample_before_underflow(self, tmp_path):
        # rate1 is about 1.25e4: h2 is normal at t = 0, where every mode
        # counts, and at dt only
        lines = [
            "rho = 2.574713534884092", "a = 4.075327506134423", "b = 0.33826429962689186",
            "c = -4.3926527139302225", "d = 5.393776808867527", "eta = -2.643806465947966",
            "length = 0.3607054195438142", "dt = 0.02068467619812954",
            "t_end = 29.66182566811776", "initial_theta = 1,0.5,0.25",
        ]
        code, manifest = self.run(tmp_path, "quasistatic", lines)
        assert code == 0
        assert "check.decay_rate_fit.pass" not in manifest

    def test_quasistatic_on_a_nine_sample_grid_is_a_config_error(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        lines = ["rho = 1", "a = 1", "b = 1", "c = -2", "d = 1", "eta = 1",
                 "t_end = 8e-4", "dt = 1e-4", "initial_theta = 1"]
        cfg = write_config(tmp_path, "run.cfg", lines)
        assert main(["quasistatic", "--config", cfg, "--out", out]) == 2
        assert "at least 10 time samples" in capsys.readouterr().err

    def test_quasistatic_with_the_first_mode_at_rest(self, tmp_path):
        # the tail decays at twice the second mode's rate, not the first's
        code, manifest = self.run(tmp_path, "quasistatic", self.QUASISTATIC + ["eta = 1", "initial_theta = 0,1"])
        assert code == 0
        assert float(manifest["check.decay_rate_fit.value"]) <= 1e-6


class TestOtherSubcommands:
    def test_resolvent_scan(self, tmp_path):
        cfg = write_config(
            tmp_path, "scan.cfg",
            base_model() + [
                f"domain = interval", f"length = {PI}", "mode_count = 16",
                "omega_min = 5", "omega_max = 200", "omega_points = 40",
                "omega_grid = resonant",
            ],
        )
        out = str(tmp_path / "o")
        assert main(["resolvent-scan", "--config", cfg, "--out", out]) == 0
        manifest = read_manifest(out)
        assert float(manifest["result.tail_min"]) > 0.0
        assert float(manifest["result.sup_norm"]) >= float(manifest["result.tail_min"])
        rows = (tmp_path / "o" / "resolvent_scan.csv").read_text().splitlines()
        assert rows[0] == "omega,resolvent_norm"

    def test_scan_counts_the_frequencies_past_the_last_resonance(self, tmp_path):
        """Past omega_resolved = sqrt(c/rho) lam_N the truncated scan misses
        the mode that sets the sup; the manifest counts those grid points."""
        cfg = write_config(
            tmp_path, "scan.cfg",
            base_model(c="4") + [
                "domain = interval", f"length = {PI}", "mode_count = 8",
                "omega_min = 1", "omega_max = 1000", "omega_points = 50",
            ],
        )
        out = str(tmp_path / "o")
        assert main(["resolvent-scan", "--config", cfg, "--out", out]) == 0
        manifest = read_manifest(out)
        assert float(manifest["result.omega_resolved"]) == 2.0 * 64.0
        rows = (tmp_path / "o" / "resolvent_scan.csv").read_text().splitlines()[1:]
        past = sum(float(row.split(",")[0]) > 128.0 for row in rows)
        assert int(manifest["size.omegas_unresolved"]) == past > 0

    def test_wide_scan_sends_jacobi_budget_sized_batches(self, tmp_path, monkeypatch):
        """The bench's wide-plate scan keeps more than BLOCK_BUDGET blocks in
        its first passes: they go through Jacobi BLOCK_BUDGET at a time, and
        the manifest records the batch rule's counts."""
        received = []
        gram_top = resolvent._gram_top

        def counting(d0, *rest):
            received.append(d0.size)
            return gram_top(d0, *rest)

        monkeypatch.setattr(resolvent, "_gram_top", counting)
        cfg = write_config(
            tmp_path, "scan.cfg",
            base_model() + [
                "domain = rectangle", f"length1 = {PI}", "length2 = 2", "mode_count = 2048",
                "omega_min = 0.1", "omega_max = 1e4", "omega_points = 200", "omega_grid = log",
            ],
        )
        out = str(tmp_path / "o")
        assert main(["resolvent-scan", "--config", cfg, "--out", out]) == 0
        manifest = read_manifest(out)
        sizes = {key: int(manifest[f"size.{key}"]) for key in ("modes", "omegas", "kept_blocks", "jacobi_calls")}
        assert sizes["modes"] == 2048 and sizes["omegas"] == 200
        assert sizes["kept_blocks"] == sum(received) > resolvent.BLOCK_BUDGET
        assert sizes["jacobi_calls"] == len(received) == -(-sizes["kept_blocks"] // resolvent.BLOCK_BUDGET)
        assert max(received) <= resolvent.BLOCK_BUDGET

    def test_resonant_scan_of_decoupled_plate_exits_3_with_manifest(self, tmp_path, capsys):
        """With eta = 0 the undamped plate has i*omega = +-i*sqrt(c/rho)*lam
        on its spectrum, and the resonant grid lands on it exactly."""
        model_lines = [l for l in base_model() if not l.startswith("eta ")] + ["eta = 0"]
        cfg = write_config(
            tmp_path, "scan.cfg",
            model_lines + [
                "domain = interval", f"length = {PI}", "mode_count = 4",
                "omega_min = 0.5", "omega_max = 20", "omega_points = 10",
                "omega_grid = resonant",
            ],
        )
        out = str(tmp_path / "o")
        assert main(["resolvent-scan", "--config", cfg, "--out", out]) == 3
        manifest = read_manifest(out)
        assert manifest["status"] == "check_failure"
        assert manifest["exit_code"] == "3"
        assert manifest["error"] == "singular resolvent block at omega=1.0, lam=1.0"
        assert "check failure" in capsys.readouterr().err

    def test_nondiff(self, tmp_path):
        cfg = write_config(
            tmp_path, "nd.cfg",
            base_model() + [
                f"domain = interval", f"length = {PI}", "mode_count = 30",
                "n_max = 30",
            ],
        )
        out = str(tmp_path / "o")
        assert main(["nondiff", "--config", cfg, "--out", out]) == 0
        manifest = read_manifest(out)
        assert manifest["check.limit_gap.pass"] == "true"
        assert manifest["check.norm_v_sq_expansion.pass"] == "true"
        assert float(manifest["result.gap_at_n_max"]) <= 0.01
        last = (tmp_path / "o" / "nondiff.csv").read_text().splitlines()[-1]
        assert float(last.split(",")[-1]) <= 0.01

    def test_spectrum(self, tmp_path):
        cfg = write_config(
            tmp_path, "sp.cfg",
            base_model() + [
                f"domain = interval", f"length = {PI}", "mode_count = 16",
                "lambda_max = 1e6", "lambda_points = 50",
            ],
        )
        out = str(tmp_path / "o")
        assert main(["spectrum", "--config", cfg, "--out", out]) == 0
        manifest = read_manifest(out)
        assert manifest["check.abscissa_negative.pass"] == "true"
        assert float(manifest["result.abscissa_modes"]) < 0.0

    def test_backward(self, tmp_path):
        cfg = write_config(
            tmp_path, "bw.cfg",
            base_model() + [
                f"domain = interval", f"length = {PI}", "mode_count = 2",
                "t_end = 1.0", "dt = 0.001", "initial_u = 1.0",
                "initial_theta = 1.0", "epsilon = 0.5",
            ],
        )
        out = str(tmp_path / "o")
        assert main(["backward", "--config", cfg, "--out", out]) == 0
        manifest = read_manifest(out)
        assert manifest["check.identity_residual.pass"] == "true"
        assert "result.k_star" in manifest

    def test_instability(self, tmp_path):
        cfg = write_config(
            tmp_path, "inst.cfg",
            base_model(c="-1") + [
                f"domain = interval", f"length = {PI}", "mode_count = 1",
                "t_end = 6.0", "dt = 0.001", "initial_u = 1.0",
            ],
        )
        out = str(tmp_path / "o")
        assert main(["instability", "--config", cfg, "--out", out]) == 0
        manifest = read_manifest(out)
        assert manifest["check.convexity_inequality.pass"] == "true"
        assert manifest["check.exponential_lower_bound.pass"] == "true"
        assert manifest["note.weight_convention"] == "omega*(t+t0)^2"
        assert float(manifest["result.e0"]) == -0.5

    def test_quasistatic(self, tmp_path):
        cfg = write_config(
            tmp_path, "qs.cfg",
            ["rho = 1", "a = 1", "b = 1", "c = -2", "d = 1", "eta = 1",
             "t_end = 0.02", "dt = 0.0001", "initial_theta = 1.0"],
        )
        out = str(tmp_path / "o")
        assert main(["quasistatic", "--config", cfg, "--out", out]) == 0
        manifest = read_manifest(out)
        assert float(manifest["result.a_eff"]) == 0.5
        assert manifest["check.decay_rate_fit.pass"] == "true"

    @pytest.mark.parametrize("subcommand, lines", [
        ("instability", base_model(c="-1") + [
            "domain = interval", f"length = {PI}", "mode_count = 1", "t_end = 6.0",
            "dt = 0.001", "initial_u = 1.0",
        ]),
        ("quasistatic", [
            "rho = 1", "a = 1", "b = 1", "c = -2", "d = 1", "eta = 1",
            "t_end = 0.02", "dt = 0.0001", "initial_theta = 1.0",
        ]),
    ])
    def test_line_fits_call_no_lapack(self, tmp_path, monkeypatch, subcommand, lines):
        """The log-linear fits are closed forms: the first LAPACK call of a
        process costs it more than 1 MB of memory."""
        def refused(*args, **kwargs):
            raise AssertionError("a LAPACK least-squares fit ran")

        monkeypatch.setattr(np, "polyfit", refused)
        monkeypatch.setattr(np.linalg, "lstsq", refused)
        cfg = write_config(tmp_path, "run.cfg", lines)
        assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_quasistatic_degenerate_exits_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "qs.cfg",
            ["rho = 1", "a = 1", "b = 1", "c = -1", "d = 1", "eta = 1",
             "t_end = 0.02", "dt = 0.0001", "initial_theta = 1.0"],
        )
        assert main(["quasistatic", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "DegenerateCapacity" in capsys.readouterr().err


class TestModesEnumeratedOnce:
    """The parser enumerates a run's modes once, and every handler reads its
    eigenvalues and initial data: mode_count modes, or the n_max modes of
    `nondiff`, which validates mode_count but does not enumerate it, or the
    len(initial_theta) modes of `quasistatic`."""

    INTERVAL = ["domain = interval", f"length = {PI}"]
    TIME = INTERVAL + ["mode_count = 4", "t_end = 0.1", "dt = 0.01"]
    SCAN = INTERVAL + ["mode_count = 16", "omega_min = 5", "omega_max = 200", "omega_points = 40"]
    RUNS = {
        "simulate-preset": ("simulate", base_model() + TIME + ["initial = first-mode-bend+thermal-pulse"]),
        "simulate-lists": ("simulate", base_model() + TIME + ["initial_u = 1, 0.5", "initial_theta = 0.25"]),
        "backward-preset": ("backward", base_model() + TIME + ["initial = first-mode-bend"]),
        "backward-lists": ("backward", base_model() + TIME + ["initial_u = 1", "initial_theta = 1"]),
        "instability-preset": ("instability", base_model("-1") + TIME + ["initial = first-mode-bend"]),
        "instability-lists": ("instability", base_model("-1") + TIME + ["initial_u = 1, 0.5"]),
        "resolvent-scan-log": ("resolvent-scan", base_model() + SCAN + ["omega_grid = log"]),
        "resolvent-scan-linear": ("resolvent-scan", base_model() + SCAN + ["omega_grid = linear"]),
        "resolvent-scan-resonant": ("resolvent-scan", base_model() + SCAN + ["omega_grid = resonant"]),
        "spectrum": ("spectrum", base_model() + INTERVAL + [
            "mode_count = 16", "lambda_max = 1e6", "lambda_points = 50",
        ]),
        "nondiff": ("nondiff", base_model() + INTERVAL + ["mode_count = 4", "n_max = 30"]),
        "quasistatic": ("quasistatic", base_model("-2") + [
            "length = 2.5", "t_end = 0.02", "dt = 0.001", "initial_theta = 1, 0.5, 0.25",
        ]),
    }
    # the key that sets the number of modes, where it is not mode_count
    COUNT_KEYS = {"nondiff": "n_max", "quasistatic": "initial_theta"}

    @pytest.mark.parametrize("run", list(RUNS))
    def test_one_enumeration_per_run(self, tmp_path, monkeypatch, run):
        # every module that can bind it is loaded before the bindings are patched
        for module in pkgutil.iter_modules(gradiplate.__path__):
            importlib.import_module(f"gradiplate.{module.name}")
        counts = []
        original = model.enumerate_modes

        def counted(domain, count):
            counts.append(count)
            return original(domain, count)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("gradiplate.") and vars(module).get("enumerate_modes") is original:
                monkeypatch.setattr(module, "enumerate_modes", counted)
        subcommand, lines = self.RUNS[run]
        cfg = write_config(tmp_path, "run.cfg", lines)
        assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        key = self.COUNT_KEYS.get(subcommand, "mode_count")
        value = next(l for l in lines if l.startswith(f"{key} ")).split("=")[1]
        assert counts == [len(value.split(",")) if key == "initial_theta" else int(value)]

    ND = base_model() + ["domain = interval", "length = 1", "n_max = 30"]

    def test_nondiff_does_not_enumerate_mode_count(self, tmp_path):
        """Three million modes cost the parser nothing, and the CSV is that
        of mode_count = 30."""
        csvs = []
        for mode_count in (30, 3_000_000):
            path = write_config(tmp_path, f"{mode_count}.cfg", self.ND + [f"mode_count = {mode_count}"])
            tracemalloc.start()
            try:
                load_config(path, "nondiff")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1e6
            out = tmp_path / f"o{mode_count}"
            assert main(["nondiff", "--config", path, "--out", str(out)]) == 0
            csvs.append((out / "nondiff.csv").read_bytes())
        assert csvs[0] == csvs[1]

    def test_nondiff_still_validates_mode_count(self, tmp_path, capsys):
        path = write_config(tmp_path, "run.cfg", self.ND + ["mode_count = 0"])
        assert main(["nondiff", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "config error: mode_count must be >= 1\n"


class TestOneWeight:
    """`nondiff` and `quasistatic` weigh their modes with
    `ModelParams.heat_weight` alone: a relative 1e-9 on it moves p (its
    imaginary part, heat / x) and rate1."""

    CONFIGS = {
        "nondiff": base_model() + ["domain = interval", f"length = {PI}", "mode_count = 4", "n_max = 30"],
        "quasistatic": base_model("-2") + ["t_end = 0.02", "dt = 0.001", "initial_theta = 1"],
    }

    def run(self, tmp_path, subcommand):
        path = write_config(tmp_path, "run.cfg", self.CONFIGS[subcommand])
        return cli.HANDLERS[subcommand](load_config(path, subcommand))

    def scale_the_weight(self, monkeypatch):
        weight = model.ModelParams.heat_weight
        monkeypatch.setattr(model.ModelParams, "heat_weight", lambda self, lam: weight(self, lam) * (1 + 1e-9))

    def test_nondiff_p(self, tmp_path, monkeypatch):
        plain = self.run(tmp_path, "nondiff")
        self.scale_the_weight(monkeypatch)
        scaled = self.run(tmp_path, "nondiff")
        assert np.all(scaled.columns["p_im"] != plain.columns["p_im"])
        # |v|^2 against its expansion in lambda sees the change
        assert [c.name for c in scaled.checks if not c.passed] == ["norm_v_sq_expansion"]

    def test_quasistatic_rate1(self, tmp_path, monkeypatch):
        plain = self.run(tmp_path, "quasistatic").results["rate1"]
        self.scale_the_weight(monkeypatch)
        scaled = self.run(tmp_path, "quasistatic").results["rate1"]
        assert scaled != plain and scaled == pytest.approx(plain * (1 + 1e-9), rel=1e-15)


def coupled_model(eta="3", c="5"):
    """rho, a and c away from 1: a scaling or sign slip in the block shows on
    this model, where the unit model's exact scalings hide it."""
    return [
        "rho = 2", "a = 0.3", "b = 0.2", f"c = {c}", "d = 4", f"eta = {eta}",
        "domain = interval", "length = 2.5", "mode_count = 16",
    ]


COUPLED_RUNS = {
    "simulate": ["t_end = 0.1", "dt = 0.001", "initial_u = 1,0.5", "initial_v = -0.5"],
    "backward": ["t_end = 0.1", "dt = 0.001", "initial_u = 1,0.5", "initial_v = -0.5"],
    "instability": ["t_end = 0.1", "dt = 0.001", "initial_u = 1,0.5", "initial_v = -0.5"],
    "spectrum": ["lambda_max = 1e6", "lambda_points = 50"],
    "resolvent-scan": ["omega_min = 0.1", "omega_max = 1e4", "omega_points = 200"],
    "nondiff": ["n_max = 30"],
}


class TestOneBlock:
    """Every layer takes its block from `ModelParams.block_rates` alone: a
    relative 1e-9 on one of k, g and h moves an output of every subcommand
    that reads that rate (`nondiff` reads k alone, as its omega)."""

    OUTPUT = {
        "simulate": "kinetic", "backward": "L1", "instability": "F", "spectrum": "root1_re",
        "resolvent-scan": "resolvent_norm", "nondiff": "omega",
    }

    def column(self, tmp_path, subcommand):
        lines = coupled_model(c="-5" if subcommand == "instability" else "5") + COUPLED_RUNS[subcommand]
        if subcommand in ("simulate", "backward", "instability"):
            lines.append("initial_theta = 0.25,0.1,-0.3")
        out = cli.HANDLERS[subcommand](load_config(write_config(tmp_path, "run.cfg", lines), subcommand))
        return out.columns[self.OUTPUT[subcommand]]

    @pytest.mark.parametrize("subcommand, rate", [
        (subcommand, rate) for subcommand in OUTPUT for rate in ("kgh" if subcommand != "nondiff" else "k")
    ])
    def test_each_rate_moves_the_output(self, tmp_path, monkeypatch, subcommand, rate):
        plain = self.column(tmp_path, subcommand)
        rates = model.ModelParams.block_rates

        def scaled(self, lam):
            out = list(rates(self, lam))
            out["kgh".index(rate)] *= 1 + 1e-9
            return tuple(out)

        monkeypatch.setattr(model.ModelParams, "block_rates", scaled)
        assert not np.array_equal(self.column(tmp_path, subcommand), plain)


class TestEtaSignSymmetry:
    """eta -> -eta conjugates every block by diag(1, 1, -1): with theta(0)
    negated along with eta, each run writes the same CSV bytes."""

    @pytest.mark.parametrize("subcommand", ["simulate", "backward", "spectrum", "resolvent-scan"])
    def test_same_csv_bytes(self, tmp_path, subcommand):
        csvs = []
        for eta, theta in (("3", "0.25,0.1,-0.3"), ("-3", "-0.25,-0.1,0.3")):
            lines = coupled_model(eta) + COUPLED_RUNS[subcommand]
            if subcommand in ("simulate", "backward"):
                lines.append(f"initial_theta = {theta}")
            out = tmp_path / f"o{eta}"
            assert main([subcommand, "--config", write_config(tmp_path, "run.cfg", lines), "--out", str(out)]) == 0
            csvs.append(next(out.glob("*.csv")).read_bytes())
        assert csvs[0] == csvs[1]


class TestNoPerSampleObjects:
    """Guards on work counts, not timings: trajectories stay arrays."""

    def test_backward_computes_lyapunov_series_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return lyapunov_series(*args, **kwargs)

        monkeypatch.setattr(backward, "lyapunov_series", counted)
        cfg = simulate_config(tmp_path, mode_count="2", initial="thermal-pulse")
        assert main(["backward", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 1

    def test_nondiff_computes_each_term_once(self, tmp_path, monkeypatch):
        """One mode enumeration and one array pass over all n_max terms."""
        calls = {"enumerate_modes": 0, "nondiff_sequence": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(config, "enumerate_modes")
        counted(nondiff, "nondiff_sequence")
        cfg = write_config(
            tmp_path, "nd.cfg",
            base_model() + ["domain = interval", f"length = {PI}", "mode_count = 30", "n_max = 30"],
        )
        assert main(["nondiff", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert calls == {"enumerate_modes": 1, "nondiff_sequence": 1}


class TestManifestPhases:
    PHASES = (
        "timing.import_seconds", "timing.parse_seconds", "timing.handler_seconds",
        "timing.write_seconds",
    )
    RESONANT_DECOUPLED_SCAN = [l for l in base_model() if not l.startswith("eta ")] + [
        "eta = 0", "domain = interval", f"length = {PI}", "mode_count = 4",
        "omega_min = 0.5", "omega_max = 20", "omega_points = 10", "omega_grid = resonant",
    ]

    @pytest.mark.parametrize("subcommand, overrides, exit_code", [
        ("simulate", {"dt": "0.01"}, 0),
        ("resolvent-scan", None, 3),
        ("simulate", {"c": "-1", "t_end": "2000", "dt": "100"}, 4),
    ], ids=["ok", "check_failure", "nonfinite"])
    def test_phase_timers_and_peak_rss(self, tmp_path, subcommand, overrides, exit_code):
        if overrides is None:
            cfg = write_config(tmp_path, "run.cfg", self.RESONANT_DECOUPLED_SCAN)
        else:
            cfg = simulate_config(tmp_path, **overrides)
        out = str(tmp_path / "o")
        assert main([subcommand, "--config", cfg, "--out", out]) == exit_code
        manifest = read_manifest(out)
        seconds = [float(manifest[key]) for key in self.PHASES]
        assert min(seconds) >= 0.0
        # each line rounds to the microsecond
        assert sum(seconds) == pytest.approx(float(manifest["timing.total_seconds"]), abs=3e-6)
        peak_now = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        assert 0.0 < float(manifest["peak_rss_mb"]) <= peak_now + 0.05
        assert list(manifest)[-6:] == [*self.PHASES, "timing.total_seconds", "peak_rss_mb"]


class TestNoIdleKnobs:
    def test_seed_is_an_unknown_key(self, tmp_path, capsys):
        cfg = simulate_config(tmp_path, seed="1")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "unknown keys: seed" in capsys.readouterr().err

    def test_manifest_has_no_threads_line(self, tmp_path):
        cfg = simulate_config(tmp_path, dt="0.01")
        out = str(tmp_path / "o")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        assert "threads" not in read_manifest(out)


class TestInstabilityEnergy:
    def test_e0_is_the_trajectory_total(self, tmp_path):
        """E(0) of the bound is the trajectory's own first energy sample."""
        # eight modes: a pairwise mode sum and a sequential one can differ
        cfg = load_config(write_config(tmp_path, "run.cfg", base_model(c="-1") + [
            "domain = interval", f"length = {PI}", "mode_count = 8",
            "t_end = 0.05", "dt = 0.001",
            "initial_u = 0.346, 0.822, 0.33, -1.303, 0.905, 0.446, -0.537, 0.581",
            "initial_v = 0.365, 0.294, 0.028, 0.547, -0.736, -0.163, -0.482, 0.599",
            "initial_theta = 0.04, -0.292, -0.782, -0.257, 0.008, -0.276, 1.294, 1.007",
        ]), "instability")
        trajectory = evolve(cfg.params, cfg.lams, cfg.x0, cfg.times)
        assert instability.run(cfg).results["e0"] == trajectory.total[0]


class TestRefusedConfigs:
    """Configs outside what the program can compute, or outside a theorem's
    hypotheses, exit 2 with a config error naming the cause and write
    nothing.  Each once exited 1 with a traceback, or 3."""

    INTERVAL = base_model() + ["domain = interval", f"length = {PI}", "mode_count = 4"]
    BASES = {
        "simulate": INTERVAL + ["t_end = 1.0", "dt = 0.01", "initial_u = 1"],
        "resolvent-scan": INTERVAL + ["omega_min = 1", "omega_max = 10", "omega_points = 5"],
        "nondiff": INTERVAL + ["n_max = 10"],
        "spectrum": INTERVAL + ["lambda_max = 100", "lambda_points = 10"],
        "quasistatic": [
            "rho = 1", "a = 1", "b = 1", "c = -2", "d = 1", "eta = 1", "length = 1",
            "t_end = 0.02", "dt = 1e-3", "initial_theta = 1",
        ],
        "instability": base_model(c="-1") + [
            "domain = interval", f"length = {PI}", "mode_count = 1", "t_end = 1.0",
            "dt = 0.001", "initial_u = 1",
        ],
    }

    def refused(self, tmp_path, capsys, subcommand, lines):
        """The stderr of a run that must exit 2 and write nothing."""
        out = tmp_path / "o"
        cfg = write_config(tmp_path, "run.cfg", lines)
        assert main([subcommand, "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        return err

    @pytest.mark.parametrize("subcommand, key, value", [
        ("simulate", "initial_u", "nan"),
        ("simulate", "t_end", "inf"),
        ("simulate", "rho", "inf"),
        ("simulate", "length", "1e300"),  # lambda underflows to 0
        ("simulate", "length", "1e-300"),  # lambda overflows
        ("resolvent-scan", "omega_max", "inf"),
        ("spectrum", "lambda_max", "inf"),
        ("quasistatic", "initial_theta", "inf"),
        ("quasistatic", "length", "inf"),
        # lam_1^2 = (pi / length)^4 overflows (small lengths) or is subnormal
        ("quasistatic", "length", "1e-150"),
        ("quasistatic", "length", "1e-120"),
        ("quasistatic", "length", "1e-100"),
        ("quasistatic", "length", "1e-80"),
        ("quasistatic", "length", "1e78"),
        ("quasistatic", "length", "1e80"),
        ("quasistatic", "length", "1e100"),
        ("quasistatic", "length", "1e150"),
        # theta^2 of the data overflows
        ("quasistatic", "initial_theta", "1e155"),
        ("quasistatic", "initial_theta", "1e200"),
        # lam_1^2 of the interval overflows or is subnormal
        ("simulate", "length", "1e-90"),
        ("simulate", "length", "1e90"),
        ("instability", "length", "1e-90"),
        ("instability", "length", "1e90"),
        ("nondiff", "length", "1e-90"),
        ("resolvent-scan", "length", "1e90"),
        ("spectrum", "length", "1e-90"),
        ("instability", "t0", "inf"),
        ("instability", "growth_fit_start", "nan"),
    ])
    def test_non_finite_numbers_and_out_of_range_eigenvalues(
        self, tmp_path, capsys, subcommand, key, value
    ):
        lines = [l for l in self.BASES[subcommand] if not l.startswith(f"{key} ")]
        err = self.refused(tmp_path, capsys, subcommand, lines + [f"{key} = {value}"])
        assert key in err

    @pytest.mark.parametrize("length, theta", [("1e-76", "1, 0, 0, 1"), ("6.2e-77", "1, 0.5")])
    def test_quasistatic_length_checks_the_last_mode(self, tmp_path, capsys, length, theta):
        """Mode 1 is in range, but lam_4^2 overflows (1e-76) or the decay
        rate of mode 2 does (6.2e-77)."""
        lines = [
            l for l in self.BASES["quasistatic"] if not l.startswith(("length ", "initial_theta "))
        ]
        err = self.refused(
            tmp_path, capsys, "quasistatic",
            lines + [f"length = {length}", f"initial_theta = {theta}"],
        )
        assert "length" in err

    @pytest.mark.parametrize("subcommand", ["resolvent-scan", "nondiff", "spectrum"])
    def test_eigenvalue_range_of_the_frequency_subcommands(self, tmp_path, capsys, subcommand):
        """Refused by the parser, as the time-domain subcommands are."""
        lines = [l for l in self.BASES[subcommand] if not l.startswith("length ")]
        err = self.refused(tmp_path, capsys, subcommand, lines + ["length = 1e-300"])
        assert "Interval(length=1e-300)" in err

    def test_growth_fit_start_past_the_last_two_samples(self, tmp_path, capsys):
        err = self.refused(
            tmp_path, capsys, "instability", self.BASES["instability"] + ["growth_fit_start = 0.9999"]
        )
        assert "growth_fit_start = 0.9999 leaves fewer than 2 time samples" in err

    # the first instability sweep config (c forced negative) of each kind
    # that once exited 3
    POSITIVE_ENERGY = [
        "rho = 7.466065839430128", "a = 4.429330943950683", "b = 8.78536076593636",
        "c = -7.155102657621115", "d = 0.07987277354201366", "eta = 0.0", "mode_count = 4",
        "dt = 0.004271135102602633", "t_end = 4.24977942708962", "domain = rectangle",
        "length1 = 0.603116324009811", "length2 = 1.0172472485408206", "initial = thermal-pulse",
    ]
    CONVEXITY_OVERFLOW = [
        "rho = 0.4679830489044979", "a = 1.614917818195902", "b = 9.58191470298622",
        "c = -3.408843191015938", "d = 8.80640323821838", "eta = 0.0", "mode_count = 9",
        "dt = 0.0008313702595406049", "t_end = 1.070804894288299", "domain = interval",
        "length = 2.3096401244650226",
        "initial_u = -1.9824905292733188,0.9617275809388532,-1.5531856260950638,"
        "1.2459736681603735,0.8466997325206944,-1.8931385862824839,-0.12544020965337843,"
        "-0.6310299341349719",
        "initial_v = -1.4226001803187311,-1.312733568237896,0.9637074573011946,"
        "1.9872235180836695,1.7791482672444872,-1.4518075339049141",
        "initial_theta = -1.2586686696100462,-0.20383736482423975,-0.7226841108252637",
    ]

    def test_grid_larger_than_memory(self, tmp_path, capsys):
        """numpy refuses the 1e18-sample grid (6.94 EiB) at once: it is
        beyond the 64-bit address space, so nothing is allocated."""
        lines = [l for l in self.BASES["simulate"] if not l.startswith(("t_end ", "dt "))]
        err = self.refused(tmp_path, capsys, "simulate", lines + ["t_end = 1e9", "dt = 1e-9"])
        assert "does not fit in memory" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("subcommand", ["simulate", "backward", "quasistatic"])
    @pytest.mark.parametrize("t_end, dt", [("1e20", "1"), ("1e300", "1e-10")])
    def test_grid_beyond_an_array(self, tmp_path, capsys, subcommand, t_end, dt):
        base = self.BASES["quasistatic" if subcommand == "quasistatic" else "simulate"]
        lines = [l for l in base if not l.startswith(("t_end ", "dt "))]
        err = self.refused(tmp_path, capsys, subcommand, lines + [f"t_end = {t_end}", f"dt = {dt}"])
        assert "more than an array can hold" in err

    def test_instability_with_positive_initial_energy(self, tmp_path, capsys):
        err = self.refused(tmp_path, capsys, "instability", self.POSITIVE_ENERGY)
        assert "Fdot(0) > 2*nu is unreachable with omega_const = 0" in err
        e0 = float(err.rstrip().rsplit("E(0) = ", 1)[1].rstrip(")"))
        assert e0 > 0

    def test_instability_convexity_overflow_exits_4(self, tmp_path):
        out = str(tmp_path / "o")
        cfg = write_config(tmp_path, "run.cfg", self.CONVEXITY_OVERFLOW)
        assert main(["instability", "--config", cfg, "--out", out]) == 4
        manifest = read_manifest(out)
        assert manifest["status"] == "nonfinite"
        assert manifest["error"].startswith("convexity functional overflowed at t=")
        assert not (tmp_path / "o" / "instability.csv").exists()


class TestOneSubparser:
    """A command line that names a subcommand builds only its subparser;
    what the user reads and the exit code are those of the full parser."""

    @pytest.mark.parametrize("argv", [
        ["--help"], ["--version"], ["bogus"], [], ["simulate"], ["simulate", "--help"],
        ["simulate", "--config", "run.cfg", "--bogus"],
    ])
    def test_texts_and_exit_code_match_the_full_parser(self, capsys, argv):
        def outcome(parser):
            with pytest.raises(SystemExit) as exited:
                parser.parse_args(argv)
            printed = capsys.readouterr()
            return exited.value.code, printed.out, printed.err

        assert outcome(cli.build_parser(argv)) == outcome(cli.build_parser())

    def test_only_the_named_subparser_is_built(self):
        parser = cli.build_parser(["nondiff", "--config", "run.cfg"])
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(sub.choices) == ["nondiff"]
        assert parser.parse_args(["nondiff", "--config", "run.cfg"]).config == "run.cfg"


class TestImportFootprint:
    CLI_MODULES = {"gradiplate", "gradiplate.cli", "gradiplate.errors"}
    # the modules every run that writes a CSV adds to those of
    # `import gradiplate.cli`
    RUN_MODULES = {"config", "csvout", "manifest", "model"}
    # the modules each subcommand adds to those, with a small config that
    # exits 0 ("resolvent-scan:resonant" scans the resonant grid)
    SUBCOMMANDS = {
        "simulate": ({"simulate", "propagator", "spectrum"}, base_model() + [
            "domain = interval", f"length = {PI}", "mode_count = 4", "t_end = 0.1", "dt = 0.01",
            "initial = first-mode-bend",
        ]),
        "resolvent-scan": ({"resolvent"}, base_model() + [
            "domain = interval", f"length = {PI}", "mode_count = 4",
            "omega_min = 1", "omega_max = 10", "omega_points = 5",
        ]),
        "resolvent-scan:resonant": ({"resolvent"}, base_model() + [
            "domain = interval", f"length = {PI}", "mode_count = 16",
            "omega_min = 5", "omega_max = 200", "omega_points = 40", "omega_grid = resonant",
        ]),
        "nondiff": ({"nondiff"}, base_model() + [
            "domain = interval", f"length = {PI}", "mode_count = 30", "n_max = 30",
        ]),
        "spectrum": ({"abscissa", "spectrum"}, base_model() + [
            "domain = interval", f"length = {PI}", "mode_count = 4", "lambda_max = 100",
            "lambda_points = 10",
        ]),
        "backward": ({"backward", "propagator", "spectrum"}, base_model() + [
            "domain = interval", f"length = {PI}", "mode_count = 2", "t_end = 1.0", "dt = 0.001",
            "initial_u = 1", "initial_theta = 1",
        ]),
        "instability": ({"instability", "propagator", "spectrum"}, base_model(c="-1") + [
            "domain = interval", f"length = {PI}", "mode_count = 1", "t_end = 0.1", "dt = 0.01",
            "initial_u = 1",
        ]),
        "quasistatic": ({"quasistatic"}, [
            "rho = 1", "a = 1", "b = 1", "c = -2", "d = 1", "eta = 1",
            "t_end = 0.02", "dt = 1e-3", "initial_theta = 1",
        ]),
    }

    @staticmethod
    def loaded_modules(script: str) -> set[str]:
        """The gradiplate modules loaded after `script` runs in a fresh
        process, and numpy.ma if it is loaded (np.unique imports it),
        numpy.char if it is (its first call costs about 2.6 ms of imports),
        and dataclasses if it is (creating a dataclass costs about 1 ms)."""
        script += (
            "\nimport sys\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'gradiplate'"
            " or m in ('numpy.ma', 'numpy.char', 'dataclasses')))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        return set(eval(out.stdout.strip().splitlines()[-1]))

    def test_import_gradiplate_loads_no_submodule(self):
        assert self.loaded_modules("import gradiplate") == {"gradiplate"}

    def test_package_exports_its_version_only(self, tmp_path):
        """`import gradiplate` loads no submodule, and the package holds
        `__version__` and no public name: each name is imported from its
        submodule."""
        script = (
            "import sys\n"
            "import gradiplate\n"
            "print(sorted(m for m in sys.modules if m.startswith('gradiplate.')))\n"
            "print(sorted(n for n in dir(gradiplate) if not n.startswith('_')))\n"
            "print(gradiplate.__version__)\n"
        )
        done = run_fresh_python(["-c", script], tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["[]", "[]", cli.__version__]

    def test_import_cli_loads_errors_only(self):
        assert self.loaded_modules("import gradiplate.cli") == self.CLI_MODULES

    def test_import_cli_loads_no_numpy(self, tmp_path):
        script = "import gradiplate.cli\nimport sys\nprint('numpy' in sys.modules)\n"
        done = run_fresh_python(["-c", script], tmp_path)
        assert done.stdout.strip() == "False", done.stderr

    @pytest.mark.parametrize("case", list(SUBCOMMANDS))
    def test_subcommand_loads_only_its_modules(self, tmp_path, case):
        extra, lines = self.SUBCOMMANDS[case]
        subcommand = case.partition(":")[0]
        cfg = write_config(tmp_path, "run.cfg", lines)
        script = (
            "import gradiplate.cli as cli\n"
            f"code = cli.main([{subcommand!r}, '--config', {cfg!r}, '--out', {str(tmp_path / 'o')!r}])\n"
            "assert code == 0, code\n"
        )
        expected = self.CLI_MODULES | {f"gradiplate.{name}" for name in extra | self.RUN_MODULES}
        assert self.loaded_modules(script) == expected

    def test_unknown_name_raises_attribute_error(self):
        import gradiplate

        with pytest.raises(AttributeError, match="no_such_name"):
            gradiplate.no_such_name

    @pytest.mark.parametrize("subcommand, lines", [
        ("simulate", None),
        ("simulate", TestRegressionConfigs.DOUBLE_ROOT),
        ("simulate", TestRegressionConfigs.TRIPLE_ROOT),
        ("backward", TestRegressionConfigs.TRIPLE_ROOT),
    ])
    def test_cli_run_loads_no_scipy(self, tmp_path, subcommand, lines):
        """A CLI process never imports scipy, at a double or a triple root too."""
        cfg = simulate_config(tmp_path) if lines is None else write_config(tmp_path, "run.cfg", lines)
        script = (
            "import sys\n"
            "import gradiplate.cli as cli\n"
            f"code = cli.main([{subcommand!r}, '--config', {cfg!r}, '--out', {str(tmp_path / 'o')!r}])\n"
            "assert code == 0, code\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        assert out.stdout.strip().splitlines()[-1] == "[]"


def run_fresh_python(args, tmp_path):
    """Run the interpreter on `args` in a fresh process with `src` on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=tmp_path
    )


class TestProcessExit:
    """A CLI process freezes its heap before it exits, so the interpreter's
    shutdown cycle collections have nothing to walk; `main` never freezes."""

    def test_entry_freezes_the_heap_before_exit(self, tmp_path):
        cfg = simulate_config(tmp_path, dt="0.01")
        script = (
            "import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count()))\n"
            f"sys.argv = ['gradiplate', 'simulate', '--config', {cfg!r}, '--out', 'o']\n"
            "runpy.run_module('gradiplate.cli', run_name='__main__')\n"
        )
        done = run_fresh_python(["-c", script], tmp_path)
        assert done.returncode == 0, done.stderr
        label, count = done.stdout.split()
        assert label == "frozen" and int(count) > 0

    def test_entry_imports_numpy_with_the_gc_off(self, tmp_path):
        """No cyclic collection walks numpy's import-time heap: `entry`
        turns the GC off before `main` imports numpy."""
        cfg = simulate_config(tmp_path, dt="0.01")
        script = (
            "import gc, runpy, sys\n"
            "class Probe:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'numpy':\n"
            "            print('gc enabled at numpy import:', gc.isenabled())\n"
            "sys.meta_path.insert(0, Probe())\n"
            "print('gc enabled at start:', gc.isenabled())\n"
            f"sys.argv = ['gradiplate', 'simulate', '--config', {cfg!r}, '--out', 'o']\n"
            "runpy.run_module('gradiplate.cli', run_name='__main__')\n"
        )
        done = run_fresh_python(["-c", script], tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [
            "gc enabled at start: True", "gc enabled at numpy import: False",
        ]

    @pytest.mark.parametrize("exit_code", [0, 2, 3, 4])
    def test_exit_codes_reach_the_parent(self, tmp_path, exit_code):
        if exit_code == 3:
            subcommand = "resolvent-scan"
            cfg = write_config(tmp_path, "run.cfg", TestManifestPhases.RESONANT_DECOUPLED_SCAN)
        else:
            subcommand = "simulate"
            cfg = simulate_config(tmp_path, **{
                0: {"initial": "zero", "dt": "0.1"},
                2: {"wavelength": "2"},
                4: {"c": "-1", "t_end": "2000", "dt": "100"},
            }[exit_code])
        done = run_fresh_python(["-m", "gradiplate.cli", subcommand, "--config", cfg, "--out", "o"], tmp_path)
        assert done.returncode == exit_code, done.stderr
        if exit_code != 2:
            assert read_manifest(tmp_path / "o")["exit_code"] == str(exit_code)

    def test_main_leaves_the_gc_state_alone(self, tmp_path):
        before = gc.get_freeze_count(), gc.isenabled(), gc.get_threshold()
        assert main(["simulate", "--config", simulate_config(tmp_path, dt="0.01"), "--out", str(tmp_path / "o")]) == 0
        assert (gc.get_freeze_count(), gc.isenabled(), gc.get_threshold()) == before

    def test_import_leaves_the_gc_state_alone(self, tmp_path):
        script = (
            "import gc\n"
            "before = gc.get_freeze_count(), gc.isenabled(), gc.get_threshold()\n"
            "import gradiplate.cli\n"
            "print((gc.get_freeze_count(), gc.isenabled(), gc.get_threshold()) == before)\n"
        )
        done = run_fresh_python(["-c", script], tmp_path)
        assert done.stdout.strip() == "True", done.stderr

    def test_script_and_main_block_call_the_same_entry(self):
        tomllib = pytest.importorskip("tomllib")
        source = Path(cli.__file__).resolve()
        pyproject = tomllib.loads((source.parents[2] / "pyproject.toml").read_text(encoding="utf-8"))
        module, _, function = pyproject["project"]["scripts"]["gradiplate"].partition(":")
        assert module == "gradiplate.cli"
        [block] = [
            node for node in ast.parse(source.read_text(encoding="utf-8")).body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        ]
        assert [ast.unparse(stmt) for stmt in block.body] == [f"{function}()"]


class TestParamsOverride:
    def test_override_applies(self, tmp_path):
        cfg = simulate_config(tmp_path, dt="0.01")
        out = str(tmp_path / "o")
        assert main([
            "simulate", "--config", cfg, "--out", out, "--params", "mode_count=2",
        ]) == 0
        assert read_manifest(out)["config.mode_count"] == "2"

    def test_bad_override_rejected(self, tmp_path):
        cfg = simulate_config(tmp_path)
        assert main([
            "simulate", "--config", cfg, "--out", str(tmp_path / "o"),
            "--params", "mode_count",
        ]) == 2


class TestCsvOutput:
    def test_writer_and_manifest_use_the_number_format(self, tmp_path):
        columns = [
            np.array([0, 7, 12]),
            np.array([0.0, 1e300, -1e-310]),
            np.array([-0.0, float("nan"), float("-inf")]),
            np.array(["three_real", "x", "a b"]),
            np.array([5e-324, -1.0 / 3.0, 2.5]),
        ]

        def fmt(value):
            if isinstance(value, (int, np.integer)):
                return str(int(value))
            return value if isinstance(value, str) else f"{float(value):.16e}"

        path = tmp_path / "t.csv"
        csvout.write_csv(str(path), dict(zip(["n", "p", "q", "kind", "r"], columns)))
        rows = list(zip(*(col.tolist() for col in columns)))
        expected = "n,p,q,kind,r\n" + "".join(
            ",".join(fmt(v) for v in row) + "\n" for row in rows
        )
        assert path.read_text(encoding="utf-8") == expected
        assert [_fmt(v) for v in rows[1]] == [fmt(v) for v in rows[1]]

    def test_empty_table_is_the_header(self, tmp_path):
        path = tmp_path / "t.csv"
        csvout.write_csv(str(path), {"a": np.array([]), "b": np.array([])})
        assert path.read_text(encoding="utf-8") == "a,b\n"

    # with eta = 0 the plate pair sits on the imaginary axis, where the
    # decoupled plate is not claimed to decay, so no abscissa check runs
    @pytest.mark.parametrize("eta, exit_code", [("1", 0), ("0", 0)])
    def test_spectrum_rows_match_the_per_lambda_solve(self, tmp_path, eta, exit_code):
        lines = [l for l in base_model() if not l.startswith("eta ")] + [
            f"eta = {eta}", "domain = interval", f"length = {PI}", "mode_count = 16",
            "lambda_max = 1e8", "lambda_points = 200",
        ]
        out = str(tmp_path / "o")
        cfg_path = write_config(tmp_path, "sp.cfg", lines)
        assert main(["spectrum", "--config", cfg_path, "--out", out]) == exit_code
        cfg = load_config(cfg_path, "spectrum")
        expected = []
        for lam in np.geomspace(cfg.lambda_min, cfg.lambda_max, cfg.lambda_points):
            mu, kappa, eps = characteristic_coefficients(cfg.params, float(lam))
            roots, classification, residuals = cubic_roots(mu, kappa + eps, kappa * mu)
            row = [float(lam)]
            for z in roots:
                row += [z.real, z.imag]
            row += [max(z.real for z in roots), float(np.max(residuals))]
            row.append(classification.replace(" ", "_"))
            expected.append(",".join(_fmt(v) for v in row))
        got = (tmp_path / "o" / "spectrum.csv").read_text(encoding="utf-8").splitlines()
        assert got[1:] == expected
