import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gradiplate import cli, functionals, model, propagator, resolvent
from gradiplate.cli import main
from gradiplate.config import load_config
from gradiplate.functionals import lyapunov_series
from gradiplate.propagator import evolve
from gradiplate.spectrum import mode_eigenvalues

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
            return cli.RunOutput(
                csv_name="simulate.csv", header=["t"], rows=[(0.0,)],
                checks=[cli.Check("energy_identity", False, 1.0, 1e-8)],
                results={}, notes={},
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

    def test_instability_on_a_two_sample_grid(self, tmp_path):
        code, _ = self.run(tmp_path, "instability", self.SHORT_INSTABILITY + ["t_end = 0.1"])
        assert code == 0

    def test_instability_on_a_three_sample_grid(self, tmp_path):
        code, _ = self.run(tmp_path, "instability", self.SHORT_INSTABILITY + ["t_end = 0.2"])
        assert code == 0

    def test_instability_on_a_four_sample_grid(self, tmp_path):
        code, _ = self.run(tmp_path, "instability", self.SHORT_INSTABILITY + ["t_end = 0.3"])
        assert code == 0

    def test_nondiff_without_gradient_conduction_is_a_config_error(self, tmp_path, capsys):
        # d = 0 makes the limit d^2/eta^4 zero, and the gap to it divided by zero
        lines = [l for l in base_model() if not l.startswith("d ")] + [
            "d = 0", "domain = interval", f"length = {PI}", "mode_count = 4", "n_max = 10",
        ]
        out = str(tmp_path / "o")
        assert main(["nondiff", "--config", write_config(tmp_path, "run.cfg", lines), "--out", out]) == 2
        assert "nondiff requires d > 0" in capsys.readouterr().err

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
        assert manifest["error"].startswith("singular resolvent block at omega=1.0")
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

    def test_quasistatic_degenerate_exits_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "qs.cfg",
            ["rho = 1", "a = 1", "b = 1", "c = -1", "d = 1", "eta = 1",
             "t_end = 0.02", "dt = 0.0001", "initial_theta = 1.0"],
        )
        assert main(["quasistatic", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "DegenerateCapacity" in capsys.readouterr().err


class TestNoPerSampleObjects:
    """Guards on work counts, not timings: trajectories stay arrays."""

    def test_simulate_builds_mode_states_only_for_initial_data(self, tmp_path, monkeypatch):
        built = []
        monkeypatch.setattr(
            propagator.ModeState, "__post_init__", lambda self: built.append(self)
        )
        cfg = simulate_config(tmp_path)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert len(built) <= 4  # mode_count; 1001 samples would make 4004

    def test_backward_computes_lyapunov_series_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return lyapunov_series(*args, **kwargs)

        monkeypatch.setattr(functionals, "lyapunov_series", counted)
        cfg = simulate_config(tmp_path, mode_count="2", initial="thermal-pulse")
        assert main(["backward", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 1

    def test_nondiff_computes_each_term_once(self, tmp_path, monkeypatch):
        calls = {"enumerate_modes": 0, "nondiff_sequence": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for module in (cli, model, resolvent):
            counted(module, "enumerate_modes")
        counted(resolvent, "nondiff_sequence")
        cfg = write_config(
            tmp_path, "nd.cfg",
            base_model() + ["domain = interval", f"length = {PI}", "mode_count = 30", "n_max = 30"],
        )
        assert main(["nondiff", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert calls == {"enumerate_modes": 1, "nondiff_sequence": 30}


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
        trajectory = evolve(cfg.params, cfg.initial_state(), cli._time_grid(cfg))
        assert cli._run_instability(cfg).results["e0"] == trajectory.total[0]


class TestImportFootprint:
    CLI_MODULES = {"gradiplate", "gradiplate.cli", "gradiplate.config", "gradiplate.errors", "gradiplate.model"}
    # the modules each subcommand adds to those of `import gradiplate.cli`,
    # with a small config that exits 0
    SUBCOMMANDS = {
        "simulate": ({"propagator"}, base_model() + [
            "domain = interval", f"length = {PI}", "mode_count = 4", "t_end = 0.1", "dt = 0.01",
            "initial = first-mode-bend",
        ]),
        "resolvent-scan": ({"resolvent"}, base_model() + [
            "domain = interval", f"length = {PI}", "mode_count = 4",
            "omega_min = 1", "omega_max = 10", "omega_points = 5",
        ]),
        "nondiff": ({"resolvent"}, base_model() + [
            "domain = interval", f"length = {PI}", "mode_count = 30", "n_max = 30",
        ]),
        "spectrum": ({"spectrum"}, base_model() + [
            "domain = interval", f"length = {PI}", "mode_count = 4", "lambda_max = 100",
            "lambda_points = 10",
        ]),
        "backward": ({"propagator", "functionals"}, base_model() + [
            "domain = interval", f"length = {PI}", "mode_count = 2", "t_end = 1.0", "dt = 0.001",
            "initial_u = 1", "initial_theta = 1",
        ]),
        "instability": ({"propagator", "functionals"}, base_model(c="-1") + [
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
        """The gradiplate modules loaded after `script` runs in a fresh process."""
        script += "\nimport sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'gradiplate'))\n"
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        return set(eval(out.stdout.strip().splitlines()[-1]))

    def test_import_gradiplate_loads_no_submodule(self):
        assert self.loaded_modules("import gradiplate") == {"gradiplate"}

    def test_import_cli_loads_config_errors_and_model(self):
        assert self.loaded_modules("import gradiplate.cli") == self.CLI_MODULES

    @pytest.mark.parametrize("subcommand", list(SUBCOMMANDS))
    def test_subcommand_loads_only_its_modules(self, tmp_path, subcommand):
        extra, lines = self.SUBCOMMANDS[subcommand]
        cfg = write_config(tmp_path, "run.cfg", lines)
        script = (
            "import gradiplate.cli as cli\n"
            f"code = cli.main([{subcommand!r}, '--config', {cfg!r}, '--out', {str(tmp_path / 'o')!r}])\n"
            "assert code == 0, code\n"
        )
        expected = self.CLI_MODULES | {f"gradiplate.{name}" for name in extra}
        assert self.loaded_modules(script) == expected

    def test_lazy_names_are_the_submodule_objects(self):
        import gradiplate

        for name, module in gradiplate._SOURCE.items():
            assert getattr(gradiplate, name) is getattr(getattr(gradiplate, module), name)
        assert gradiplate.evolve is propagator.evolve
        assert set(gradiplate._SOURCE) <= set(dir(gradiplate))

    def test_unknown_name_raises_attribute_error(self):
        import gradiplate

        with pytest.raises(AttributeError, match="no_such_name"):
            gradiplate.no_such_name

    def test_cli_run_loads_no_scipy(self, tmp_path):
        """A CLI process never imports scipy (it costs more than the run)."""
        cfg = simulate_config(tmp_path)
        script = (
            "import sys\n"
            "import gradiplate.cli as cli\n"
            f"code = cli.main(['simulate', '--config', {cfg!r}, '--out', {str(tmp_path / 'o')!r}])\n"
            "assert code == 0, code\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        assert out.stdout.strip().splitlines()[-1] == "[]"


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
        rows = [
            (0, 0.0, -0.0, "three_real", 5e-324),
            (7, 1e300, float("nan"), "x", -1.0 / 3.0),
            (np.int64(12), np.float64(-1e-310), float("-inf"), "a b", 2.5),
        ]

        def fmt(value):
            if isinstance(value, (int, np.integer)):
                return str(int(value))
            return value if isinstance(value, str) else f"{float(value):.16e}"

        path = tmp_path / "t.csv"
        cli._write_csv(str(path), ["n", "p", "q", "kind", "r"], rows)
        expected = "n,p,q,kind,r\n" + "".join(
            ",".join(fmt(v) for v in row) + "\n" for row in rows
        )
        assert path.read_text(encoding="utf-8") == expected
        assert [cli._fmt(v) for v in rows[1]] == [fmt(v) for v in rows[1]]

    def test_empty_table_is_the_header(self, tmp_path):
        path = tmp_path / "t.csv"
        cli._write_csv(str(path), ["a", "b"], [])
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
            s = mode_eigenvalues(cfg.params, float(lam))
            row = [s.lam]
            for z in s.roots:
                row += [z.real, z.imag]
            row += [s.max_real, float(np.max(s.residuals)), s.classification.replace(" ", "_")]
            expected.append(",".join(cli._fmt(v) for v in row))
        got = (tmp_path / "o" / "spectrum.csv").read_text(encoding="utf-8").splitlines()
        assert got[1:] == expected
