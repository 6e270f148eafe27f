import os
import subprocess
import sys
from pathlib import Path

from gradiplate import cli, functionals, model, propagator, resolvent
from gradiplate.cli import main
from gradiplate.config import load_config
from gradiplate.functionals import lyapunov_series
from gradiplate.propagator import evolve

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

    def test_coarse_unstable_fails_checks_with_manifest(self, tmp_path):
        cfg = simulate_config(tmp_path, c="-1", t_end="10", dt="0.5")
        out = str(tmp_path / "o")
        assert main(["simulate", "--config", cfg, "--out", out]) == 3
        manifest = read_manifest(out)
        assert manifest["status"] == "check_failure"
        assert manifest["check.energy_identity.pass"] == "false"
        # CSV still written for inspection
        assert (tmp_path / "o" / "simulate.csv").exists()


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

        monkeypatch.setattr(cli, "lyapunov_series", counted)
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
        counted(cli, "nondiff_sequence")
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
