"""Time-blocked evolution: `simulate`, `instability` and `backward` hold the
states of one time block at a time, and their output does not depend on the
blocking.

Each check runs the CLI in-process twice, once with `BLOCK_MODE_SAMPLES` so
small that every block has a few samples (64, or the least number, 8) and
once so large that the whole grid is one block, and compares the CSV bytes.
"""

import random
import tracemalloc

import numpy as np
import pytest

import test_sweep
import gradiplate.cli as cli
import gradiplate.propagator as propagator
import gradiplate.spectrum as spectrum
from gradiplate.config import build_config, load_config, parse_config_text
from gradiplate.model import ModelParams
from gradiplate.propagator import Evolution, live_modes, time_blocks
from states import evolve, initial

PI = "3.141592653589793"
ONE_BLOCK = 2**40
UNIT = ["rho = 1", "a = 1", "b = 1", "c = 1", "d = 1", "eta = 1"]
UNSTABLE = ["rho = 1", "a = 1", "b = 1", "c = -1", "d = 1", "eta = 1"]
INTERVAL = ["domain = interval", f"length = {PI}"]
INTERVAL_64 = INTERVAL + ["mode_count = 64"]
# the time-domain bench invocations at a tenth of their horizon or less, on
# 1,025 samples: blocks of 64 samples, or of the least number, 8, and a
# one-sample tail
REDUCED_TIME_DOMAIN = {
    "simulate": UNIT + INTERVAL_64 + [
        "t_end = 1.024", "dt = 0.001", "initial = first-mode-bend+thermal-pulse",
    ],
    "instability": UNSTABLE + INTERVAL_64 + [
        "t_end = 1.024", "dt = 0.001", "initial = first-mode-bend",
    ],
    "backward": UNIT + INTERVAL_64 + [
        "t_end = 1.024", "dt = 0.001", "initial = first-mode-bend",
    ],
}
# eight modes that all carry data, so the mode sums of F' mix them
EIGHT_MODES = [
    "domain = interval", f"length = {PI}", "mode_count = 8",
    "initial_u = " + ",".join(repr(1.0 / n**3) for n in range(1, 9)),
]


def run(tmp_path, subcommand, lines, block, monkeypatch):
    """Exit code, CSV bytes (or None) and manifest lines of one run."""
    monkeypatch.setattr(propagator, "BLOCK_MODE_SAMPLES", block)
    work = tmp_path / f"{subcommand}-{block}"
    work.mkdir(parents=True)
    config = work / "run.cfg"
    config.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = cli.main([subcommand, "--config", str(config), "--out", str(work / "o")])
    csv = work / "o" / f"{subcommand}.csv"
    manifest = work / "o" / "manifest.txt"
    sizes = {}
    if manifest.exists():
        for line in manifest.read_text(encoding="utf-8").splitlines():
            key, _, value = line.partition(" = ")
            if key.startswith("size."):
                sizes[key[5:]] = int(value)
    return code, csv.read_bytes() if csv.exists() else None, sizes


def budget(subcommand, lines, samples):
    """The BLOCK_MODE_SAMPLES that gives the run of `lines` blocks of
    `samples` samples: that many per live mode."""
    cfg = build_config(parse_config_text("\n".join(lines)), subcommand)
    return samples * live_modes(cfg.x0).size


def assert_block_invariant(tmp_path, subcommand, lines, monkeypatch, samples=64):
    """Runs in blocks of `samples` samples and in one block give the same
    exit code and CSV bytes; the sweeps take 64, since blocks of the least
    size would run them several times as long."""
    small = run(tmp_path, subcommand, lines, budget(subcommand, lines, samples), monkeypatch)
    whole = run(tmp_path, subcommand, lines, ONE_BLOCK, monkeypatch)
    assert small[:2] == whole[:2]
    return small, whole


class TestTimeBlocks:
    def test_blocks_start_at_aligned_samples_and_cover_the_grid(self, monkeypatch):
        monkeypatch.setattr(propagator, "BLOCK_MODE_SAMPLES", 2**16)
        assert time_blocks(64, 10001)[:2] == [(0, 1024), (1024, 2048)]
        assert time_blocks(64, 10001)[-1] == (9216, 10001)
        assert time_blocks(4096, 11) == [(0, 11)]
        assert time_blocks(64, 0) == []
        assert time_blocks(0, 1025) == [(0, 1025)]
        assert time_blocks(0, 0) == []
        assert time_blocks(1, 200001)[:2] == [(0, 2**14), (2**14, 2**15)]
        monkeypatch.setattr(propagator, "BLOCK_MODE_SAMPLES", 1)
        blocks = time_blocks(64, 1025)
        assert [hi - lo for lo, hi in blocks] == [8] * 127 + [9]
        assert time_blocks(3, 1) == [(0, 1)]
        assert time_blocks(3, 9) == [(0, 9)]
        assert time_blocks(3, 10) == [(0, 8), (8, 10)]

    def test_blocks_hold_the_budget_down_to_the_least_samples(self, monkeypatch):
        """At the default budget of 2^13 live mode-samples: the time-domain
        bench's 27 live modes take 256 samples a block, and from 1,024 live
        modes on, the wide plate's 1,254 among them, a block has 8."""
        monkeypatch.setattr(propagator, "BLOCK_MODE_SAMPLES", 2**13)
        assert time_blocks(27, 10001)[:2] == [(0, 256), (256, 512)]
        assert time_blocks(1254, 11) == [(0, 8), (8, 11)]
        assert time_blocks(1024, 65)[0] == (0, 8)
        assert [hi - lo for lo, hi in time_blocks(8192, 65)] == [8] * 7 + [9]
        for modes in (1, 27, 1023, 1024, 1025, 8192):
            per = time_blocks(modes, 10001)[0][1]
            assert per * modes <= 2**13 < 2 * per * modes or per == 8

    @pytest.mark.parametrize("samples, blocks", [(64, 16), (8, 128)])
    @pytest.mark.parametrize("subcommand", ["simulate", "instability", "backward"])
    def test_reduced_time_domain_configs(self, tmp_path, monkeypatch, subcommand, samples, blocks):
        lines = REDUCED_TIME_DOMAIN[subcommand]
        small, whole = assert_block_invariant(tmp_path, subcommand, lines, monkeypatch, samples)
        assert small[0] == 0
        live = 27 if subcommand == "simulate" else 1
        assert small[2] == {"modes": 64, "live_modes": live, "samples": 1025, "time_blocks": blocks}
        assert whole[2]["time_blocks"] == 1

    EVERY_MODE_INSTABILITY = UNSTABLE + EIGHT_MODES + [
        "t_end = 0.2048", "dt = 0.0002", "initial_theta = 0.1,0.2,0.3",
    ]

    def test_instability_with_every_mode_carrying_data(self, tmp_path, monkeypatch):
        lines = self.EVERY_MODE_INSTABILITY
        small, _ = assert_block_invariant(tmp_path, "instability", lines, monkeypatch)
        assert small[0] == 0
        assert small[2] == {"modes": 8, "live_modes": 8, "samples": 1025, "time_blocks": 16}

    def test_instability_in_the_least_blocks(self, tmp_path, monkeypatch):
        """The mode sums of F, F' and F'' over eight live modes in blocks of
        the least size, 8 samples, with a 9-sample tail."""
        lines = self.EVERY_MODE_INSTABILITY
        small, _ = assert_block_invariant(tmp_path, "instability", lines, monkeypatch, 8)
        assert small[0] == 0
        assert small[2] == {"modes": 8, "live_modes": 8, "samples": 1025, "time_blocks": 128}

    def test_simulate_sweep_configs(self, tmp_path, monkeypatch):
        rng = random.Random(test_sweep.SEED)
        for n in range(test_sweep.EXAMPLES):
            lines, _ = test_sweep.simulate_config(rng)
            assert_block_invariant(tmp_path / str(n), "simulate", lines, monkeypatch)

    def test_instability_sweep_configs(self, tmp_path, monkeypatch):
        rng = random.Random(test_sweep.SEED + 7)
        for n in range(test_sweep.EXAMPLES):
            lines, c = test_sweep.simulate_config(rng)
            lines = [f"c = {-abs(c)!r}" if line.startswith("c = ") else line for line in lines]
            assert_block_invariant(tmp_path / str(n), "instability", lines, monkeypatch)

    def test_instability_overflow_in_the_least_blocks(self, tmp_path, monkeypatch):
        """Draws of the instability sweep whose F or F' mode sums overflow in
        an 8-sample block before the next block's energy columns do: the run
        exits 4 at the time one block gives, with no warning."""
        rng = random.Random(test_sweep.SEED + 7)
        draws = [test_sweep.simulate_config(rng) for _ in range(46)]
        for n in (16, 45):
            lines, c = draws[n]
            lines = [f"c = {-abs(c)!r}" if line.startswith("c = ") else line for line in lines]
            small, _ = assert_block_invariant(tmp_path / str(n), "instability", lines, monkeypatch, 8)
            assert small[0] == 4

    def test_backward_sweep_configs(self, tmp_path, monkeypatch):
        """Every draw gives the same exit code and CSV bytes in blocks of
        either size; most overflow backward in time, and at least a third
        pass their checks."""
        rng = random.Random(test_sweep.SEED + 6)
        passed = 0
        for n in range(test_sweep.EXAMPLES):
            lines, _ = test_sweep.simulate_config(rng)
            small, _ = assert_block_invariant(tmp_path / str(n), "backward", lines, monkeypatch)
            passed += small[0] == 0
        assert passed >= test_sweep.EXAMPLES // 3


class TestExpm1Window:
    """A closed-form integral takes expm1 at the samples where |s t| <
    EXPM1_LIMIT, s a sum of two roots; a block is scanned for them only
    when its first sample can be one.  The bytes do not depend on where
    the blocks fall against the end of that window."""

    # two live modes of the unit model (c = -1 for instability): the
    # windows of mode 1's root sums end between t = 0.16 and t = 1.1, inside
    # blocks of every size up to the whole grid of 1,025 samples, and those
    # of mode 2 by t = 0.07, so that blocks past mode 2's windows but not
    # past mode 1's are scanned
    MODES = INTERVAL + ["mode_count = 4", "initial_u = 1, 0.5", "t_end = 4.096", "dt = 0.004"]
    LINES = {"simulate": UNIT + MODES, "instability": UNSTABLE + MODES, "backward": UNIT + MODES}

    @staticmethod
    def windows(monkeypatch):
        """Record, for every window the kernel asks for, its block's size,
        the last sample of the window in it (None if empty), and whether
        the block skipped the scan."""
        seen = []
        window = propagator._window

        def recorded(size, t):
            i, k = window(size, t)
            skipped = bool(size.size and np.min(size) * t[0] >= propagator.EXPM1_LIMIT)
            seen.append((t.size, int(np.max(k)) if len(k) else None, skipped))
            return i, k

        monkeypatch.setattr(propagator, "_window", recorded)
        return seen

    @pytest.mark.parametrize("subcommand", ["simulate", "instability", "backward"])
    def test_budgets_from_2_6_to_2_14(self, tmp_path, monkeypatch, subcommand):
        lines = self.LINES[subcommand]
        whole = run(tmp_path, subcommand, lines, ONE_BLOCK, monkeypatch)
        assert whole[0] == 0
        for power in range(6, 15):
            seen = self.windows(monkeypatch)
            blocked = run(tmp_path, subcommand, lines, 2**power, monkeypatch)
            assert blocked[:2] == whole[:2], power
            # 2 x 1,024 mode-samples and a one-sample tail, which joins the block before it
            assert blocked[2]["time_blocks"] == max(2048 >> power, 1)
            assert any(last is not None and last < size - 1 for size, last, _ in seen)
            # past the windows, blocks skip the scan
            assert any(skipped for *_, skipped in seen) == (power < 11)

    @pytest.mark.parametrize("subcommand", ["simulate", "backward"])
    def test_zero_live_modes(self, tmp_path, monkeypatch, subcommand):
        """No live mode: every stack the kernel scans is empty, in each of
        the two blocks of a grid longer than BLOCK_SAMPLES_MAX."""
        lines = UNIT + INTERVAL + ["mode_count = 4", "initial = zero", "t_end = 0.2", "dt = 1e-5"]
        small = run(tmp_path, subcommand, lines, 2**6, monkeypatch)
        whole = run(tmp_path / "whole", subcommand, lines, ONE_BLOCK, monkeypatch)
        assert small[:2] == whole[:2] and small[0] == 0
        assert small[2] == {"modes": 4, "live_modes": 0, "samples": 20001, "time_blocks": 2}


class TestRestModes:
    """Modes whose initial data are zero are never evolved or summed, so
    appending them changes no CSV byte: every mode sum runs over the same
    live rows in the same order."""

    LIVE = [
        "initial_u = " + ",".join(repr(1.0 / n**2) for n in range(1, 13)),
        "initial_theta = 0.5",
    ]
    CONFIGS = {
        "simulate": UNIT + ["t_end = 1", "dt = 1e-3"],
        "instability": UNSTABLE + ["t_end = 1", "dt = 1e-3"],
        "backward": UNIT + ["t_end = 0.01", "dt = 1e-4"],
    }

    @pytest.mark.parametrize("subcommand", ["simulate", "instability", "backward"])
    def test_csv_bytes_do_not_depend_on_the_mode_count(self, tmp_path, monkeypatch, subcommand):
        block = propagator.BLOCK_MODE_SAMPLES
        runs = [
            run(tmp_path / str(modes), subcommand,
                self.CONFIGS[subcommand] + INTERVAL + [f"mode_count = {modes}"] + self.LIVE,
                block, monkeypatch)
            for modes in (12, 64)
        ]
        assert runs[0][0] == runs[1][0] == 0
        assert runs[0][1] == runs[1][1]
        assert runs[0][2]["live_modes"] == runs[1][2]["live_modes"] == 12
        assert runs[0][2]["time_blocks"] == runs[1][2]["time_blocks"]

    def test_evolve_scatters_the_live_rows(self, unit_params, pi_interval):
        """`evolve` keeps the (modes, 3, samples) layout: rest rows are
        exactly 0, and the live ones are those of a run without the rest."""
        data = {"u": [1.0, 0.0, 0.5], "theta": [0.0, 0.0, 0.0, 0.25]}
        times = 1e-2 * np.arange(101)
        wide = evolve(unit_params, *initial(pi_interval, 8, **data), times)
        narrow = evolve(unit_params, *initial(pi_interval, 4, **data), times)
        assert wide.x.shape == (8, 3, 101)
        assert not np.any(wide.x[[1, 4, 5, 6, 7]])
        assert np.array_equal(wide.x[:4], narrow.x)
        for name in propagator._COLUMNS:
            assert np.array_equal(getattr(wide, name), getattr(narrow, name)), name


class TestEvolveBlocks:
    DOUBLE_ROOT = ModelParams(rho=1.0, a=1.0, b=5.590169943749474, c=1.0, d=0.0, eta=3.0)

    def test_evolve_at_a_double_root(self, pi_interval, monkeypatch):
        """Mode 1 sits on the double root of the block cubic; blocks of the
        least size, 8 samples, give the bits of one block."""
        state = initial(pi_interval, 3, u=[1.0, 0.5, -0.2], v=[-0.5], theta=[0.25, 0.1])
        times = 1e-3 * np.arange(1025)
        monkeypatch.setattr(propagator, "BLOCK_MODE_SAMPLES", ONE_BLOCK)
        whole = evolve(self.DOUBLE_ROOT, *state, times)
        monkeypatch.setattr(propagator, "BLOCK_MODE_SAMPLES", 1)
        evolution = Evolution(self.DOUBLE_ROOT, *state, times)
        assert len(evolution.time_blocks) == 128
        blocked = evolve(self.DOUBLE_ROOT, *state, times)
        assert np.array_equal(blocked.x, whole.x)
        for name in propagator._COLUMNS:
            assert np.array_equal(getattr(blocked, name), getattr(whole, name)), name
        energies = evolution.history()
        assert not hasattr(energies, "x")
        assert np.array_equal(energies.dissipation_integral, whole.dissipation_integral)


class TestSetupRunsOnce:
    """The per-mode setup (the roots of every live mode's cubic, in one
    `mode_spectra` call) runs once per run, not once per block."""

    # backward in time, mode 8's heat grows like e^{4160 t}: `backward`
    # takes a shorter horizon on as many samples
    LINES = {
        "simulate": UNIT + EIGHT_MODES + ["t_end = 2.048", "dt = 0.001"],
        "instability": UNSTABLE + EIGHT_MODES + ["t_end = 2.048", "dt = 0.001"],
        "backward": UNIT + EIGHT_MODES + ["t_end = 0.02048", "dt = 1e-5"],
    }

    @pytest.mark.parametrize("subcommand", ["simulate", "instability", "backward"])
    def test_one_root_solve_per_run(self, tmp_path, monkeypatch, subcommand):
        calls = []
        solve = spectrum.mode_spectra

        def counted(params, lams):
            calls.append(len(lams))
            return solve(params, lams)

        monkeypatch.setattr(spectrum, "mode_spectra", counted)
        lines = self.LINES[subcommand]
        code, _, sizes = run(tmp_path, subcommand, lines, budget(subcommand, lines, 64), monkeypatch)
        assert code == 0
        assert sizes["samples"] == 2049 and sizes["time_blocks"] == 32
        assert calls == [sizes["live_modes"]]


class TestMemory:
    """From 2e4 to 2e5 samples at 64 modes, the in-process peak of a handler
    grows by what its 1-D per-sample columns need, not by a (modes x
    samples) array: at most BYTES_PER_SAMPLE, sixteen float64 columns.  A
    (64, 3, samples) float array alone is 1,536 bytes per sample.
    `backward` keeps sixteen columns too: t, the six energy columns, the
    coupling sums, L2, L, the two centered differences, the cross term,
    dL2/dt, and the energy balance's errors and residuals; it may hold four
    temporaries of its checks on top.  Modes at rest cost at most
    BYTES_PER_REST_MODE each, as the config's per-mode records do.  A live
    mode costs at most BYTES_PER_LIVE_MODE at the peak of the kernel's
    per-mode setup, which a time block of the least size does not pass."""

    BYTES_PER_SAMPLE = {"simulate": 16 * 8, "instability": 16 * 8, "backward": (16 + 4) * 8}
    BYTES_PER_REST_MODE = 1024
    BYTES_PER_LIVE_MODE = 1536

    def peak(self, tmp_path, subcommand, dt, modes=64):
        model = UNSTABLE if subcommand == "instability" else UNIT
        path = tmp_path / f"{subcommand}-{dt}-{modes}.cfg"
        path.write_text("\n".join(model + INTERVAL + [
            f"mode_count = {modes}", "t_end = 2", f"dt = {dt}", "initial = first-mode-bend",
        ]) + "\n", encoding="utf-8")
        cfg = load_config(str(path), subcommand)
        tracemalloc.start()
        try:
            cli.HANDLERS[subcommand](cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("subcommand", ["simulate", "instability", "backward"])
    def test_peak_grows_by_the_columns_only(self, tmp_path, subcommand):
        growth = self.peak(tmp_path, subcommand, "1e-5") - self.peak(tmp_path, subcommand, "1e-4")
        assert growth <= self.BYTES_PER_SAMPLE[subcommand] * (200_001 - 20_001)

    @pytest.mark.parametrize("subcommand", ["simulate", "instability", "backward"])
    def test_peak_does_not_grow_with_rest_modes(self, tmp_path, subcommand):
        growth = self.peak(tmp_path, subcommand, "1e-4", 4096) - self.peak(tmp_path, subcommand, "1e-4")
        assert growth <= self.BYTES_PER_REST_MODE * (4096 - 64)

    def test_wide_simulate_peak_is_bounded_by_the_budgets(self, tmp_path):
        """8,192 live modes x 65 samples: the blocks have 8 samples, so the
        run's peak is that of the per-mode setup (12.6 MB by the bound).
        Blocks of 16 samples peaked at 18.2 MB, and blocks of at least 64
        held the whole grid in one block and peaked at 55.9 MB."""
        live = 8192
        path = tmp_path / "wide.cfg"
        path.write_text("\n".join(UNIT + INTERVAL + [
            f"mode_count = {live}", "t_end = 0.064", "dt = 0.001",
            "initial_u = " + ",".join(repr(1.0 / n**2) for n in range(1, live + 1)),
        ]) + "\n", encoding="utf-8")
        cfg = load_config(str(path), "simulate")
        tracemalloc.start()
        try:
            output = cli.HANDLERS["simulate"](cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.BYTES_PER_LIVE_MODE * live
        assert output.sizes == {"modes": live, "live_modes": live, "samples": 65, "time_blocks": 8}
        assert all(check.passed for check in output.checks)
