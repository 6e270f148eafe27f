"""Time-blocked evolution: `simulate` and `instability` hold the states of one
time block at a time, and their output does not depend on the blocking.

Each check runs the CLI in-process twice, once with `BLOCK_MODE_SAMPLES` so
small that every block has the least number of samples and once so large
that the whole grid is one block, and compares the CSV bytes.
"""

import math
import random
import tracemalloc

import numpy as np
import pytest

import test_sweep
from gradiplate import ModelParams, cli, propagator
from gradiplate.config import load_config
from gradiplate.propagator import Evolution, evolve, state_from_coefficients, time_blocks

PI = "3.141592653589793"
ONE_BLOCK = 2**40
UNIT = ["rho = 1", "a = 1", "b = 1", "c = 1", "d = 1", "eta = 1"]
UNSTABLE = ["rho = 1", "a = 1", "b = 1", "c = -1", "d = 1", "eta = 1"]
INTERVAL_64 = ["domain = interval", f"length = {PI}", "mode_count = 64"]
# the time-domain bench invocations at a tenth of their horizon or less, on
# 1,025 samples: 16 blocks of the smallest size and a one-sample tail
REDUCED_TIME_DOMAIN = {
    "simulate": UNIT + INTERVAL_64 + [
        "t_end = 1.024", "dt = 0.001", "initial = first-mode-bend+thermal-pulse",
    ],
    "instability": UNSTABLE + INTERVAL_64 + [
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
    csv = work / "o" / ("simulate.csv" if subcommand == "simulate" else "instability.csv")
    manifest = work / "o" / "manifest.txt"
    sizes = {}
    if manifest.exists():
        for line in manifest.read_text(encoding="utf-8").splitlines():
            key, _, value = line.partition(" = ")
            if key.startswith("size."):
                sizes[key[5:]] = int(value)
    return code, csv.read_bytes() if csv.exists() else None, sizes


def assert_block_invariant(tmp_path, subcommand, lines, monkeypatch):
    small = run(tmp_path, subcommand, lines, 1, monkeypatch)
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
        monkeypatch.setattr(propagator, "BLOCK_MODE_SAMPLES", 1)
        blocks = time_blocks(64, 1025)
        assert [hi - lo for lo, hi in blocks] == [64] * 15 + [65]
        assert time_blocks(3, 1) == [(0, 1)]

    @pytest.mark.parametrize("subcommand", ["simulate", "instability"])
    def test_reduced_time_domain_configs(self, tmp_path, monkeypatch, subcommand):
        lines = REDUCED_TIME_DOMAIN[subcommand]
        small, whole = assert_block_invariant(tmp_path, subcommand, lines, monkeypatch)
        assert small[0] == 0
        live = 27 if subcommand == "simulate" else 1
        assert small[2] == {"modes": 64, "live_modes": live, "samples": 1025, "time_blocks": 16}
        assert whole[2]["time_blocks"] == 1

    def test_instability_with_every_mode_carrying_data(self, tmp_path, monkeypatch):
        lines = UNSTABLE + EIGHT_MODES + [
            "t_end = 0.2048", "dt = 0.0002", "initial_theta = 0.1,0.2,0.3",
        ]
        small, _ = assert_block_invariant(tmp_path, "instability", lines, monkeypatch)
        assert small[0] == 0
        assert small[2] == {"modes": 8, "live_modes": 8, "samples": 1025, "time_blocks": 16}

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


class TestEvolveBlocks:
    DOUBLE_ROOT = ModelParams(rho=1.0, a=1.0, b=5.590169943749474, c=1.0, d=0.0, eta=3.0)

    def test_evolve_through_the_expm_fallback(self, pi_interval, monkeypatch):
        """Mode 1 sits on the double root and takes the Van Loan fallback,
        whose state and running integral carry from block to block."""
        state = state_from_coefficients(pi_interval, 3, u=[1.0, 0.5, -0.2], v=[-0.5], theta=[0.25, 0.1])
        times = 1e-3 * np.arange(1025)
        monkeypatch.setattr(propagator, "BLOCK_MODE_SAMPLES", ONE_BLOCK)
        whole = evolve(self.DOUBLE_ROOT, state, times)
        monkeypatch.setattr(propagator, "BLOCK_MODE_SAMPLES", 1)
        evolution = Evolution(self.DOUBLE_ROOT, state, times)
        assert len(evolution.time_blocks) == 16
        blocked = evolution.trajectory()
        assert np.array_equal(blocked.x, whole.x)
        for name in propagator._COLUMNS:
            assert np.array_equal(getattr(blocked, name), getattr(whole, name)), name
        energies = evolution.trajectory(states=False)
        assert not hasattr(energies, "x")
        assert np.array_equal(energies.dissipation_integral, whole.dissipation_integral)


class TestSetupRunsOnce:
    """The per-mode setup (eig, cond, solve and the expm1 classification)
    runs once per mode group of the whole grid, not once per block."""

    LINES = EIGHT_MODES + ["t_end = 2.048", "dt = 0.001"]

    @pytest.mark.parametrize("subcommand, kernels", [("simulate", 1), ("instability", 1)])
    def test_eig_once_per_mode_group(self, tmp_path, monkeypatch, subcommand, kernels):
        calls = []
        eig = np.linalg.eig

        def counted(a):
            calls.append(a.shape[0])
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", counted)
        lines = (UNSTABLE if subcommand == "instability" else UNIT) + self.LINES
        code, _, sizes = run(tmp_path, subcommand, lines, 1, monkeypatch)
        assert code == 0
        assert sizes["samples"] == 2049 and sizes["time_blocks"] == 32
        step = max(1, propagator.CHUNK_SAMPLES // sizes["samples"])
        groups = math.ceil(sizes["live_modes"] / step)
        assert len(calls) == kernels * groups
        assert sum(calls) == kernels * sizes["live_modes"]


class TestMemory:
    """From 2e4 to 2e5 samples at 64 modes, the in-process peak of a handler
    grows by what its 1-D per-sample columns need, not by a (modes x
    samples) array: at most BYTES_PER_SAMPLE, sixteen float64 columns.  A
    (64, 3, samples) float array alone is 1,536 bytes per sample."""

    BYTES_PER_SAMPLE = 16 * 8

    def peak(self, tmp_path, subcommand, dt):
        model = UNSTABLE if subcommand == "instability" else UNIT
        path = tmp_path / f"{subcommand}-{dt}.cfg"
        path.write_text("\n".join(model + INTERVAL_64 + [
            "t_end = 2", f"dt = {dt}", "initial = first-mode-bend",
        ]) + "\n", encoding="utf-8")
        cfg = load_config(str(path), subcommand)
        tracemalloc.start()
        try:
            cli.HANDLERS[subcommand](cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("subcommand", ["simulate", "instability"])
    def test_peak_grows_by_the_columns_only(self, tmp_path, subcommand):
        growth = self.peak(tmp_path, subcommand, "1e-5") - self.peak(tmp_path, subcommand, "1e-4")
        assert growth <= self.BYTES_PER_SAMPLE * (200_001 - 20_001)
