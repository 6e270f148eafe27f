"""Self-tests of the benchmark.

Run from the root of the repository:

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run
import workloads
from gradiplate.config import load_config

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_workload_config_parses(tmp_path, name, seed):
    for inv in workloads.build(name, seed):
        path = tmp_path / f"{inv.subcommand}.cfg"
        path.write_text(inv.config_text(), encoding="utf-8")
        assert load_config(str(path), inv.subcommand).subcommand == inv.subcommand


@pytest.mark.parametrize("name", workloads.NAMES)
def test_seed_changes_values_not_configs(name):
    first, again, other = (workloads.build(name, s) for s in (5, 5, 6))
    assert first == again
    assert first != other
    for a, b in zip(first, other):
        assert a.subcommand == b.subcommand
        assert [line.split(" = ")[0] for line in a.config] == [
            line.split(" = ")[0] for line in b.config
        ]


def test_self_time_on_synthetic_span_tree():
    # dyadic times, so every sum below is exact
    spans = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["config.load_config", 1.0, 2.0, 0, None],
        ["cli.handler", 3.0, 9.0, 0, None],
        ["propagator.evolve", 3.5, 6.0, 2, {"mode_samples": 100}],
        ["model.enumerate_modes", 4.0, 4.5, 3, {"modes_built": 8}],
        ["model.enumerate_modes", 7.0, 7.25, 2, {"modes_built": 4}],
        ["functionals.lyapunov_series", 8.0, 8.75, 2, None],
        ["functionals.lyapunov_series", 8.25, 8.5, 6, None],
    ]
    totals = run.span_totals(spans)
    assert totals["cli.main.self_s"] == 10.0 - 1.0 - 6.0
    assert totals["cli.handler.self_s"] == 6.0 - 2.5 - 0.25 - 0.75
    assert totals["propagator.evolve.self_s"] == 2.5 - 0.5
    assert totals["propagator.evolve.busy_s"] == 2.5
    assert totals["model.enumerate_modes.calls"] == 2
    assert totals["model.enumerate_modes.busy_s"] == 0.75
    assert totals["model.enumerate_modes.modes_built"] == 12
    # a span nested in one of its own name is busy time once, not twice
    assert totals["functionals.lyapunov_series.busy_s"] == 0.75
    assert totals["functionals.lyapunov_series.self_s"] == 0.75
    assert totals["functionals.lyapunov_series.calls"] == 2

    metrics = run.layer_metrics(totals)
    assert metrics["propagator.evolve.ns_per_mode_sample"] == 1e9 * 2.5 / 100
    assert metrics["propagator.evolve.array_mb"] == 24 * 100 / 1e6
    assert metrics["resolvent.scan_imaginary_axis.busy_s"] == 0.0


def test_covered_length_merges_overlapping_children():
    assert run.covered_length([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)], 0.0, 6.5) == 3.5
    assert run.covered_length([], 0.0, 1.0) == 0.0


def test_tail_keeps_ten_samples_beyond():
    values = [float(v) for v in range(30)]
    assert run.tail(values) == (19.0, 100.0 * 20 / 30)
    assert run.tail(values[:11]) == (0.0, 100.0 * 1 / 11)
    # too few samples for any percentile with ten beyond it: the slowest
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_norm_wall_rescales_by_the_mean_reference():
    p = run.Pass(wall=3.0, references=[0.2, 0.6])
    assert p.norm_wall == pytest.approx(3.0 * run.REFERENCE_S / 0.4)


def test_repeat_within_stops_before_a_step_would_overrun(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(run.time, "perf_counter", lambda: clock[0])
    steps = []

    def step():
        steps.append(clock[0])
        clock[0] += 3.0

    run.repeat_within(10.0, step)
    assert steps == [0.0, 3.0, 6.0]  # a fourth would end at 12
    steps.clear()
    run.repeat_within(1.0, step)
    assert len(steps) == 1  # one step even past the deadline


def test_metric_names_and_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == list(workloads.WHY.items())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.fullmatch(name), name


def test_end_to_end_run_prints_contract_line():
    out = bench("--workload", "cold-start", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = last_json(out.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (7, 0)
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_counts_repeat_exactly_across_two_traced_runs():
    results = []
    for _ in range(2):
        out = bench("--workload", "cold-start", "--seed", "3", "--seconds", "1", "--trace", "1")
        assert out.returncode == 0, out.stderr
        results.append(last_json(out.stdout))
    for result in results:
        assert result["correct"] is True
        assert [k for k in result["metrics"]] == [name for name, _ in run.PER_LAYER]
    first, second = ({n: r["metrics"][n]["value"] for n in sorted(run.EXACT)} for r in results)
    assert first == second
    assert first["functionals.lyapunov_series.calls"] == 3
    assert first["resolvent.nondiff_sequence.calls"] == 2 * 30


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = bench("--workload", "cold-start", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
