#!/usr/bin/env python3
"""gradiplate benchmark: each CLI invocation is a fresh process.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in workloads.py, or `all` to run every one in
turn.  The load is a closed loop with one client.  A pass runs every
invocation of the workload once, one after another, each as
`python -m gradiplate.cli ...` with `src` on PYTHONPATH.  Passes repeat
while another pass as long as the last one still ends within S seconds of
the start (at least one pass).  Every invocation is checked: exit code,
every `check.*.pass` line of its manifest, and its CSV bytes against the
first pass of the run.

--trace 0 prints the end-to-end metrics.  There, each invocation is
followed by one run of reference.py, a fixed job that runs no gradiplate
code, and a pass's wall time is rescaled by how long its reference jobs
took, and the set-up time likewise: the host this runs on speeds up and
slows down by a third over minutes, and the rescaled times do not.  --trace 1 alternates an untraced
pass with a traced one, where each invocation runs under tracer.py, and
prints the per-layer metrics.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 4
# seconds the reference job takes on a quiet host (a 2-core Xeon); a pass's
# wall time is rescaled to a host on which the reference job takes this long
REFERENCE_S = 0.4
TAIL_BEYOND = 10
EXIT_CHECK = 3
MB = 1e6

END_TO_END = (
    ("norm_wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "1"),
)

# span names reported by summed span time, by call count, and by self time
BUSY = (
    "config.load_config",
    "propagator.evolve",
    "propagator.energy_balance_report",
    "propagator.energy_of",
    "quadrature.cumulative_integral",
    "functionals.convexity_trajectory",
    "functionals.verify_backward_identities",
    "functionals.gronwall_check",
    "functionals.lyapunov_series",
    "resolvent.scan_imaginary_axis",
    "resolvent.resolvent_norm",
    "resolvent.nondiff_sequence",
    "resolvent.nondiff_limit_check",
    "spectrum.mode_eigenvalues",
    "spectrum.spectral_abscissa",
    "quasistatic.quasi_decay_report",
)
CALLS = (
    "propagator.evolve",
    "quadrature.cumulative_integral",
    "functionals.lyapunov_series",
    "resolvent.nondiff_sequence",
    "model.enumerate_modes",
    "spectrum.mode_eigenvalues",
)
SELF = ("cli.main", "cli.handler")
# work sizes the tracer records from call arguments
SIZES = (
    "propagator.evolve.mode_samples",
    "resolvent.scan_imaginary_axis.blocks",
    "model.enumerate_modes.modes_built",
)

SPAN_METRICS = (
    tuple(f"{name}.busy_s" for name in BUSY)
    + tuple(f"{name}.self_s" for name in SELF)
    + tuple(f"{name}.calls" for name in CALLS)
    + SIZES
)

PER_LAYER = (
    (("import.gradiplate_cli_s", "s"), ("import.scipy_s", "s"))
    + tuple((name, "s" if name.endswith("_s") else "count") for name in SPAN_METRICS)
    + (
        ("propagator.evolve.ns_per_mode_sample", "ns"),
        ("propagator.evolve.array_mb", "MB"),
        ("resolvent.scan_imaginary_axis.array_mb", "MB"),
        ("cli.csv_bytes", "bytes"),
    )
    + tuple((f"cli.{sub}.wall_s", "s") for sub in workloads.SUBCOMMANDS)
    + (("trace.overhead_frac", "1"),)
)
# metrics that must read the same on every traced pass and every run
EXACT = {name for name, unit in PER_LAYER if unit in ("count", "bytes", "MB")}


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def covered_length(intervals, start: float, end: float) -> float:
    """Length of [start, end] covered by the union of `intervals`."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def span_totals(spans) -> dict[str, float]:
    """Per span name: calls, busy_s, self_s and recorded sizes, summed.

    A span is [name, start, end, parent index or -1, sizes or None].
    busy_s sums the spans not nested in a span of the same name; self_s is
    each span's duration minus the part its child spans cover.
    """
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    totals: dict[str, float] = defaultdict(float)
    for index, (name, start, end, parent, sizes) in enumerate(spans):
        totals[f"{name}.calls"] += 1
        inner = [(spans[c][1], spans[c][2]) for c in children[index]]
        totals[f"{name}.self_s"] += (end - start) - covered_length(inner, start, end)
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            totals[f"{name}.busy_s"] += end - start
        for key, value in (sizes or {}).items():
            totals[f"{name}.{key}"] += value
    return totals


def layer_metrics(totals: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics that come from one traced pass's span totals."""
    out = {name: float(totals.get(name, 0.0)) for name in SPAN_METRICS}
    mode_samples = out["propagator.evolve.mode_samples"]
    evolve_s = out["propagator.evolve.busy_s"]
    out["propagator.evolve.ns_per_mode_sample"] = 1e9 * evolve_s / mode_samples if mode_samples else 0.0
    # float64 (u, v, theta) per mode and sample; complex 3x3 per omega and mode
    out["propagator.evolve.array_mb"] = 24 * mode_samples / MB
    out["resolvent.scan_imaginary_axis.array_mb"] = (
        144 * out["resolvent.scan_imaginary_axis.blocks"] / MB
    )
    return out


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

@dataclass
class ChildResult:
    wall: float
    exit_code: int
    maxrss_kib: int


def spawn(argv, env, cwd: Path, log: Path) -> ChildResult:
    """Run one child to completion; wall time and rusage from os.wait4."""
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=sink, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(wall, proc.returncode, usage.ru_maxrss)


def read_manifest(path: Path) -> dict[str, str]:
    entries = {}
    if path.is_file():
        for line in path.read_text(encoding="utf-8").splitlines():
            key, sep, value = line.partition(" = ")
            if sep:
                entries[key] = value
    return entries


@dataclass
class Pass:
    wall: float = 0.0
    references: list[float] = field(default_factory=list)
    peak_kib: int = 0
    walls: dict[str, float] = field(default_factory=dict)
    totals: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    imports: list[dict[str, float]] = field(default_factory=list)
    csv_bytes: int = 0

    @property
    def norm_wall(self) -> float:
        """Wall time rescaled by the reference jobs run during the pass."""
        return self.wall * REFERENCE_S / statistics.fmean(self.references)


class Bench:
    """Runs passes of one workload and checks every invocation's output."""

    def __init__(self, invocations: tuple[workloads.Invocation, ...], work: Path):
        self.invocations = invocations
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.configs = []
        for index, inv in enumerate(invocations):
            path = work / f"{index}-{inv.subcommand}.cfg"
            path.write_text(inv.config_text(), encoding="utf-8")
            self.configs.append(path)
        self.reference: dict[int, bytes] = {}
        self.last_reference_s: float | None = None
        self.attempted = 0
        self.failed = 0
        self.known_failures = 0
        self.problems: list[str] = []

    def import_once(self) -> float:
        argv = [sys.executable, "-c", "import gradiplate.cli"]
        result = spawn(argv, self.env, self.work, self.work / "import.log")
        if result.exit_code != 0:
            raise RuntimeError(f"import gradiplate.cli failed: {(self.work / 'import.log').read_text()}")
        return result.wall

    def reference_once(self) -> float:
        argv = [sys.executable, str(BENCH_DIR / "reference.py")]
        result = spawn(argv, os.environ, self.work, self.work / "reference.log")
        if result.exit_code != 0:
            raise RuntimeError(f"reference job failed: {(self.work / 'reference.log').read_text()}")
        self.last_reference_s = result.wall
        return result.wall

    def run_pass(self, traced: bool, reference: bool = False) -> Pass:
        record = Pass()
        if reference and self.last_reference_s is not None:
            # the reference job just before the pass brackets its first invocation
            record.references.append(self.last_reference_s)
        for index, inv in enumerate(self.invocations):
            out = self.work / f"out-{index}"
            shutil.rmtree(out, ignore_errors=True)
            cli_args = [inv.subcommand, "--config", str(self.configs[index]), "--out", str(out)]
            spans_path = self.work / f"spans-{index}.json"
            if traced:
                argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans_path)] + cli_args
            else:
                argv = [sys.executable, "-m", "gradiplate.cli"] + cli_args
            result = spawn(argv, self.env, self.work, self.work / f"log-{index}.txt")
            record.wall += result.wall
            record.walls[inv.subcommand] = result.wall
            record.peak_kib = max(record.peak_kib, result.maxrss_kib)
            record.csv_bytes += self._check(index, inv, result, out)
            if reference:
                record.references.append(self.reference_once())
            if traced:
                trace = json.loads(spans_path.read_text(encoding="utf-8"))
                record.imports.append(trace["imports"])
                for key, value in span_totals(trace["spans"]).items():
                    record.totals[key] += value
        return record

    def _check(self, index: int, inv: workloads.Invocation, result: ChildResult, out: Path) -> int:
        """Check one invocation's outputs; returns its CSV size in bytes."""
        manifest = read_manifest(out / "manifest.txt")
        failing = {
            key[len("check."):-len(".pass")]
            for key, value in manifest.items()
            if key.startswith("check.") and key.endswith(".pass") and value != "true"
        }
        csv_path = out / inv.csv_name
        csv = csv_path.read_bytes() if csv_path.is_file() else None
        problems = []
        if manifest.get("exit_code") != str(result.exit_code):
            problems.append(f"manifest exit_code {manifest.get('exit_code')} but process exited {result.exit_code}")
        if csv is None:
            problems.append("no CSV written")
        elif csv != self.reference.setdefault(index, csv):
            problems.append("CSV bytes differ from the first pass")
        known = bool(failing) and result.exit_code == EXIT_CHECK and failing == inv.known_failing_checks
        if (result.exit_code != 0 or failing) and not known:
            problems.append(f"exit code {result.exit_code}, failing checks {sorted(failing)}")
        self.attempted += 1
        self.failed += bool(problems) or known
        self.known_failures += known
        self.problems.extend(f"{index}-{inv.subcommand}: {p}" for p in problems)
        return len(csv or b"")

    def csv_digests(self) -> dict[str, str]:
        return {
            f"{index}-{self.invocations[index].subcommand}": hashlib.sha256(data).hexdigest()
            for index, data in sorted(self.reference.items())
        }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float]:
    """Highest nearest-rank percentile with TAIL_BEYOND samples beyond it.

    With fewer than TAIL_BEYOND + 1 samples no percentile has that many
    beyond it, and the slowest sample (the 100th percentile) is reported.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def repeat_within(deadline: float, step) -> None:
    """Run `step` once, then again while one more as long as the last ends by `deadline`."""
    while True:
        start = time.perf_counter()
        step()
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return


def end_to_end(bench: Bench, seconds: float) -> tuple[dict[str, float], dict]:
    deadline = time.perf_counter() + seconds
    setup, setup_references = [], []
    for _ in range(SETUP_REPEATS):
        setup.append(bench.import_once())
        setup_references.append(bench.reference_once())
    passes: list[Pass] = []
    repeat_within(deadline, lambda: passes.append(bench.run_pass(traced=False, reference=True)))
    walls = [p.wall for p in passes]
    norm_walls = [p.norm_wall for p in passes]
    tail_value, tail_pct = tail(norm_walls)
    metrics = {
        "norm_wall_s": statistics.median(norm_walls),
        "setup_s": statistics.median(setup) * REFERENCE_S / statistics.fmean(setup_references),
        "peak_rss_mb": statistics.median(p.peak_kib * 1024 / MB for p in passes),
        "ok_frac": 1.0 - bench.failed / bench.attempted,
    }
    notes = {
        "passes": len(passes),
        "wall_s": statistics.median(walls),
        "pass_walls_s": walls,
        "norm_pass_walls_s": norm_walls,
        "reference_walls_s": [p.references for p in passes],
        # a run holds too few passes for a percentile with TAIL_BEYOND passes
        # beyond it, so the tail is printed, not reported as a metric
        "norm_wall_tail_s": tail_value,
        "wall_tail_percentile": tail_pct,
        "setup_samples_s": setup,
        "setup_reference_walls_s": setup_references,
        "unscaled_setup_s": statistics.median(setup),
        "fail_frac": bench.failed / bench.attempted,
    }
    return metrics, notes


def per_layer(bench: Bench, seconds: float) -> tuple[dict[str, float], dict]:
    deadline = time.perf_counter() + seconds
    bench.import_once()  # untimed: warms caches before the first pass
    plain: list[Pass] = []
    traced: list[Pass] = []

    def step():
        plain.append(bench.run_pass(traced=False))
        traced.append(bench.run_pass(traced=True))

    repeat_within(deadline, step)
    per_pass = [dict(layer_metrics(p.totals), **{"cli.csv_bytes": float(p.csv_bytes)}) for p in traced]
    metrics = {}
    for name in per_pass[0]:
        samples = [values[name] for values in per_pass]
        if name in EXACT and len(set(samples)) > 1:
            bench.problems.append(f"{name} differs across traced passes: {samples}")
        metrics[name] = statistics.median(samples)
    imports = [entry for p in traced for entry in p.imports]
    metrics["import.gradiplate_cli_s"] = statistics.median(e["gradiplate_cli_s"] for e in imports)
    metrics["import.scipy_s"] = statistics.median(e["scipy_s"] for e in imports)
    for sub in workloads.SUBCOMMANDS:
        walls = [p.walls[sub] for p in plain if sub in p.walls]
        metrics[f"cli.{sub}.wall_s"] = statistics.median(walls) if walls else 0.0
    plain_wall = statistics.median(p.wall for p in plain)
    traced_wall = statistics.median(p.wall for p in traced)
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    notes = {
        "passes": len(plain),
        "plain_pass_walls_s": [p.wall for p in plain],
        "traced_pass_walls_s": [p.wall for p in traced],
    }
    return {name: metrics[name] for name, _ in PER_LAYER}, notes


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def machine_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    l3 = "unknown"
    for level_file in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/level")):
        try:
            if level_file.read_text().strip() == "3":
                l3 = (level_file.parent / "size").read_text().strip()
        except OSError:
            pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "l3_cache": l3,
        "python": platform.python_version(),
        **versions,
    }


def cpu_probe() -> float:
    """Seconds for a fixed pure-Python loop in the harness.

    The load average only sees this machine's own processes; on a shared
    host the probe shows how fast the CPU runs at the start and the end of
    a run, so runs slowed by the host can be told apart.
    """
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    return time.perf_counter() - start


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    invocations = workloads.build(name, seed)
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        record = {
            "machine": machine_record(),
            "load_start": os.getloadavg(),
            "cpu_probe_start_s": cpu_probe(),
        }
        bench = Bench(invocations, work)
        measure = per_layer if trace else end_to_end
        metrics, notes = measure(bench, seconds)
        record["load_end"] = os.getloadavg()
        record["cpu_probe_end_s"] = cpu_probe()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    units = dict(PER_LAYER if trace else END_TO_END)
    record.update(
        workload=name,
        seed=seed,
        scale_factor=workloads.scale_factor(seed),
        trace=int(trace),
        attempted=bench.attempted,
        failed=bench.failed,
        known_defect_failures=bench.known_failures,
        problems=bench.problems,
        csv_sha256=bench.csv_digests(),
        **notes,
    )
    print(f"== {name} (seed {seed}, trace {int(trace)}) ==")
    print("record: " + json.dumps(record, sort_keys=True))
    for metric, value in metrics.items():
        print(f"{metric:48s} {value:14.6g} {units[metric]}")
    if not trace:
        print(
            f"  norm_wall_s is the median of {notes['passes']} passes, each rescaled to a "
            f"{REFERENCE_S} s reference job (unscaled median wall_s = {notes['wall_s']:.6g} s); "
            f"their p{notes['wall_tail_percentile']:.4g} is {notes['norm_wall_tail_s']:.6g} s (with "
            f"fewer than {TAIL_BEYOND + 1} passes: the slowest); fail_frac = {bench.failed}/{bench.attempted} "
            f"({bench.known_failures} from the recorded wide-plate defect)"
        )
    for problem in bench.problems:
        print(f"  PROBLEM {problem}")
    return {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "gradiplate" / "cli.py").is_file():
        print(f"gradiplate sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if len(results) == 1:
        summary = results[args.workload]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
