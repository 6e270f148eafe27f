"""Config-space sweeps: subcommands on configs the parser accepts, small sizes.

Every drawn config must exit 0 (all checks pass), or exit 4 when an
unstable (c < 0) `simulate` run overflows.  A config a sweep finds failing
is a program bug: it gets a fix and a named regression test, never a wider
gate.

The configs come from fixed `random.Random` seeds, so each sweep runs the
same configs whatever the package's source holds.  Sizes stay at or below
16 modes, 200 omega or lambda points and 2,001 samples.
"""

import math
import random

from gradiplate.cli import main

SEED = 20240917
EXAMPLES = 150
PRESETS = ("first-mode-bend", "thermal-pulse", "first-mode-bend+thermal-pulse")


def log_uniform(rng, lo, hi):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def model_lines(rng, c):
    return [
        f"rho = {log_uniform(rng, 0.1, 10.0)!r}",
        f"a = {log_uniform(rng, 0.1, 10.0)!r}",
        f"b = {log_uniform(rng, 0.1, 10.0)!r}",
        f"c = {c!r}",
        f"d = {rng.choice((0.0, log_uniform(rng, 0.01, 10.0)))!r}",
        f"eta = {rng.choice((0.0, rng.uniform(-10.0, 10.0)))!r}",
    ]


def domain_lines(rng):
    if rng.random() < 0.5:
        return ["domain = interval", f"length = {log_uniform(rng, 0.3, 5.0)!r}"]
    return [
        "domain = rectangle",
        f"length1 = {log_uniform(rng, 0.3, 5.0)!r}",
        f"length2 = {log_uniform(rng, 0.3, 5.0)!r}",
    ]


def simulate_config(rng):
    """One config as (lines, c)."""
    modes = rng.randint(1, 16)
    dt = log_uniform(rng, 1e-4, 0.5)
    c = rng.choice((1.0, -1.0)) * log_uniform(rng, 0.1, 10.0)
    lines = model_lines(rng, c) + [
        f"mode_count = {modes}",
        f"dt = {dt!r}",
        f"t_end = {dt * rng.randint(2, 2000)!r}",
    ]
    lines += domain_lines(rng)
    if rng.random() < 0.5:
        lines.append(f"initial = {rng.choice(PRESETS)}")
    else:
        for key in ("initial_u", "initial_v", "initial_theta"):
            values = [rng.uniform(-2.0, 2.0) for _ in range(rng.randint(1, modes))]
            lines.append(f"{key} = {','.join(repr(v) for v in values)}")
    return lines, c


def resolvent_scan_config(rng, grid):
    """A stable model (c > 0) scanned on a `grid` (log or linear) omega grid."""
    lines = model_lines(rng, log_uniform(rng, 0.1, 10.0)) + domain_lines(rng)
    omega_min = log_uniform(rng, 0.01, 10.0)
    return lines + [
        f"mode_count = {rng.randint(1, 16)}",
        f"omega_min = {omega_min!r}",
        f"omega_max = {omega_min * log_uniform(rng, 1.5, 1e4)!r}",
        f"omega_points = {rng.randint(1, 200)}",
        f"omega_grid = {grid}",
    ]


def spectrum_config(rng):
    c = rng.choice((1.0, -1.0)) * log_uniform(rng, 0.1, 10.0)
    lines = model_lines(rng, c) + domain_lines(rng)
    lambda_min = log_uniform(rng, 0.01, 10.0)
    return lines + [
        f"mode_count = {rng.randint(1, 16)}",
        f"lambda_min = {lambda_min!r}",
        f"lambda_max = {lambda_min * log_uniform(rng, 2.0, 1e8)!r}",
        f"lambda_points = {rng.randint(2, 200)}",
    ]


def quasistatic_config(rng):
    """c < 0 with a positive effective capacity a + eta^2/c, as the parser needs."""
    while True:
        lines = model_lines(rng, -log_uniform(rng, 0.1, 10.0))
        a, c, eta = (float(line.split(" = ")[1]) for line in (lines[1], lines[3], lines[5]))
        if a + eta**2 / c > 0:
            break
    dt = log_uniform(rng, 1e-4, 0.1)
    theta = [rng.uniform(-2.0, 2.0) for _ in range(rng.randint(1, 16))]
    return lines + [
        f"length = {log_uniform(rng, 0.3, 5.0)!r}",
        f"dt = {dt!r}",
        f"t_end = {dt * rng.randint(1, 2000)!r}",
        f"initial_theta = {','.join(repr(v) for v in theta)}",
    ]


def sweep(tmp_path, subcommand, configs):
    """Run `subcommand` on each (lines, allowed exit codes); returns the
    runs that exit otherwise."""
    failures = []
    for n, (lines, exits) in enumerate(configs):
        work = tmp_path / str(n)
        work.mkdir()
        config = work / "run.cfg"
        config.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main([subcommand, "--config", str(config), "--out", str(work / "o")])
        if code not in exits:
            manifest = work / "o" / "manifest.txt"
            failures.append((code, lines, manifest.read_text(encoding="utf-8") if manifest.exists() else None))
    return failures


def test_simulate_passes_its_checks(tmp_path):
    rng = random.Random(SEED)
    draws = [simulate_config(rng) for _ in range(EXAMPLES)]
    failures = sweep(tmp_path, "simulate", [(lines, (0, 4) if c < 0 else (0,)) for lines, c in draws])
    assert not failures, failures


def test_resolvent_scan_on_log_grids(tmp_path):
    rng = random.Random(SEED + 1)
    failures = sweep(tmp_path, "resolvent-scan", [(resolvent_scan_config(rng, "log"), (0,)) for _ in range(100)])
    assert not failures, failures


def test_resolvent_scan_on_linear_grids(tmp_path):
    rng = random.Random(SEED + 2)
    failures = sweep(tmp_path, "resolvent-scan", [(resolvent_scan_config(rng, "linear"), (0,)) for _ in range(100)])
    assert not failures, failures


def test_spectrum_passes_its_checks(tmp_path):
    rng = random.Random(SEED + 3)
    failures = sweep(tmp_path, "spectrum", [(spectrum_config(rng), (0,)) for _ in range(100)])
    assert not failures, failures


def test_quasistatic_passes_its_checks(tmp_path):
    rng = random.Random(SEED + 4)
    failures = sweep(tmp_path, "quasistatic", [(quasistatic_config(rng), (0,)) for _ in range(100)])
    assert not failures, failures
