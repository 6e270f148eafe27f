"""Config-space sweeps: subcommands on configs the parser accepts, small sizes.

Every drawn config must exit 0 (all checks pass), exit 4 when an
unstable (c < 0) `simulate` or `instability` run overflows, or exit 2 when
a `nondiff` n_max is too small for its gap tolerance or `instability`
data lie outside the instability theorem's hypotheses.  A config a sweep finds failing
is a program bug: it gets a fix and a named regression test, never a wider
gate.

The configs come from fixed `random.Random` seeds, so each sweep runs the
same configs whatever the package's source holds.  Sizes stay at or below
16 modes, 200 omega or lambda points or nondiff terms and 2,001 samples.
"""

import math
import random

from gradiplate.cli import main
from gradiplate.model import Interval, ModelParams, enumerate_modes
from gradiplate.quasistatic import effective_capacity

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


def nondiff_config(rng):
    """A stable model with d > 0 and eta != 0, as the parser needs."""
    while True:
        lines = model_lines(rng, log_uniform(rng, 0.1, 10.0))
        d, eta = (float(line.split(" = ")[1]) for line in (lines[4], lines[5]))
        if d > 0 and eta != 0:
            break
    return lines + domain_lines(rng) + [
        f"mode_count = {rng.randint(1, 16)}",
        f"n_max = {rng.randint(10, 200)}",
    ]


def run(work, subcommand, lines):
    """Exit code of `subcommand` on the config `lines`, run in `work`."""
    work.mkdir()
    config = work / "run.cfg"
    config.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return main([subcommand, "--config", str(config), "--out", str(work / "o")])


def failure(code, lines, work):
    manifest = work / "o" / "manifest.txt"
    return code, lines, manifest.read_text(encoding="utf-8") if manifest.exists() else None


def sweep(tmp_path, subcommand, configs):
    """Run `subcommand` on each (lines, allowed exit codes); returns the
    runs that exit otherwise."""
    failures = []
    for n, (lines, exits) in enumerate(configs):
        code = run(tmp_path / str(n), subcommand, lines)
        if code not in exits:
            failures.append(failure(code, lines, tmp_path / str(n)))
    return failures


def test_simulate_passes_its_checks(tmp_path):
    rng = random.Random(SEED)
    draws = [simulate_config(rng) for _ in range(EXAMPLES)]
    failures = sweep(tmp_path, "simulate", [(lines, (0, 4) if c < 0 else (0,)) for lines, c in draws])
    assert not failures, failures


def test_simulate_reports_the_terms_e_sums(tmp_path):
    """Draw 41 (c < 0, eta = 0) grows terms near 1e268 while E stays
    near E(0): the E column is their roundoff, and `result.energy_norm_max`
    says so by sitting more than 1e15 times above max |E|."""
    rng = random.Random(SEED)
    lines, c = [simulate_config(rng) for _ in range(42)][41]
    assert c < 0
    assert run(tmp_path / "41", "simulate", lines) == 0
    out = tmp_path / "41" / "o"
    manifest = dict(line.split(" = ", 1) for line in (out / "manifest.txt").read_text().splitlines())
    rows = (out / "simulate.csv").read_text().splitlines()[1:]
    e_max = max(abs(float(row.split(",")[1])) for row in rows)
    assert float(manifest["result.energy_norm_max"]) / e_max > 1e15


def test_backward_reports_the_terms_l_sums(tmp_path):
    """Draw 47 of the seed SEED + 6 (c < 0, eta = 0), run backward, grows
    terms near 1e164 while L1, L2 and L stay below 1e149: those columns,
    and k_star = 0, are roundoff, and `result.energy_norm_max` says so by
    sitting more than 1e15 times above their largest magnitude."""
    rng = random.Random(SEED + 6)
    lines, c = [simulate_config(rng) for _ in range(48)][47]
    assert c < 0
    assert run(tmp_path / "47", "backward", lines) == 0
    out = tmp_path / "47" / "o"
    manifest = dict(line.split(" = ", 1) for line in (out / "manifest.txt").read_text().splitlines())
    rows = (out / "backward.csv").read_text().splitlines()[1:]
    l_max = max(abs(float(value)) for row in rows for value in row.split(",")[1:4])
    assert float(manifest["result.energy_norm_max"]) / l_max > 1e15


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


def test_quasistatic_schwarz_bound_is_an_equality(tmp_path):
    """Draw 95 read schwarz_bound 1.0000000000000002 when rate1 and the
    decay of mode 1 rounded b lam + d lam^2 two ways; both are
    heat_weight(lam_1) / a_eff now."""
    rng = random.Random(SEED + 4)
    lines = [quasistatic_config(rng) for _ in range(96)][95]
    assert run(tmp_path / "95", "quasistatic", lines) == 0
    manifest = dict(
        line.split(" = ", 1) for line in (tmp_path / "95" / "o" / "manifest.txt").read_text().splitlines()
    )
    assert float(manifest["check.schwarz_bound.value"]) == 1.0
    params = ModelParams(*(float(line.split(" = ")[1]) for line in lines[:6]))
    (lam1,) = enumerate_modes(Interval(float(lines[6].split(" = ")[1])), 1).tolist()
    assert float(manifest["result.rate1"]) == params.heat_weight(lam1) / effective_capacity(params)


def test_nondiff_passes_or_refuses_an_unreachable_gap(tmp_path):
    """Exit 2 is the refusal of an n_max whose closed-form gap is above
    gap_tolerance; no config may fail a check, and most must pass."""
    rng = random.Random(SEED + 5)
    passed, failures = 0, []
    for n in range(100):
        lines = nondiff_config(rng)
        code = run(tmp_path / str(n), "nondiff", lines)
        passed += code == 0
        if code not in (0, 2):
            failures.append(failure(code, lines, tmp_path / str(n)))
    assert not failures, failures
    assert passed >= 50


def test_instability_passes_refuses_or_overflows(tmp_path):
    """The simulate configs with c forced negative.  Exit 2 refuses data
    outside the theorem's hypotheses (E(0) > 0, or Fdot(0) > 2 nu out of
    reach), exit 4 an overflow of the trajectory or of F F''; no config
    may fail a check, and most must pass."""
    rng = random.Random(SEED + 7)
    passed, failures = 0, []
    for n in range(EXAMPLES):
        lines, c = simulate_config(rng)
        lines = [f"c = {-abs(c)!r}" if line.startswith("c = ") else line for line in lines]
        code = run(tmp_path / str(n), "instability", lines)
        passed += code == 0
        if code not in (0, 2, 4):
            failures.append(failure(code, lines, tmp_path / str(n)))
    assert not failures, failures
    assert passed >= 60
