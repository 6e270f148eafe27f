"""Config-space sweep: `simulate` on configs the parser accepts, small sizes.

Every drawn config must exit 0 (all checks pass), or exit 4 when an
unstable (c < 0) run overflows.  A config this sweep finds failing is a
program bug: it gets a fix and a named regression test, never a wider gate.

The configs come from a fixed `random.Random` seed, so the sweep runs the
same 150 configs whatever the package's source holds.
"""

import math
import random

from gradiplate.cli import main

SEED = 20240917
EXAMPLES = 150
PRESETS = ("first-mode-bend", "thermal-pulse", "first-mode-bend+thermal-pulse")


def log_uniform(rng, lo, hi):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def simulate_config(rng):
    """One config as (lines, c)."""
    modes = rng.randint(1, 16)
    dt = log_uniform(rng, 1e-4, 0.5)
    c = rng.choice((1.0, -1.0)) * log_uniform(rng, 0.1, 10.0)
    lines = [
        f"rho = {log_uniform(rng, 0.1, 10.0)!r}",
        f"a = {log_uniform(rng, 0.1, 10.0)!r}",
        f"b = {log_uniform(rng, 0.1, 10.0)!r}",
        f"c = {c!r}",
        f"d = {rng.choice((0.0, log_uniform(rng, 0.01, 10.0)))!r}",
        f"eta = {rng.choice((0.0, rng.uniform(-10.0, 10.0)))!r}",
        f"mode_count = {modes}",
        f"dt = {dt!r}",
        f"t_end = {dt * rng.randint(2, 2000)!r}",
    ]
    if rng.random() < 0.5:
        lines += ["domain = interval", f"length = {log_uniform(rng, 0.3, 5.0)!r}"]
    else:
        lines += [
            "domain = rectangle",
            f"length1 = {log_uniform(rng, 0.3, 5.0)!r}",
            f"length2 = {log_uniform(rng, 0.3, 5.0)!r}",
        ]
    if rng.random() < 0.5:
        lines.append(f"initial = {rng.choice(PRESETS)}")
    else:
        for key in ("initial_u", "initial_v", "initial_theta"):
            values = [rng.uniform(-2.0, 2.0) for _ in range(rng.randint(1, modes))]
            lines.append(f"{key} = {','.join(repr(v) for v in values)}")
    return lines, c


def test_simulate_passes_its_checks(tmp_path):
    rng = random.Random(SEED)
    failures = []
    for n in range(EXAMPLES):
        lines, c = simulate_config(rng)
        work = tmp_path / str(n)
        work.mkdir()
        config = work / "run.cfg"
        config.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["simulate", "--config", str(config), "--out", str(work / "o")])
        if not (code == 0 or (code == 4 and c < 0)):
            failures.append((code, lines, (work / "o" / "manifest.txt").read_text(encoding="utf-8")))
    assert not failures, failures
