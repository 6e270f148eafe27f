"""Config-space sweep: `simulate` on configs the parser accepts, small sizes.

Every drawn config must exit 0 (all checks pass), or exit 4 when an
unstable (c < 0) run overflows.  A config this sweep finds failing is a
program bug: it gets a fix and a named regression test, never a wider gate.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from gradiplate.cli import main

PRESETS = ("first-mode-bend", "thermal-pulse", "first-mode-bend+thermal-pulse")


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@st.composite
def simulate_configs(draw):
    modes = draw(st.integers(1, 16))
    dt = draw(log_uniform(1e-4, 0.5))
    lines = [
        f"rho = {draw(log_uniform(0.1, 10.0))!r}",
        f"a = {draw(log_uniform(0.1, 10.0))!r}",
        f"b = {draw(log_uniform(0.1, 10.0))!r}",
        f"c = {draw(st.sampled_from((1.0, -1.0))) * draw(log_uniform(0.1, 10.0))!r}",
        f"d = {draw(st.one_of(st.just(0.0), log_uniform(0.01, 10.0)))!r}",
        f"eta = {draw(st.one_of(st.just(0.0), st.floats(-10.0, 10.0)))!r}",
        f"mode_count = {modes}",
        f"dt = {dt!r}",
        f"t_end = {dt * draw(st.integers(2, 2000))!r}",
    ]
    if draw(st.booleans()):
        lines += ["domain = interval", f"length = {draw(log_uniform(0.3, 5.0))!r}"]
    else:
        lines += [
            "domain = rectangle",
            f"length1 = {draw(log_uniform(0.3, 5.0))!r}",
            f"length2 = {draw(log_uniform(0.3, 5.0))!r}",
        ]
    if draw(st.booleans()):
        lines.append(f"initial = {draw(st.sampled_from(PRESETS))}")
    else:
        for key in ("initial_u", "initial_v", "initial_theta"):
            values = draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=modes))
            lines.append(f"{key} = {','.join(repr(v) for v in values)}")
    return lines


@settings(max_examples=150, derandomize=True, deadline=None)
@given(lines=simulate_configs())
def test_simulate_passes_its_checks(tmp_path_factory, lines):
    work = tmp_path_factory.mktemp("sweep")
    config = work / "run.cfg"
    config.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["simulate", "--config", str(config), "--out", str(work / "o")])
    manifest = (work / "o" / "manifest.txt").read_text(encoding="utf-8")
    unstable = float(lines[3].split("=")[1]) < 0
    assert code == 0 or (code == 4 and unstable), manifest
