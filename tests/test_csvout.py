"""The array CSV writer against Python's own %-formatting.

`csvout.format_floats` must write every float64 exactly as "%.16e" does,
whatever the bit pattern, and a CLI run's CSV must equal the one a
per-row formatter (`oracles.csv_text`) writes from the same columns.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import csv_text

import gradiplate.cli as cli
import gradiplate.csvout as csvout
from gradiplate.cli import main

PI = "3.141592653589793"
UNIT_MODEL = ["rho = 1", "a = 1", "b = 1", "c = 1", "d = 1", "eta = 1"]


def fields(values) -> list[str]:
    """The text `format_floats` writes for each value, padding dropped."""
    matrix = csvout.format_floats(np.asarray(values, dtype=np.float64))
    return [row[row != 0].tobytes().decode("ascii") for row in matrix]


def python_fields(values) -> list[str]:
    return ["%.16e" % v for v in np.asarray(values, dtype=np.float64).tolist()]


# every power of ten (the nearest double) from the subnormals up, and the
# doubles one ulp either side
POWERS = np.array([float(f"1e{k}") for k in range(-323, 309)])
# the doubles below 10^k that "%.16e" rounds up to 1.0000000000000000e+k
CARRIES = [
    x for k, x in zip(range(-323, 309), POWERS.tolist())
    if Fraction(x) < Fraction(10) ** k and ("%.16e" % x).startswith("1.0000000000000000e")
]
# x = odd / 2^k with 18 significant digits, the last a 5: an exact tie at
# the 17th digit, which "%.16e" rounds half to even
TIES = [j / 2.0**k for k in range(10, 30) for j in range(2**k + 1, 2**k + 400, 2)]
TIES = [x for x in TIES if (Fraction(x) * 10 ** (16 - math.floor(math.log10(x)))).denominator == 2]
EDGES = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -1e-310, 1e300,
    np.finfo(np.float64).max, np.finfo(np.float64).tiny, 1e-280, 1e280,
    *POWERS, *np.nextafter(POWERS, np.inf), *np.nextafter(POWERS, -np.inf),
    *CARRIES, *TIES,
]


class TestFloatFields:
    def test_the_edge_lists_hold_what_they_name(self):
        assert len(CARRIES) >= 10
        assert len(TIES) >= 100

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_edge_values(self, sign):
        values = sign * np.array(EDGES)
        assert fields(values) == python_fields(values)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_any_bit_pattern(self, bits):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        assert fields(values) == python_fields(values)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.floats(), min_size=1, max_size=64))
    def test_any_float(self, values):
        assert fields(values) == python_fields(values)

    def test_doubles_over_every_decade(self):
        rng = np.random.default_rng(12)
        values = rng.uniform(-10.0, 10.0, 200_000) * 10.0 ** rng.integers(-300, 300, 200_000)
        assert fields(values) == python_fields(values)


class TestCsvFile:
    def test_blocks_join_into_the_row_oracle(self, tmp_path):
        # more rows than one block holds, in columns of every kind
        rows = 3 * csvout.BLOCK_VALUES
        rng = np.random.default_rng(3)
        columns = [
            np.arange(rows),
            rng.standard_normal(rows) * 10.0 ** rng.integers(-320, 308, rows),
            np.where(rng.random(rows) < 0.5, "three_real", "one_real"),
            rng.integers(0, 2**64, rows, dtype=np.uint64).view(np.float64),
        ]
        path = tmp_path / "t.csv"
        csvout.write_csv(str(path), dict(zip(["n", "x", "kind", "bits"], columns)))
        assert path.read_text(encoding="ascii") == csv_text(["n", "x", "kind", "bits"], columns)

    @pytest.mark.parametrize("rows", [20_000, 200_000])
    def test_memory_is_flat_in_the_row_count(self, tmp_path, rows):
        """The writer holds one block at a time: its peak stays under one
        bound for 10x the rows (a list of row tuples took about 60 MB)."""
        rng = np.random.default_rng(rows)
        columns = [rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows) for _ in range(7)]
        tracemalloc.start()
        try:
            csvout.write_csv(str(tmp_path / "t.csv"), dict(zip("abcdefg", columns)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6


class TestSubcommandCsv:
    """Every subcommand's CSV, at test sizes, equals the row oracle's text
    of the columns its handler returned."""

    CONFIGS = {
        "simulate": UNIT_MODEL + [
            "domain = interval", f"length = {PI}", "mode_count = 4", "t_end = 1.0", "dt = 0.001",
            "initial = first-mode-bend+thermal-pulse",
        ],
        "resolvent-scan": UNIT_MODEL + [
            "domain = interval", f"length = {PI}", "mode_count = 16", "omega_min = 5",
            "omega_max = 200", "omega_points = 40", "omega_grid = resonant",
        ],
        "nondiff": UNIT_MODEL + ["domain = interval", f"length = {PI}", "mode_count = 30", "n_max = 30"],
        "spectrum": UNIT_MODEL + [
            "domain = interval", f"length = {PI}", "mode_count = 16", "lambda_max = 1e6",
            "lambda_points = 50",
        ],
        "backward": UNIT_MODEL + [
            "domain = interval", f"length = {PI}", "mode_count = 2", "t_end = 1.0", "dt = 0.001",
            "initial_u = 1", "initial_theta = 1",
        ],
        "instability": [line.replace("c = 1", "c = -1") for line in UNIT_MODEL] + [
            "domain = interval", f"length = {PI}", "mode_count = 1", "t_end = 6.0", "dt = 0.001",
            "initial_u = 1",
        ],
        "quasistatic": [
            "rho = 1", "a = 1", "b = 1", "c = -2", "d = 1", "eta = 1",
            "t_end = 0.02", "dt = 1e-4", "initial_theta = 1",
        ],
    }

    @pytest.mark.parametrize("subcommand", list(CONFIGS))
    def test_csv_is_the_row_oracle_text(self, tmp_path, monkeypatch, subcommand):
        outputs = []
        handler = cli.HANDLERS[subcommand]
        monkeypatch.setitem(cli.HANDLERS, subcommand, lambda cfg: outputs.append(handler(cfg)) or outputs[-1])
        config = tmp_path / "run.cfg"
        config.write_text("\n".join(self.CONFIGS[subcommand]) + "\n", encoding="utf-8")
        assert main([subcommand, "--config", str(config), "--out", str(tmp_path / "o")]) == 0
        [output] = outputs
        written = (tmp_path / "o" / f"{subcommand.replace('-', '_')}.csv").read_text(encoding="ascii")
        columns = list(output.columns.values())
        assert written == csv_text(list(output.columns), columns)
        assert written.count("\n") == 1 + columns[0].size
