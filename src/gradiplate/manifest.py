"""What a handler hands to the writers, and the manifest writer.

A handler returns a `RunOutput`: the CSV table, one ordered dict from
header name to 1-D column, and the manifest's lines, each check a `Check`
with its measured value and gate.  `write_manifest` writes
`manifest.txt`: the config echo, the checks, results, notes and sizes,
then the time of each phase and the peak RSS.
"""

from __future__ import annotations

import os
import resource
import sys

import numpy as np

from . import __version__


class Check:
    """One pass/fail line of the manifest: a measured value and its gate."""

    __slots__ = ("name", "passed", "value", "tolerance")

    def __init__(self, name: str, passed: bool, value: float, tolerance: float):
        self.name, self.passed, self.value, self.tolerance = name, passed, value, tolerance


class RunOutput:
    """What a handler hands to the writers: the CSV table and the manifest
    lines."""

    __slots__ = ("columns", "checks", "results", "notes", "sizes")

    def __init__(
        self,
        columns: dict[str, np.ndarray],
        checks: list[Check],
        results: dict[str, float],
        notes: dict[str, str] | None = None,
        sizes: dict[str, int] | None = None,
    ):
        self.columns, self.checks, self.results = columns, checks, results
        self.notes = {} if notes is None else notes
        self.sizes = {} if sizes is None else sizes


def _fmt(value) -> str:
    """One manifest value, in the number format of the CSV columns: 17
    significant digits round-trip float64 exactly."""
    if isinstance(value, (int, np.integer)):
        return "%d" % value
    if isinstance(value, str):
        return value
    return "%.16e" % value


def _peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB (1e6 bytes)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss counts bytes on macOS and KiB elsewhere
    return peak / 1e6 if sys.platform == "darwin" else peak * 1024 / 1e6


def write_manifest(
    out_dir: str,
    subcommand: str,
    status: str,
    exit_code: int,
    cfg,
    output: RunOutput | None,
    phases,
    error: str | None = None,
) -> None:
    """`manifest.txt` of the run of `cfg`, a `config.RunConfig`.  The
    write phase of `phases`, the run's phase timer, ends here, before the
    timing lines."""
    lines = [
        f"tool = gradiplate {__version__}",
        f"subcommand = {subcommand}",
        f"status = {status}",
        f"exit_code = {exit_code}",
    ]
    if error is not None:
        lines.append(f"error = {error}")
    for key in sorted(cfg.raw):
        lines.append(f"config.{key} = {cfg.raw[key]}")
    if output is not None:
        for check in output.checks:
            lines.append(f"check.{check.name}.pass = {'true' if check.passed else 'false'}")
            lines.append(f"check.{check.name}.value = {_fmt(check.value)}")
            lines.append(f"check.{check.name}.tolerance = {_fmt(check.tolerance)}")
        for key in sorted(output.results):
            lines.append(f"result.{key} = {_fmt(output.results[key])}")
        for key in sorted(output.notes):
            lines.append(f"note.{key} = {output.notes[key]}")
        for key, size in output.sizes.items():
            lines.append(f"size.{key} = {size}")
    # the write phase covers the CSV and this manifest up to its timing lines
    phases.end("write")
    for phase, seconds in phases.seconds.items():
        lines.append(f"timing.{phase}_seconds = {seconds:.6f}")
    lines.append(f"timing.total_seconds = {phases.last - phases.started:.6f}")
    lines.append(f"peak_rss_mb = {_peak_rss_mb():.1f}")
    with open(os.path.join(out_dir, "manifest.txt"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
