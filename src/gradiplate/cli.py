"""Command-line front end: every analysis as a subcommand with CSV output.

Usage:

    gradiplate <subcommand> --config <path> [--out <dir>] [--params k=v ...]

Subcommands: simulate, resolvent-scan, nondiff, spectrum, backward,
instability, quasistatic.  Each run writes its handler's CSV table, named
after the subcommand in `main` (header row of the table's names,
17-significant-digit scientific notation, '.') plus `manifest.txt` with
the config echo, per-check pass/fail lines, measured values, the
time of each phase (import, parse, handler, write) and the peak RSS.  CSV
bytes are identical across runs of the same config; the manifest's timing
and peak RSS lines are the only nondeterministic output.

Exit codes: 0 success, 2 configuration error, 3 invariant-check failure,
4 non-finite evolution (unstable overflow).  The manifest is written on
the check and overflow failure paths too; a configuration error, found by
the parser or by a handler, writes no output.

This module only dispatches: it imports no numpy and no handler.  Each
subcommand's handler `run` and config rules `configure` live in the
module of the code it drives (`config.MODULES`), which `main` imports
once it knows the subcommand, so a process compiles only the code of its
own subcommand.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time
from typing import Sequence

from . import __version__
from .errors import ConfigError, EigenvalueOutOfRange, GradiplateError, NonFiniteResult

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECK = 3
EXIT_NONFINITE = 4


def _handler(subcommand: str):
    """The handler of `subcommand`, which imports its module on first call."""

    def run(cfg):
        from .config import command

        return command(subcommand).run(cfg)

    return run


class _Phases:
    """Wall time of each phase of one run, for the manifest's timing lines."""

    def __init__(self) -> None:
        self.started = self.last = time.perf_counter()
        self.seconds: dict[str, float] = {}

    def end(self, phase: str) -> None:
        now = time.perf_counter()
        self.seconds[phase] = now - self.last
        self.last = now


# subcommand -> the help line of its parser
DESCRIPTIONS = {
    "simulate": "evolve the truncated system and audit the energy identity",
    "resolvent-scan": "scan the resolvent norm along the imaginary axis",
    "nondiff": "resonant-drive sequence and its nonzero resolvent limit",
    "spectrum": "mode eigenvalues, abscissa, and the vertical-strip limit",
    "backward": "time-reversed evolution identities and Gronwall bound",
    "instability": "convexity functional and exponential lower bound (c < 0)",
    "quasistatic": "scalar quasi-static reduction and plate decay (c < 0)",
}
# subcommand -> its handler: RunConfig -> manifest.RunOutput
HANDLERS = {name: _handler(name) for name in DESCRIPTIONS}


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The parser of the command line `argv`.

    When argv's first entry names a subcommand, that is the only subparser
    built; the usage line still lists every subcommand, so the help, usage
    and error texts are those of the parser with all seven.
    """
    parser = argparse.ArgumentParser(
        prog="gradiplate",
        description="Spectral diagnostics for hinged thermoelastic plates "
        "with second-gradient heat conduction.",
    )
    parser.add_argument("--version", action="version", version=f"gradiplate {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    names = list(DESCRIPTIONS)
    if argv and argv[0] in DESCRIPTIONS:
        names = [argv[0]]
        sub.metavar = "{%s}" % ",".join(DESCRIPTIONS)
    for name in names:
        desc = DESCRIPTIONS[name]
        p = sub.add_parser(name, help=desc, description=desc)
        p.add_argument("--config", required=True, help="path to key=value config file")
        p.add_argument("--out", default="gradiplate-out", help="output directory")
        p.add_argument(
            "--params",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key (repeatable)",
        )
    return parser


def main(argv=None) -> int:
    phases = _Phases()
    argv = sys.argv[1:] if argv is None else argv
    # the subcommand's modules, numpy among them, are a phase of their own;
    # a command line that names no subcommand first is refused by argparse
    if argv and argv[0] in DESCRIPTIONS:
        from .config import command

        command(argv[0])
    phases.end("import")
    args = build_parser(argv).parse_args(argv)
    subcommand = args.subcommand
    from .config import load_config
    from .manifest import write_manifest

    output = error = message = None
    try:
        cfg = load_config(args.config, subcommand, args.params)
        phases.end("parse")
        output = HANDLERS[subcommand](cfg)
    except (ConfigError, EigenvalueOutOfRange) as exc:
        # found by the parser, or by a handler that needs its modes to see it
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        # an accepted config can still ask for arrays larger than memory
        print(f"config error: the run does not fit in memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonFiniteResult as exc:
        status, exit_code, error = "nonfinite", EXIT_NONFINITE, f"{exc} (t={exc.time})"
        message = f"non-finite result: {exc}"
    except GradiplateError as exc:
        status, exit_code, error = "check_failure", EXIT_CHECK, str(exc)
        message = f"check failure: {exc}"
    else:
        failed = [c.name for c in output.checks if not c.passed]
        status, exit_code = ("check_failure", EXIT_CHECK) if failed else ("ok", EXIT_OK)
        if failed:
            message = f"checks failed: {', '.join(failed)}"
    phases.end("handler")

    os.makedirs(args.out, exist_ok=True)
    if output is not None:
        from .csvout import write_csv

        write_csv(os.path.join(args.out, subcommand.replace("-", "_") + ".csv"), output.columns)
    write_manifest(args.out, subcommand, status, exit_code, cfg, output, phases, error)
    if message is not None:
        print(message, file=sys.stderr)
    return exit_code


def entry() -> None:
    """Process entry of the `gradiplate` script and `python -m gradiplate.cli`.

    A run makes few reference cycles, and numpy's import alone would run
    dozens of cyclic collections, each walking the heap made so far: the
    cyclic GC is off before `main` imports anything heavy.  The exiting
    process needs none of its heap, so it is frozen before the exit: the
    interpreter's shutdown cycle collections skip frozen objects, and would
    otherwise walk every object numpy made at import.  `main` and the
    import of this module leave the GC alone, so in-process callers keep
    their garbage collection.
    """
    gc.disable()
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
