"""Run one gradiplate CLI invocation with a span around every public call.

Usage:

    python tracer.py SPANS_JSON <gradiplate cli arguments...>

The script times the import of scipy (scipy.linalg and scipy.integrate,
imported alone and first) and then of gradiplate.cli.  It then wraps every
public function of every gradiplate module at each module binding that
refers to it, and the subcommand handlers in `cli.HANDLERS`, so calls
between modules are recorded too.  Spans (name, start, end, parent, sizes)
are kept in memory and written to SPANS_JSON as the process ends.  The
exit code is the CLI's.
"""

import sys
import time

# the timed imports come before anything else is loaded
_t0 = time.perf_counter()
import scipy.integrate
import scipy.linalg

_t1 = time.perf_counter()
import gradiplate.cli

_t2 = time.perf_counter()

import functools
import inspect
import json

import numpy as np


def _evolve_sizes(args):
    return {"mode_samples": len(args["initial"].modes) * len(args["times"])}


def _scan_sizes(args):
    return {"blocks": int(np.size(args["omega_grid"])) * int(args["mode_count"])}


def _enumerate_sizes(args):
    return {"modes_built": int(args["count"])}


# work counts recorded from a call's arguments, by span name
SIZERS = {
    "propagator.evolve": _evolve_sizes,
    "resolvent.scan_imaginary_axis": _scan_sizes,
    "model.enumerate_modes": _enumerate_sizes,
}


class Recorder:
    """Spans as [name, start, end, parent index or -1, sizes or None]."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, fn, name):
        sizer = SIZERS.get(name)
        signature = inspect.signature(fn) if sizer else None
        spans, stack, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sizes = sizer(signature.bind(*args, **kwargs).arguments) if sizer else None
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, sizes])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()

        return traced


def span_name(fn) -> str:
    layer = fn.__module__.rsplit(".", 1)[-1].lstrip("_")
    return f"{layer}.{fn.__name__}"


def _is_layer_entry(attr: str, value) -> bool:
    if not inspect.isfunction(value) or attr.startswith("_") or value.__name__.startswith("_"):
        return False
    if value.__module__ == "gradiplate.cli":
        # argument parsing stays inside the cli.main span, as CLI self time
        return value.__name__ == "main"
    return value.__module__.startswith("gradiplate.")


def instrument(recorder: Recorder) -> None:
    """Replace each public gradiplate function at every module binding."""
    bindings = {}
    for module_name, module in list(sys.modules.items()):
        if module_name != "gradiplate" and not module_name.startswith("gradiplate."):
            continue
        for attr, value in vars(module).items():
            if _is_layer_entry(attr, value):
                bindings.setdefault(value, []).append((module, attr))
    for fn, places in bindings.items():
        wrapped = recorder.wrap(fn, span_name(fn))
        for module, attr in places:
            setattr(module, attr, wrapped)
    handlers = gradiplate.cli.HANDLERS
    for key, fn in handlers.items():
        handlers[key] = recorder.wrap(fn, "cli.handler")


def main(argv) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    recorder = Recorder()
    instrument(recorder)
    try:
        return gradiplate.cli.main(cli_argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "imports": {"scipy_s": _t1 - _t0, "gradiplate_cli_s": _t2 - _t1},
                    "spans": recorder.spans,
                },
                fh,
            )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
