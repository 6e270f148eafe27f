"""The README's code examples run as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs():
    """The first Python block of "Library use" evolves the first mode of
    the pi interval and prints the energy identity's residual."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, str(README), "exec"), {})
    assert 0.0 <= float(printed.getvalue()) <= 1e-8
