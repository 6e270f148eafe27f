"""The README's code examples run as written, and its tables match what
the CLI writes."""

import contextlib
import io
import re
from pathlib import Path

import test_csvout

import gradiplate.cli as cli
from gradiplate.cli import main

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


def test_csv_table_names_each_file_and_its_columns(tmp_path, monkeypatch):
    """Each subcommand's row of the "file | columns" table names the CSV
    file that `cli.main` writes and lists the keys of its handler's table,
    in order; the table has no other row."""
    rows = dict(re.findall(r"^\| `(\w+\.csv)` \| `([^`]*)`", README.read_text(encoding="utf-8"), re.M))
    written = {}
    for subcommand, lines in test_csvout.TestSubcommandCsv.CONFIGS.items():
        outputs = []
        handler = cli.HANDLERS[subcommand]
        monkeypatch.setitem(cli.HANDLERS, subcommand, lambda cfg: outputs.append(handler(cfg)) or outputs[-1])
        config = tmp_path / f"{subcommand}.cfg"
        config.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / subcommand
        assert main([subcommand, "--config", str(config), "--out", str(out)]) == 0
        [output] = outputs
        [csv] = out.glob("*.csv")
        written[csv.name] = ", ".join(output.columns)
    assert rows == written
