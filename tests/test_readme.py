"""The README's command-line examples run, in order, and exit 0."""

import re
import shlex
from pathlib import Path

from pqliouville.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def command_line_section() -> str:
    text = README.read_text()
    return text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]


def readme_commands() -> tuple[list[list[str]], str]:
    """The argv of each `pqliouville` line in the section's sh block, and its parameter file."""
    blocks = re.findall(r"```(\w*)\n(.*?)```", command_line_section(), re.S)
    script = next(body for lang, body in blocks if lang == "sh")
    par = next(body for lang, body in blocks if not lang and "kind =" in body)
    commands = []
    for line in re.sub(r"\\\n\s*", " ", script).splitlines():
        tokens = shlex.split(line)
        if ">" in tokens:
            tokens = tokens[:tokens.index(">")]
        if tokens:
            assert tokens[0] == "pqliouville", line
            commands.append(tokens[1:])
    return commands, par


def test_command_line_examples_run(tmp_path, monkeypatch, capsys):
    commands, par = readme_commands()
    assert {argv[0] for argv in commands} == {
        "classify", "search-b", "plot-data", "il-window", "verify-identities", "solve-radial",
        "sweep",
    }
    monkeypatch.chdir(tmp_path)
    (tmp_path / "grid.par").write_text(par)
    for argv in commands:
        assert main(argv) == 0, argv
        assert "error" not in capsys.readouterr().err
