"""The command-line workflow that README.md documents runs as written."""

import re
import shlex
from pathlib import Path

from ultracalc import cli

README = Path(__file__).resolve().parents[1] / "README.md"
SUBCOMMANDS = {"grid", "space", "project", "sample", "delta", "basis", "derive",
               "integrate", "verify", "embed", "pair", "refine", "export-op"}


def fenced_blocks(text: str, lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", text, flags=re.M | re.S)


def readme_commands() -> list[list[str]]:
    """Argument lists of the ``ultracalc`` lines in the first ``sh`` block that has any."""
    for block in fenced_blocks(README.read_text(encoding="utf-8"), "sh"):
        commands = [shlex.split(line, comments=True) for line in block.splitlines()]
        commands = [argv[1:] for argv in commands if argv and argv[0] == "ultracalc"]
        if commands:
            return commands
    return []


def test_readme_cli_workflow_runs(tmp_path, monkeypatch, capsys):
    commands = readme_commands()
    # every subcommand is shown, so the block found is the workflow block
    assert {argv[0] for argv in commands} == SUBCOMMANDS
    (ladder,) = fenced_blocks(README.read_text(encoding="utf-8"), "json")
    (tmp_path / "ladder.json").write_text(ladder, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 0, f"ultracalc {shlex.join(argv)}: exit {code}: {err}"
