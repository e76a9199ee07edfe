"""The README's Library snippet and CLI lines run as written."""

import re
import shlex
from pathlib import Path

import pytest

from sepenum.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
THETA = str(ROOT / "tests" / "data" / "theta.edges")


def _block(section: str, language: str) -> str:
    """The first fenced block of the given language under a '## ' heading."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", body, re.S).group(1)


CLI_LINES = [line.split("#", 1)[0].strip()
             for line in _block("CLI", "sh").splitlines() if line.strip()]


def test_library_snippet_runs_on_theta(capsys):
    code = _block("Library", "python")
    assert '"graph.edges"' in code
    exec(code.replace('"graph.edges"', repr(THETA)), {})
    assert capsys.readouterr().out == "['a', 'b']\n['a', 'c']\n"


def test_the_cli_block_names_every_subcommand():
    assert [shlex.split(line)[1] for line in CLI_LINES] == [
        "minsep", "list-minimal", "ranked", "minimum-all", "important",
        "check", "witness"]


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_line_exits_zero_on_theta(line, capsys):
    program, *argv = shlex.split(line)
    assert program == "sepenum" and "GRAPH" in argv
    assert main([THETA if arg == "GRAPH" else arg for arg in argv]) == 0
    assert capsys.readouterr().out
