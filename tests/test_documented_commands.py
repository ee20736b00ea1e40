"""Every ``repro-coherence`` command the README and docs show must parse.

The commands are read from the fenced code blocks of ``README.md`` and
``docs/*.md``: backslash continuations are joined, a leading ``$`` prompt,
shell comments and anything after a pipe or redirection are dropped, and
what is left goes through the CLI's own parser.  A flag that is renamed or
removed then fails here instead of exiting 2 for a reader.
"""

from __future__ import annotations

import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]

_SHELL_OPERATORS = {"|", "||", "&", "&&", ";", ">", ">>", "<", "2>", "2>&1"}


def _fenced_lines(text: str):
    """(line number, line) of each line with its ``\\`` continuations,
    for the lines inside fenced code blocks."""
    fenced, pending, start = False, "", 0
    for number, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith("```"):
            fenced, pending = not fenced, ""
            continue
        if not fenced:
            continue
        if not pending:
            start = number
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        yield start, pending + line
        pending = ""


def _commands():
    """A pytest param (id ``document:line``) of each documented argv."""
    for document in DOCUMENTS:
        text = document.read_text(encoding="utf-8")
        for number, line in _fenced_lines(text):
            words = shlex.split(line, comments=True)
            if words[:1] == ["$"]:
                words = words[1:]
            if words[:1] != ["repro-coherence"]:
                continue
            argv = []
            for word in words[1:]:
                if word in _SHELL_OPERATORS:
                    break
                argv.append(word)
            where = f"{document.relative_to(ROOT)}:{number}"
            yield pytest.param(argv, id=where)


COMMANDS = list(_commands())


def test_the_documents_show_commands():
    assert len(COMMANDS) >= 30


@pytest.mark.parametrize("argv", COMMANDS)
def test_documented_command_parses(argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"repro-coherence {shlex.join(argv)} exits {exc.code}")
