"""The README's examples run as written: each command line and the library snippet."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from subcat.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def first_block(heading: str) -> list[str]:
    """The lines of the first fenced code block under a level-2 heading."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(r"```[a-z]*\n(.*?)```", section, re.S).group(1).splitlines()


COMMANDS = [shlex.split(line.split("#", 1)[0]) for line in first_block("Command line")
            if line.startswith("subcat ")]


def test_the_command_block_is_found():
    assert len(COMMANDS) == 6


@pytest.mark.parametrize("words", COMMANDS, ids=[" ".join(w[1:]) for w in COMMANDS])
def test_readme_command_runs(capsys, words):
    code = main(words[1:])
    out = capsys.readouterr()
    assert code == 0, out.err
    assert out.out.strip()


def test_library_snippet_gives_its_commented_results():
    scope: dict = {}
    checked = []
    for line in first_block("Library surface"):
        code, _, comment = line.partition("#")
        try:
            expected = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            exec(code, scope)
            continue
        assert eval(code, scope) == expected, line
        checked.append(expected)
    assert checked == [("B", "C"), 7]
