"""The README's examples run as shown: the Python of the library tour
gives the values its comments state, and each command-line example
prints what the README shows."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from softsets.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start : end if end != -1 else None]


def _blocks(section: str, language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", section, re.M | re.S)


def test_library_tour_gives_the_values_it_states():
    blocks = _blocks(_section("Library tour"), "python")
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:  # the second block uses the first one's imports
        lines = block.splitlines()
        stated = 0
        for statement in ast.parse(block).body:
            code = compile(ast.Module([statement], []), "README.md", "exec")
            line = lines[statement.end_lineno - 1]
            if not isinstance(statement, ast.Expr) or "#" not in line:
                exec(code, namespace)
                continue
            # "# value" or "# value; remark": compare values, since the
            # order a frozenset prints in varies
            value = line.split("#", 1)[1].split(";")[0]
            expression = compile(ast.Expression(statement.value), "README.md", "eval")
            assert eval(expression, namespace) == eval(value, {}), line
            stated += 1
        assert stated, block


def _commands():
    """Each ``$ softsets ...`` line of the command-line section, with the
    output shown under it."""
    for block in _blocks(_section("Command line"), "sh"):
        command, *shown = block.splitlines()
        if command.startswith("$ softsets "):
            argv = shlex.split(command)[2:]
            yield pytest.param(argv, shown, id=" ".join(argv))


@pytest.mark.parametrize("argv, shown", _commands())
def test_command_line_examples_print_what_is_shown(argv, shown, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    if "..." in shown:  # a shortened listing: its first and last lines
        cut = shown.index("...")
        head, tail = shown[:cut], shown[cut + 1 :]
        assert out[: len(head)] == head and out[len(out) - len(tail) :] == tail
    else:
        assert out == shown
