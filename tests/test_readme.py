"""The README's examples run as written: every ``bornlab`` line of its
"Command line" block, and every example block of its "File formats"
section.  Every Python name its "Library layout" table shows exists."""

import importlib
import re
import shlex
import shutil
from pathlib import Path

import pytest

import bornlab
from bornlab.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    """The text of the ``## title`` section."""
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start : None if end < 0 else end]


def _blocks(text: str) -> list[tuple[str, str]]:
    """The fenced code blocks of ``text``, each with the paragraph before it."""
    found = re.finditer(r"((?:[^\n]+\n)+)\n```[a-z]*\n(.*?)```", text, re.S)
    return [(m.group(1), m.group(2)) for m in found]


COMMAND_LINES = [
    line for line in _blocks(_section("Command line"))[0][1].splitlines() if line.startswith("bornlab ")
]


@pytest.mark.parametrize("line", COMMAND_LINES)
def test_command_line_examples(line, monkeypatch, capsys):
    command, _, comment = line.partition("#")
    monkeypatch.chdir(ROOT)
    assert main(shlex.split(command)[1:]) == 0
    out = capsys.readouterr().out
    stated = re.search(r"prints (\S+)", comment)
    if stated:
        assert out == stated.group(1) + "\n"
    if "|S| <= 2" in comment:
        assert abs(float(out)) <= 2.0


def test_command_line_block_states_the_headline_values():
    stated = {m for line in COMMAND_LINES for m in re.findall(r"prints (\S+)", line)}
    assert stated == {"0.250000", "0.750000", "2.828427"}


# The bold heading that introduces each example block, the name its file gets, the
# command that reads it, and what that prints when the README states it.
FILE_EXAMPLES = {
    "Circuits": ("example.qc", "run", None),
    "Formulas": ("example.qf", "eval", None),
    "Valuation inputs": ("example.psa", "psa-table", None),
    "CHSH inputs": ("example.chsh", "chsh", "-1.414214\n"),
}


def _file_examples():
    found = {}
    for intro, body in _blocks(_section("File formats")):
        heading = next((h for h in FILE_EXAMPLES if f"**{h}**" in intro), None)
        if heading is not None:
            found[heading] = body
    return found


def test_every_file_format_has_an_example():
    assert set(_file_examples()) == set(FILE_EXAMPLES)


@pytest.mark.parametrize("heading", FILE_EXAMPLES)
def test_file_format_examples(heading, tmp_path, capsys):
    name, command, expected = FILE_EXAMPLES[heading]
    shutil.copy(ROOT / "demos" / "hadamard.qc", tmp_path)  # the formula example's circuit
    path = tmp_path / name
    path.write_text(_file_examples()[heading], encoding="utf-8")
    assert main([command, str(path)]) == 0
    if expected is not None:
        assert capsys.readouterr().out == expected


# Backticked words of the "Library layout" table that name no attribute: a
# numpy routine, symbols of a formula, a DSL keyword and the command.
NOT_NAMES = {"eigvalsh", "b", "rho", "measure", "bornlab"}
LAYOUT_ROWS = re.findall(r"^\| `(bornlab\.\w+)` +\|(.*)\|$", _section("Library layout"), re.M)


def test_library_layout_has_a_row_per_module():
    assert [module for module, _ in LAYOUT_ROWS] == [
        f"bornlab.{m}" for m in ("linalg", "states", "channels", "qcl", "psa", "circuits", "cli")
    ]


@pytest.mark.parametrize("module, contents", LAYOUT_ROWS, ids=[m for m, _ in LAYOUT_ROWS])
def test_library_layout_names_exist(module, contents):
    owner = importlib.import_module(module)
    names = {word for word in re.findall(r"`([^`]*)`", contents) if word.isidentifier()} - NOT_NAMES
    assert sorted(n for n in names if not hasattr(owner, n) and not hasattr(bornlab, n)) == []
