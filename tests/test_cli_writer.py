"""``cli`` decides a command's output format in one function: no function of
``bornlab/cli.py`` but the writer ``_render`` reads an attribute named
``fmt``, and every command's rows follow its 6-decimal rule."""

import ast
from pathlib import Path

import pytest

from bornlab import cli

CLI = Path(__file__).resolve().parent.parent / "src" / "bornlab" / "cli.py"


def fmt_readers(source: str) -> list[str]:
    """The module-level functions and classes of ``source`` that name an
    attribute ``fmt`` anywhere in their body, in source order, with
    ``<module>`` for a statement outside them."""
    readers = []
    for node in ast.parse(source).body:
        if any(isinstance(sub, ast.Attribute) and sub.attr == "fmt" for sub in ast.walk(node)):
            is_named = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            readers.append(node.name if is_named else "<module>")
    return readers


def test_only_the_writer_reads_the_format():
    assert fmt_readers(CLI.read_text(encoding="utf-8")) == ["_render"]


def test_the_guard_sees_every_other_reader():
    source = (
        "def _render(args, rows):\n    return args.fmt\n\n"
        "def cmd_run(args):\n    def inner():\n        return args.fmt == 'csv'\n    return inner()\n\n"
        "def build_parser(sp):\n    sp.add_argument('--format', dest='fmt')\n\n"
        "class Writer:\n    def write(self, args):\n        return args.fmt\n\n"
        "DEFAULT = ARGS.fmt\n"
    )
    assert fmt_readers(source) == ["_render", "cmd_run", "Writer", "<module>"]


@pytest.mark.parametrize(
    "fmt, want",
    [
        ("table", "0 0.000000\n1 1.000000\n"),
        ("csv", "outcome,probability\n0,0.000000\n1,1.000000\n"),
        ("record", '{\n  "probabilities": {\n    "0": -0.0,\n    "1": 1.0\n  }\n}\n'),
    ],
)
def test_a_negative_zero_prints_as_zero_at_6_decimals(fmt, want, tmp_path, monkeypatch, capsys):
    # The record keeps the value as computed; the rows print it rounded.
    monkeypatch.setattr(cli, "output_distribution", lambda ir: {"0": -0.0, "1": 1.0})
    path = tmp_path / "one.qc"
    path.write_text("qubits 1\n", encoding="utf-8")
    assert cli.main(["run", str(path), "--format", fmt]) == 0
    assert capsys.readouterr().out == want
