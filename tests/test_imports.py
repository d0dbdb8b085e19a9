"""No module of the package or of the tests imports a name it never reads,
and the package reads every private name it defines at module level.

``bornlab/__init__.py`` is left out of the import check: its imports are the
package's exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    [p for p in (ROOT / "src" / "bornlab").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
)


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of ``source`` that no expression reads,
    with the line of their import."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_guard_sees_an_unused_import():
    source = "import json\nimport numpy as np\nfrom .linalg import STRUCTURAL_TOL, trace\nnp.eye(trace)\n"
    assert unused_imports(source) == ["line 1: json", "line 3: STRUCTURAL_TOL"]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level names with a leading underscore (dunders aside) that
    the modules ``{module: source}`` define and none of them reads, each as
    ``module.name``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            private = [name for name in names if name.startswith("_") and not name.startswith("__")]
            unread += [f"{module}.{name}" for name in private if name not in read]
    return unread


def test_every_private_name_is_read_in_the_package():
    package = sorted((ROOT / "src" / "bornlab").glob("*.py"))
    assert unread_private_names({p.stem: p.read_text(encoding="utf-8") for p in package}) == []


def test_the_guard_sees_an_unread_private_name():
    sources = {
        "a": "_KEPT = 1\n_DROPPED = 2\n\ndef _helper():\n    return _KEPT\n\n__all__ = []\n",
        "b": "from . import a\n\nclass _Shown:\n    _slot = None\n\nprint(a._helper(), _Shown)\n",
    }
    assert unread_private_names(sources) == ["a._DROPPED"]
