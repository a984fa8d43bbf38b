"""Every name the package and the scripts import is used.

The repository runs no linter, so this is its check for unused imports
(pyflakes' F401): each module under ``src/matchkneser`` and ``scripts`` is
parsed, and a name an import binds must be read by some ``Name`` node, the
head of every attribute chain included. Exempt are ``__future__`` imports,
the names a module lists in ``__all__`` (the package's re-exports), and
imports marked ``# noqa: F401``, which are kept bound on purpose.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "matchkneser").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def unused_imports(path: Path) -> list[str]:
    """``line: name`` for each imported name that nothing in ``path`` reads."""

    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in read and bound not in exported:
                unused.append(f"{node.lineno}: {bound}")
    return unused


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_the_check_sees_an_unused_import(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from sys import argv, path  # noqa: F401\n"
        "from json import dumps, loads\n"
        "__all__ = ['loads']\n"
        "os.sep\n"
    )
    assert unused_imports(source) == ["4: dumps"]
