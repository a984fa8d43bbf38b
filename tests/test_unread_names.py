"""Every function, method and class the package defines is read outside the tests.

A name only the tests reach is a capability no command, script or benchmark
uses. Code outside the tests is ``src/matchkneser``, ``scripts``,
``perfbench`` and the README's Library block. A read is a loaded ``Name``
or ``Attribute``, a name an import takes, or a string constant that is a
bare identifier (``perfbench/spans.py`` names the attributes it wraps as
strings). Dunder names, which Python itself reads, are exempt.
"""

import ast
from pathlib import Path

from helpers import readme_library_block

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "matchkneser").glob("*.py"))
OUTSIDE_TESTS = PACKAGE + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def reads(tree: ast.AST) -> set[str]:
    """The names ``tree`` reads, as the module docstring counts them."""

    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            names.add(node.value)
    return names


def defined(tree: ast.AST) -> set[str]:
    """The non-dunder names of every ``def`` and ``class`` in ``tree``, nested ones included."""

    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {
        node.name for node in ast.walk(tree)
        if isinstance(node, kinds) and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def unread(package: list[ast.AST], readers: list[ast.AST]) -> list[str]:
    read = set().union(*map(reads, readers))
    return sorted(set().union(*map(defined, package)) - read)


def test_every_package_name_has_a_reader_outside_the_tests():
    trees = [ast.parse(path.read_text()) for path in OUTSIDE_TESTS]
    package = trees[:len(PACKAGE)]
    assert unread(package, trees + [ast.parse(readme_library_block())]) == []


def test_the_check_sees_a_name_only_the_tests_read():
    package = [ast.parse(
        "class Box:\n"
        "    def __len__(self): return 0\n"
        "    def size(self): return 1\n"
        "    def spare(self): return 2\n"
        "def wrapped(): pass\n"
        "def unused(): pass\n"
        "def imported(): pass\n"
    )]
    readers = package + [ast.parse(
        "from box import imported\n"
        "Box().size()\n"
        "WRAP = ('box', 'wrapped')\n"
        "unused = 'not read: a docstring or a name that is stored'\n"
    )]
    assert unread(package, readers) == ["spare", "unused"]
