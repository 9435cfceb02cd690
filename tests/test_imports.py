"""Static checks on the package's source files."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "jumpsmooth"


def _unread_imports(source: str) -> list[tuple[str, int]]:
    """Names bound by a top-level import that the module never reads, with
    the line of their import.  `from __future__` binds nothing."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((name, line) for name, line in bound.items() if name not in read)


def test_the_scan_finds_an_unread_import():
    source = "import math\nimport os.path\nfrom re import sub as s, compile\nprint(os, compile)\n"
    assert _unread_imports(source) == [("math", 1), ("s", 3)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_top_level_import_is_read(path):
    assert _unread_imports(path.read_text()) == []


def _unread_private_names(sources: dict[str, str]) -> list[tuple[str, str, int]]:
    """(module, name, line) of each top-level private name (one leading
    underscore: a function, class or assigned name) that a module defines
    and no module of `sources` reads, as a name or as an attribute."""
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
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread += [(module, name, node.lineno) for name in names
                       if name.startswith("_") and not name.startswith("__") and name not in read]
    return sorted(unread)


def test_the_scan_finds_an_unread_private_name():
    sources = {
        "a.py": "_LIMIT = 3\n_used = 1\n__all__ = []\ndef _dead():\n    return _used\n"
                "class _Gone:\n    pass\nx: int = _LIMIT\n_y, z = 1, 2\n",
        "b.py": "from a import _LIMIT\nimport a\na._dead()\n",
    }
    assert _unread_private_names(sources) == [("a.py", "_Gone", 6), ("a.py", "_y", 9)]


def test_every_top_level_private_name_is_read_in_the_package():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert _unread_private_names(sources) == []
