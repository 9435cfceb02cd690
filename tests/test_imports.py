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
