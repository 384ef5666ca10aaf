"""Package surface: every name the top-level package imports is public."""

import ast
from pathlib import Path

import cubamin


def test_every_imported_name_is_exported():
    tree = ast.parse(Path(cubamin.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    missing = sorted(n for n in imported if not n.startswith("_") and n not in cubamin.__all__)
    assert missing == []
