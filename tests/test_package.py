"""Package surface: every name the top-level package imports is public,
and the runtime needs numpy alone."""

import ast
import os
import subprocess
import sys
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


def test_runtime_imports_numpy_only():
    """Importing the package and its CLI pulls in no test or tool package."""
    probe = (
        "import sys, cubamin, cubamin.cli; "
        "print(sorted(m for m in ('mpmath', 'hypothesis', 'pytest', 'scipy') "
        "if m in sys.modules))"
    )
    src = str(Path(cubamin.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"
