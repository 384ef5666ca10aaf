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


def test_every_module_uses_its_imports():
    """No module of the package keeps an import it no longer reads."""
    unused = []
    for path in sorted(Path(cubamin.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += ["%s: %s" % (path.name, n) for n in sorted(imported - used)]
    assert unused == []


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
