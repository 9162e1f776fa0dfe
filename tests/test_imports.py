"""Every name a library module imports is used in it: a stdlib-`ast` check
over `src/rmikit/*.py`. The package's `__init__.py` is left out, since
it imports names only to re-export them."""

import ast
from pathlib import Path

import rmikit

MODULES = sorted(path for path in Path(rmikit.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source):
    """The names that `source` binds by an import and never loads, in
    the order imported; `from __future__` imports are directives, not
    names."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0]
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name)}
    return [name for name in imported if name not in loaded]


def test_unused_import_is_found():
    source = ("from __future__ import annotations\nimport os.path\n"
              "import json\nfrom re import compile as rc, escape\n"
              "print(os.sep, escape)\n")
    assert unused_imports(source) == ["json", "rc"]


def test_library_modules_use_every_import():
    assert len(MODULES) >= 9
    unused = {path.name: names for path in MODULES
              if (names := unused_imports(path.read_text()))}
    assert unused == {}
