"""Every module-level import in src/ and tests/ is used by its module.

A package `__init__.py` imports to re-export, so it is not scanned.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by the module's top-level imports that no name in it reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_scanner_flags_only_unread_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport re as regex\n"
              "from fractions import Fraction, gcd\n"
              "def f():\n    import sys\n    return Fraction(os.sep)\n")
    assert unused_imports(source) == [(3, "regex"), (4, "gcd")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
