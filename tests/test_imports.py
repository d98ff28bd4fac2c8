"""Every module-level import in the package is used by its module."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "pairsat"


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that nothing in the
    module reads; `from __future__` imports are directives, not names."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_finder_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, os.path\nimport sys as system\nfrom math import pi, tau\n"
              "def f(x: system.Thing) -> float:\n    return os.sep, pi\n")
    assert unused_imports(source) == ["tau"]


# __init__.py imports only to re-export
@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"), ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []
