"""Every module-level import in the package is used by its module, and the
package's settable values do not grow."""

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


# parameters with defaults plus dataclass fields with defaults in src/pairsat;
# lower it when an option goes, and let a new option replace an old one
MAX_SETTABLE_VALUES = 60


def settable_values(source: str, module: str) -> list[str]:
    """Every parameter with a default, as `module.function(name)`, and every
    dataclass field with a default, as `module.Class.name`."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            function = getattr(node, "name", "<lambda>")
            names += [f"{module}.{function}({arg.arg})" for arg in defaulted]
        elif isinstance(node, ast.ClassDef) and any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                for d in node.decorator_list):
            names += [f"{module}.{node.name}.{item.target.id}" for item in node.body
                      if isinstance(item, ast.AnnAssign) and item.value is not None]
    return names


def test_settable_value_finder():
    source = ("from dataclasses import dataclass\n"
              "@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int = 0\n"
              "class B:\n    z: int = 0\n"
              "def f(a, b=1, *, c, d=2):\n    return lambda e=3: e\n")
    assert sorted(settable_values(source, "m")) == [
        "m.<lambda>(e)", "m.A.y", "m.f(b)", "m.f(d)"]


def test_settable_values_do_not_grow():
    names = [name for path in sorted(PACKAGE.glob("*.py"))
             for name in settable_values(path.read_text(), path.stem)]
    assert len(names) <= MAX_SETTABLE_VALUES, (
        f"{len(names)} settable values, over {MAX_SETTABLE_VALUES}:\n" + "\n".join(names))
