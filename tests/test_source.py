"""The package source read with the standard library's ``ast``: no module
imports a name it never uses, and every module-level private name is read
somewhere in the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "liecodim"

# ``__init__.py`` imports the public names in order to export them.
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the import statements of ``source`` (``__future__``
    features aside) that no other expression of it reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport math as m\n"
              "from fractions import Fraction, gcd\n"
              "x: Fraction = m.pi\n")
    assert unused_imports(source) == ["gcd", "os"]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_only_names_it_uses(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def private_definitions(source: str) -> set[str]:
    """The private names (one leading underscore, not dunder) that the
    top-level statements of ``source`` define: functions, classes and
    assigned names."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def names_read(source: str) -> set[str]:
    """The names ``source`` reads, as a bare name or as an attribute."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def test_private_definitions_and_reads_are_found():
    source = ("_A = 1\n_b: int = 2\n__all__ = []\nc = 3\n"
              "def _f():\n    return _A + m._g\n"
              "class _K:\n    _inner = 4\n")
    assert private_definitions(source) == {"_A", "_b", "_f", "_K"}
    assert {"_A", "_g", "m"} <= names_read(source)
    assert "_b" not in names_read(source)


def test_every_private_name_is_read_in_the_package():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    read = set().union(*map(names_read, sources))
    defined = set().union(*map(private_definitions, sources))
    assert len(defined) > 100
    assert sorted(defined - read) == []
