"""Static checks of the library source by the stdlib ``ast``: every name a
module imports is used in that module, one function holds the one
three-index numpy pass, and every error class is raised and tested."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "otlab"


def unused_imports(source: str) -> list:
    """Names bound by an import statement of ``source`` that no expression
    reads (``from __future__`` imports excluded)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_finds_an_unused_name():
    source = "from __future__ import annotations\nimport os, sys\nfrom a import b as c, d\nd(sys)\n"
    assert unused_imports(source) == [(2, "os"), (3, "c")]


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"))
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports((PACKAGE / path).read_text(encoding="utf-8")) == []


def three_index_passes(source: str) -> list:
    """``(function, line)`` of each subscript of ``source`` with three
    indices, one of them ``None`` (a broadcast into a third axis), named
    by the innermost function around it."""
    where = {}
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)
                        and len(node.slice.elts) == 3
                        and any(isinstance(e, ast.Constant) and e.value is None
                                for e in node.slice.elts)):
                    where[node] = (func.name, node.lineno)
    return sorted(where.values(), key=lambda f: f[1])


def test_the_check_finds_a_three_index_pass():
    source = "def f(a):\n    def g(b):\n        return b[:, None, :]\n    return a[:, None] + a[None, :, 0]\n"
    assert three_index_passes(source) == [("g", 3), ("f", 4)]


def test_the_min_plus_kernel_is_the_one_three_index_pass():
    found = [(path.name, name) for path in sorted(PACKAGE.glob("*.py"))
             for name, _ in three_index_passes(path.read_text(encoding="utf-8"))]
    assert found == [("core.py", "min_plus_arrays")]


def raised_names(source: str) -> set:
    """Names of the classes that a ``raise`` of ``source`` raises, called
    (``raise E(...)``) or bare (``raise E``)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def referenced_names(source: str) -> set:
    """Every name ``source`` reads, bare (``E``) or as an attribute (``m.E``)."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute))}


def test_the_check_finds_raised_and_referenced_names():
    source = "def f(x):\n    if x:\n        raise A('a') from None\n    raise B\nraise m.C()\n"
    assert raised_names(source) == {"A", "B"}
    assert referenced_names("pytest.raises(errors.D)\nE\n") == {"pytest", "raises", "errors", "D", "E"}


def test_every_error_class_is_raised_and_tested():
    """Each class of ``errors.py`` has a ``raise`` in some library module
    and is named by some test file."""
    errors = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    classes = [node.name for node in errors.body if isinstance(node, ast.ClassDef)]
    raised = set().union(*(raised_names(path.read_text(encoding="utf-8"))
                           for path in PACKAGE.glob("*.py")))
    tested = set().union(*(referenced_names(path.read_text(encoding="utf-8"))
                           for path in TESTS.glob("*.py")))
    assert [name for name in classes if name not in raised] == []
    assert [name for name in classes if name not in tested] == []
