"""A module of the package uses only the public names of its siblings: an
underscore name is private to the module that defines it.  No module keeps
state between calls in module globals: what a call needs, such as the
kinematic pass DLS reads, is passed to it.  Nor does an object keep memo
state (``functools.cached_property``): a data type holds the arrays it is
built with, and the one reader of a derived quantity derives it.  And the
package runs on one thread: the benchmark's tracer (bench/spans.py) takes
a span's self time as its wall time less its children's, which holds only
while no two spans overlap."""

import ast
from pathlib import Path

import postgrasp

PACKAGE = Path(postgrasp.__file__).resolve().parent


def sibling_imports(tree: ast.Module):
    """(module, name) of every ``from .x import name`` or ``from postgrasp.x
    import name`` in a parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "postgrasp"
        ):
            for alias in node.names:
                yield node.module, alias.name


def test_no_private_names_imported_across_modules():
    private = [
        f"{path.name}: from {module} import {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for module, name in sibling_imports(ast.parse(path.read_text(), filename=str(path)))
        if name.startswith("_")
    ]
    assert private == []


def test_no_module_rebinds_a_global():
    found = [
        f"{path.name}:{node.lineno}: global {', '.join(node.names)}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Global)
    ]
    assert found == []


def test_no_module_uses_cached_property():
    found = [
        f"{path.name}:{node.lineno}: cached_property"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if "cached_property" in (getattr(node, key, None) for key in ("id", "attr", "name"))
    ]
    assert found == []


def absolute_imports(tree: ast.Module):
    """Every module named by an ``import x`` or an absolute ``from x import
    ...`` in a parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_no_module_imports_concurrency():
    found = [
        f"{path.name}: import {module}"
        for path in sorted(PACKAGE.glob("*.py"))
        for module in absolute_imports(ast.parse(path.read_text(), filename=str(path)))
        if module.split(".")[0] in ("threading", "concurrent", "multiprocessing")
    ]
    assert found == []
