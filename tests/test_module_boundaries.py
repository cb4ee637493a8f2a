"""A module of the package uses only the public names of its siblings: an
underscore name is private to the module that defines it.  No module keeps
state between calls in module globals: what a call needs, such as the
kinematic pass DLS reads, is passed to it.  Nor does an object keep memo
state (``functools.cached_property``): a data type holds the arrays it is
built with, and the one reader of a derived quantity derives it.  And the
package runs on one thread: the benchmark's tracer (bench/spans.py) takes
a span's self time as its wall time less its children's, which holds only
while no two spans overlap.  And the package declares what it imports:
pyproject.toml's dependencies are exactly its third-party imports, and the
test extra covers the rest of what the suite imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

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


def _third_party_imports(paths, local=()):
    """The top-level modules that the files import, less the standard
    library, relative imports and the ``local`` names."""
    found = set()
    for path in paths:
        for module in absolute_imports(ast.parse(path.read_text(), filename=str(path))):
            top = module.split(".")[0]
            if top not in sys.stdlib_module_names and top not in local:
                found.add(top)
    return found


def _requirement_names(requirements):
    """The distribution names of PEP 508 requirement strings, as a module
    would be imported (lowercase, ``-`` as ``_``)."""
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_") for req in requirements}


def test_declared_dependencies_are_imported_and_complete():
    # a module that is installed here but not declared would pass the
    # suite on this machine and fail on a clean install
    tomllib = pytest.importorskip("tomllib")  # the standard library from 3.11
    root = PACKAGE.parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    runtime = _requirement_names(project["dependencies"])
    test_extra = _requirement_names(project["optional-dependencies"]["test"])
    assert _third_party_imports(PACKAGE.glob("*.py")) == runtime
    tests = sorted((root / "tests").glob("*.py"))
    local = {"postgrasp", *(path.stem for path in tests)}
    assert _third_party_imports(tests, local) <= runtime | test_extra
