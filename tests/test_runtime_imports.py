"""The runtime depends on numpy alone: every module of the package imports
only numpy, the standard library and the package itself."""

import ast
import pathlib
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "coprox"
ALLOWED = {"numpy", "coprox"} | set(sys.stdlib_module_names)


def _imported_tops(tree: ast.Module):
    """Top-level names of the absolute imports in a module; relative
    imports stay inside the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_numpy_and_stdlib(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert sorted(set(_imported_tops(tree)) - ALLOWED) == []


def test_the_package_has_modules():
    assert len(list(PACKAGE.glob("*.py"))) > 1
