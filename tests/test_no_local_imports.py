"""Library modules import at module level only, so each module's imports
say what it depends on.  The module import graph is acyclic, so no
import needs to be deferred into a function to break a cycle."""

import ast
import pathlib

import pytest

import betahole

MODULES = sorted(pathlib.Path(betahole.__file__).parent.glob("*.py"))


def _local_imports(tree):
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for node in ast.walk(top):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    yield node.lineno


def test_modules_found():
    assert {p.name for p in MODULES} >= {"cli.py", "lyndon_intervals.py", "windows.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_level_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert list(_local_imports(tree)) == []
