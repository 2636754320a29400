"""Library invariants are raised as InvariantError, never by ``assert``
(stripped under ``python -O``) or ``AssertionError`` (a traceback from
the CLI instead of exit code 3)."""

import ast
import pathlib

import pytest

import betahole

MODULES = sorted(pathlib.Path(betahole.__file__).parent.glob("*.py"))


def _assertion_sites(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node.lineno, "raise AssertionError"


def test_modules_found():
    assert {p.name for p in MODULES} >= {"cli.py", "seq_core.py", "windows.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_or_assertion_error(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert list(_assertion_sites(tree)) == []
