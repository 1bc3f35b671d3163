"""Invariant checks in the package are exceptions, never bare asserts.

`python -O` strips `assert` statements, so a check written as one would
stop guarding anything under optimization.
"""

import ast
import pathlib

import loomfold

PACKAGE = pathlib.Path(loomfold.__file__).parent


def test_no_assert_in_package():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
