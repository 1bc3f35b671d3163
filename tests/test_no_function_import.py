"""Only the CLI imports inside a function.

Each command loads the layers it calls when it runs, which keeps a query
from compiling layers it never uses; every other module imports its
layers at the top, so what it depends on is read from its head.
"""

import ast
import pathlib

import loomfold

PACKAGE = pathlib.Path(loomfold.__file__).parent


def test_no_function_level_import_outside_cli():
    modules = sorted(path for path in PACKAGE.glob("*.py") if path.name != "cli.py")
    assert len(modules) >= 9
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for fn in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []
