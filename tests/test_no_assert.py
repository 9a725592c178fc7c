"""The package checks its invariants with explicit raises: ``python -O``
strips ``assert`` statements, which would silently drop a check."""

import ast
import pathlib

import unimaps

SOURCE = pathlib.Path(unimaps.__file__).parent


def test_package_has_no_assert_statement():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SOURCE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert len(list(SOURCE.glob("*.py"))) > 5
    assert found == []
