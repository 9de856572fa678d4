"""Checks on the package source itself."""

import ast
from pathlib import Path

import vslab

SOURCE = Path(vslab.__file__).parent


def test_no_assert_statements():
    # python -O strips assert statements, so an invariant guarded by one
    # goes unchecked; the package raises explicit exceptions instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
