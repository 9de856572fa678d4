"""Checks on the package source itself."""

import ast
from pathlib import Path

import vslab

SOURCE = Path(vslab.__file__).parent


def _raises_assertion_error(node):
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements():
    # python -O strips assert statements, so an invariant guarded by one
    # goes unchecked; a raised AssertionError escapes the VslabError -> exit 2
    # mapping.  The package raises BrokenInvariant instead of either.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert) or _raises_assertion_error(node)
    ]
    assert found == []


def _names(path):
    """Every identifier a module names: variables, attributes and imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_one_module_starts_sweeps():
    # every engine count is read off the FamilyStats that the CLI's instance
    # loop collects; the oracles in counting must not see the engine at all
    starts = sorted(
        path.name
        for path in SOURCE.glob("*.py")
        if path.name not in ("sweep.py", "cli.py")
        and "collect_stats" in _names(path)
    )
    assert starts == []
    assert "FamilyStats" not in _names(SOURCE / "counting.py")
