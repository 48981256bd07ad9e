"""Properties of the package source itself."""

import ast
from pathlib import Path

import emeasure

SOURCES = sorted(Path(emeasure.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_the_package():
    """Invariants raise real errors; `python -O` strips assert statements."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found
