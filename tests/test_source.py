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


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name}:{line}" for name, line in imported.items() if name not in used]


def test_every_imported_name_is_used_in_its_module():
    """Re-exports in __init__.py are the one place an import need not be used."""
    found = [
        f"{path.name}:{entry}"
        for path in SOURCES
        if path.name != "__init__.py"
        for entry in _unused_imports(ast.parse(path.read_text()))
    ]
    assert SOURCES and not found
