"""Properties of the package source itself."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import emeasure

PACKAGE = Path(emeasure.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
DATA = Path(__file__).parent / "data"


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


def _yaml_uses(tree: ast.Module) -> tuple[list[str], list[str]]:
    """Where the module imports yaml, by the name of the innermost function
    around each import ("<module>" outside any), and the safe_load names it
    touches."""
    sites, loads = [], []
    todo = [(tree, "<module>")]
    while todo:
        node, where = todo.pop()
        if isinstance(node, ast.Import):
            sites += [where for a in node.names if a.name.split(".")[0] == "yaml"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "yaml":
            sites.append(where)
            loads += [a.name for a in node.names if a.name.startswith("safe_load")]
        elif isinstance(node, ast.Attribute) and node.attr.startswith("safe_load"):
            loads.append(f"{node.attr}:{node.lineno}")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        todo += [(child, where) for child in ast.iter_child_nodes(node)]
    return sites, loads


def _private_loader_uses(tree: ast.Module) -> list[int]:
    """Lines that reach fileio's private ``_load_yaml``, by attribute or import."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "_load_yaml")
        or (isinstance(node, ast.ImportFrom) and any(a.name == "_load_yaml" for a in node.names))
    ]


def test_yaml_is_read_only_through_the_fileio_loader():
    """One loader for every file read: fileio's, never the pure-Python
    safe_load, and other modules read files through the public fileio.load_*.
    yaml is imported in one place, fileio's accessor `_yaml`, so that only
    a read that needs it pays for the import."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        sites, loads = _yaml_uses(tree)
        if sites != (["_yaml"] if path.name == "fileio.py" else []):
            found.append(f"{path.name} imports yaml in {sites}")
        found += [f"{path.name} calls {name}" for name in loads]
        if path.name != "fileio.py":
            found += [f"{path.name}:{line} calls fileio._load_yaml" for line in _private_loader_uses(tree)]
    assert SOURCES and not found


# Runs argv in DATA in a fresh interpreter, then the corpus case whose file
# the line reader declines; prints both exit codes and the modules loaded
# after each run.
_START_UP = """
import contextlib, io, json, os, sys
import emeasure, emeasure.cli
os.chdir(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [emeasure.cli.main(sys.argv[2:])]
    after_run = sorted(sys.modules)
    codes.append(emeasure.cli.main(["space", "--space", "bad_yaml.yaml"]))
print(json.dumps([codes, after_run, sorted(sys.modules)]))
"""


COIN = ["--space", "space_coin.yaml", "--model", "model_coin.yaml", "--kernel", "kernel_coin_t2.yaml"]
IC = ["--space", "space_gens_ic.yaml"]
# One command line per subcommand on table-shaped files, with levels spelled
# as a decimal, a ratio and an exponent.
START_UP_ARGVS = (
    ["check", *COIN, "--format", "records"],
    ["check", *COIN, "--check", "posthoc", "--rule", "1/2"],
    ["space", "--space", "space_coin.yaml"],
    ["closure", *IC, "--evidence", "evidence_ic_measure.yaml"],
    ["mtp", "--procedure", "ebh", *IC, "--evidence", "evidence_ic_large.yaml",
     "--family", "a|c|a,b|c,d", "--alpha", "0.05"],
    ["mtp", "--golden", "table1", "--alpha", "1/10"],
    ["decide", *COIN, "--decisions", "decisions_coin.yaml", "--bound", "probability",
     "--alpha", "5e-2"],
)


def test_a_table_shaped_run_loads_the_package_and_nothing_it_does_not_need():
    """The start-up contract: a fresh interpreter that imports the CLI and
    runs any subcommand on table-shaped files has loaded every package
    module and none of dataclasses, inspect, yaml and argparse, nor
    fractions, decimal and numbers, which ``Fraction`` would load; a
    document that needs the full YAML path is what loads yaml."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    package = {f"emeasure.{path.stem}" for path in SOURCES if path.stem != "__init__"}
    unneeded = {"dataclasses", "inspect", "yaml", "argparse", "fractions", "decimal", "numbers"}
    for argv in START_UP_ARGVS:
        done = subprocess.run(
            [sys.executable, "-c", _START_UP, str(DATA), *argv],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        codes, after_run, after_fallback = json.loads(done.stdout)
        assert codes == [0, 2], argv
        assert package <= set(after_run)
        assert unneeded.isdisjoint(after_run), (argv, unneeded & set(after_run))
        assert "yaml" in after_fallback


def test_no_module_imports_fractions():
    """The package has one number type, XValue; a Fraction a caller passes
    is read by its numerator and denominator."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "fractions"
    ]
    assert SOURCES and not found


PRIVATE_PARTS = ("_num", "_den", "_numerator", "_denominator")


def test_private_rational_parts_are_read_only_in_xvalue():
    """The integer fast paths on XValue and Fraction internals stay in one module."""
    found = [
        f"{path.name}:{node.lineno} reads .{node.attr}"
        for path in SOURCES
        if path.name != "xvalue.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in PRIVATE_PARTS
    ]
    assert SOURCES and not found


def _float_calls(tree: ast.Module) -> list[int]:
    """Lines that call the builtin float or any attribute named to_float."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id == "float")
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "to_float")
        )
    ]


def test_no_module_turns_a_value_into_a_float():
    """Every result is an exact rational; no rendering or ordering goes through floats."""
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in _float_calls(ast.parse(path.read_text()))
    ]
    assert SOURCES and not found


def test_one_entry_shape_for_every_check():
    """Every statistic held against a bound is a kernels.Entry; no check
    defines its own entry class."""
    found = [
        f"{path.name}:{node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and node.name.endswith("Entry")
    ]
    assert found == ["kernels.py:Entry"]


def test_one_report_class_for_every_check():
    """Every check's pairs fill one report class, kernels.Report: no other
    package class defines `first_violation`."""
    found = [
        f"{path.name}:{node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and any(
            isinstance(item, ast.FunctionDef) and item.name == "first_violation" for item in node.body
        )
    ]
    assert found == ["kernels.py:Report"]


def _calls(tree: ast.Module, name: str) -> list[str]:
    """The innermost function around each call of `name`, by name or as an
    attribute: "<module>" outside any, "<lambda>" in a lambda."""
    found = []
    todo = [(tree, "<module>")]
    while todo:
        node, where = todo.pop()
        if isinstance(node, ast.Call) and name in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        ):
            found.append(where)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        elif isinstance(node, ast.Lambda):
            where = "<lambda>"
        todo += [(child, where) for child in ast.iter_child_nodes(node)]
    return found


def test_one_pair_walk_computes_every_bounded_expectation():
    """Validity, post-hoc levels, the E-posteriors, the pushforward
    re-check, FWE, FER, the predictive sup and decide's bounds are one
    (member, point) walk, and the anytime envelope is that walk's other
    statistic: in every module, the one call of `dot_at_most` is in
    `kernels._pair_report`."""
    calls = [
        f"{path.stem}.{where}"
        for path in SOURCES
        for where in _calls(ast.parse(path.read_text()), "dot_at_most")
    ]
    assert calls == ["kernels._pair_report"]


def test_only_the_pair_walk_builds_a_report():
    """Every statistic held against a bound fills its `kernels.Report` in
    `kernels._pair_report`, the anytime envelope and the predictive
    identity included: no other function builds a `Report`."""
    calls = sorted(
        f"{path.stem}.{where}"
        for path in SOURCES
        for where in _calls(ast.parse(path.read_text()), "Report")
    )
    assert calls == ["kernels._pair_report"]


# Top-level definitions kept although no subcommand reaches them, each with
# the reason it stays.
UNREACHED_KEPT = {
    "eposterior": "the paper's E-posterior; waits for a posterior check on the command line",
    "close_kernel": "the posterior closes its product with it on intersection-closed spaces",
    "pushforward_kernel": "predictive E-measures of a derived quantity; may get a --map option",
    "preimages": "the target-member preimages the pushforward reads",
}


def _is_method(node: ast.AST) -> bool:
    """A function in a class body that code calls by name: not a dunder,
    which the language calls for the class."""
    return isinstance(node, ast.FunctionDef) and not (
        node.name.startswith("__") and node.name.endswith("__")
    )


def _definitions() -> dict[str, list[ast.AST]]:
    """Top-level functions and classes of every module but __init__, and the
    methods in their class bodies, by name; each module's other top-level
    statements under "<module>"."""
    found: dict[str, list[ast.AST]] = {}
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found.setdefault(node.name, []).append(node)
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if _is_method(item):
                        found.setdefault(item.name, []).append(item)
            else:
                found.setdefault(f"<{path.stem}>", []).append(node)
    return found


def _mentions(node: ast.AST):
    """Every name and attribute under `node`; a class's own methods are
    definitions of their own and are not walked with it."""
    todo = [node]
    while todo:
        sub = todo.pop()
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        children = ast.iter_child_nodes(sub)
        if isinstance(sub, ast.ClassDef):
            children = [child for child in children if not _is_method(child)]
        todo.extend(children)


def _unreached() -> set[str]:
    """Definitions no walk from cli.py reaches, by name.

    The walk starts at every definition in cli.py and at the statements an
    import runs, and follows every name and attribute a reached definition
    mentions to every definition of that name, a method's too. Re-exports in
    __init__ do not count, so a name that only tests use is unreached. The
    walk matches attributes by name, not by owner: a method that only
    tests call is reached when cli.py reads an attribute of the same name
    on another object.
    """
    found = _definitions()
    cli = ast.parse((PACKAGE / "cli.py").read_text())
    todo = [name for name in found if name.startswith("<")]
    todo += [node.name for node in cli.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    reached = set(todo)
    while todo:
        for node in found[todo.pop()]:
            for name in _mentions(node):
                if name in found and name not in reached:
                    reached.add(name)
                    todo.append(name)
    return set(found) - reached


def test_every_definition_is_reached_from_a_subcommand_or_kept_for_a_reason():
    """Code no subcommand reaches is deleted, or moves to tests/helpers.py
    as a fixture or an oracle, unless the keep-list names why it stays;
    a kept name must still exist and still be unreached."""
    unreached = _unreached()
    assert sorted(unreached - set(UNREACHED_KEPT)) == []
    assert sorted(set(UNREACHED_KEPT) - unreached) == []


# The lines of src/emeasure/*.py, as `wc -l` counts them.
LINE_BUDGET = 4133


def test_the_package_stays_within_its_line_budget():
    """Progress is counted in deleted lines: the package may not grow past
    its budget. A change that raises the budget says by how much and why
    in CHANGES.md; a change that lowers the line count lowers the budget
    to match."""
    lines = sum(path.read_text().count("\n") for path in SOURCES)
    assert lines <= LINE_BUDGET, lines
