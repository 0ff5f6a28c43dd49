"""Checks on the package source itself."""

import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cliffsim"


def test_no_module_imports_a_name_it_does_not_use():
    # __init__ imports names only to re-export them.
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]
    assert not unused, unused


def test_readme_layout_names_only_what_exists():
    # Each backticked identifier in a `cliffsim.<module>` row of README's Layout
    # table is an attribute of that module or of one of its classes.
    readme = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `cliffsim\.(\w+)` \|(.*)\|$", readme, flags=re.M)
    assert rows
    missing = []
    for module_name, contents in rows:
        module = importlib.import_module(f"cliffsim.{module_name}")
        known = set(dir(module))
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                known |= set(dir(cls))
                if dataclasses.is_dataclass(cls):
                    known |= {f.name for f in dataclasses.fields(cls)}
        names = [n for n in re.findall(r"`([^`]+)`", contents) if n.isidentifier() and n != "cliffsim"]
        missing += [f"{module_name}: {n}" for n in names if n not in known]
    assert not missing, missing


def test_private_names_cross_only_the_pinned_module_boundaries():
    # A private name imported from a sibling module couples the two; these four are the kernel's seams.
    allowed = {
        ("circuit", "gates", "_apply_tables"),
        ("circuit", "gates", "_gate_table"),
        ("gates", "witt", "_pauli_string"),
        ("gates", "witt", "_paulis_to_blades"),
    }
    crossing = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                crossing |= {(path.stem, node.module, a.name) for a in node.names if a.name.startswith("_")}
    assert crossing <= allowed, sorted(crossing - allowed)
