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


def test_no_module_imports_a_private_name_from_another():
    # A private name imported from a sibling module couples the two: what one
    # module needs of another is public.
    crossing = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                crossing |= {(path.stem, node.module, a.name) for a in node.names if a.name.startswith("_")}
    assert not crossing, sorted(crossing)


# Public names that nothing outside their unit tests calls, each kept for a reason.
UNCALLED_PUBLIC_NAMES = {
    "circuit.render_circuit": "ROADMAP item 8's fuzz shrinker writes its minimal .qc files with it",
    "gates.ketbra": "the paper's Dirac formalism: the outer product |a><b| as an algebra element",
    "multivector.hermitian_inner": "witt.spinor_inner is tested against it",
    "witt.is_spinor": "membership in the spinor ideal",
}


def _names(tree):
    """Names that ``tree`` reads or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def test_every_public_name_has_a_caller_beyond_its_unit_tests():
    # A public function, class, or method or property of a class, needs a
    # caller: any other top-level statement of the package, the benchmark or
    # the acceptance suite; __init__ only re-exports, so it calls nothing.
    root = SRC.parents[1]
    statements = [
        (path.stem, node, _names(node))
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "__init__"
        for node in ast.parse(path.read_text(), filename=str(path)).body
    ]
    outside = [*sorted((root / "bench").rglob("*.py")), root / "tests" / "test_acceptance.py"]
    elsewhere = set().union(*(_names(ast.parse(p.read_text(), filename=str(p))) for p in outside))
    uncalled = set()
    for stem, node, _ in statements:
        defs = [(node.name, node)] if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else []
        if isinstance(node, ast.ClassDef):
            defs += [(f"{node.name}.{d.name}", d) for d in node.body if isinstance(d, ast.FunctionDef)]
        callers = elsewhere.union(*(names for _, other, names in statements if other is not node))
        uncalled |= {f"{stem}.{qual}" for qual, d in defs if not d.name.startswith("_") and d.name not in callers}
    assert uncalled == set(UNCALLED_PUBLIC_NAMES), (
        sorted(uncalled - set(UNCALLED_PUBLIC_NAMES)),
        sorted(set(UNCALLED_PUBLIC_NAMES) - uncalled),
    )
