import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "edgeforce"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never references."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def referenced_names(source: str) -> set[str]:
    """The names a source file defines, imports or reads; its docstrings
    and other strings do not count."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules a source file imports."""
    tree = ast.parse(source)
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names}
    names |= {node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 0}
    return {name.split(".")[0] for name in names}


def test_only_the_kernel_imports_numpy():
    # the closure's event arrays are the package's one numpy type
    users = [p.name for p in sorted(SRC.glob("*.py"))
             if "numpy" in imported_modules(p.read_text(encoding="utf-8"))]
    assert users == ["kernels.py"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom typing import Any, List\nx: Any\n"
                          ) == ["os (line 1)", "List (line 2)"]


def test_only_outside_input_is_validated():
    # the package generates BF(r) and the lifted gadget canonical; only
    # graphs read from JSON go through the validating constructor
    users = [p.name for p in sorted(SRC.glob("*.py")) if "from_edges"
             in referenced_names(p.read_text(encoding="utf-8"))]
    assert users == ["__init__.py", "certificates.py", "graph.py"]
