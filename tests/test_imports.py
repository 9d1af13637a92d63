import ast
import os
import pathlib
import subprocess
import sys

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


def test_only_the_cli_pauses_the_collector():
    # main pauses the cyclic collector around one command; a library call
    # never changes that process-wide state
    users = [p.name for p in sorted(SRC.glob("*.py"))
             if "gc" in imported_modules(p.read_text(encoding="utf-8"))]
    assert users == ["cli.py"]


def package_imports(source: str) -> set[str]:
    """The modules of this package a source file imports from."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names |= ({node.module} if node.module
                      else {alias.name for alias in node.names})
    return names


def test_the_gadget_imports_no_search():
    # reduction.py builds and maps the lifted graph from the graph type
    # alone; the exact searches on both of its sides run in
    # certificates.reduction_certificate
    source = (SRC / "reduction.py").read_text(encoding="utf-8")
    assert package_imports(source) == {"graph"}
    assert package_imports("from . import solver\nfrom .graph import Graph\n"
                           ) == {"solver", "graph"}


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


C5 = '{"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]}'

RUN_CLI = """
import contextlib, io, sys
from edgeforce.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, "numpy" in sys.modules)
"""


def fresh_python(code: str, *args: str) -> str:
    """Stdout of `code` run in a new interpreter that imports the package
    from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True,
                          check=True).stdout.strip()


@pytest.fixture
def c5(tmp_path):
    path = tmp_path / "c5.json"
    path.write_text(C5)
    return str(path)


def test_import_loads_no_numpy():
    assert fresh_python("import sys, edgeforce\n"
                        "print('numpy' in sys.modules)") == "False"


def test_import_loads_no_logging():
    # the package logs nothing, so importing it sets up no logger
    assert fresh_python("import sys, edgeforce\n"
                        "print('logging' in sys.modules)") == "False"


@pytest.mark.parametrize("argv", [
    ["bounds", "--r", "3"],
    ["generate", "butterfly", "--r", "3"],
    ["solve", "zf", "--graph", "{c5}"],
    ["solve", "ef", "--graph", "{c5}"],
], ids=" ".join)
def test_commands_that_pack_no_events_load_no_numpy(c5, argv):
    argv = [a.format(c5=c5) for a in argv]
    assert fresh_python(RUN_CLI, *argv) == "0 False"


def test_closure_loads_numpy(c5):
    # the boundary: the kernel packs a closure's events as numpy arrays
    assert fresh_python(RUN_CLI, "closure", "--graph", c5,
                        "--black", "0,1") == "0 True"
