"""Source hygiene of the package: every exported name exists and every
module-level import is used, in the package and in its tests, so a deletion
leaves no stale export or import behind; no module rebinds its globals
from a function; nothing in the package imports scipy; and only
`catebounds.data` imports csv."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import catebounds

PACKAGE = Path(catebounds.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))
TESTS = Path(__file__).parent
TEST_MODULES = sorted(p.stem for p in TESTS.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_exports_exist(name):
    module = importlib.import_module(f"catebounds.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing, f"catebounds.{name}.__all__ names missing: {missing}"


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each module-level import of `path` that no name in
    the module reads."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, bound) for bound, line in imported.items()
                  if bound not in used)


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_used(name):
    unused = unused_imports(PACKAGE / f"{name}.py")
    assert not unused, f"catebounds.{name}: unused imports (line, name) {unused}"


@pytest.mark.parametrize("name", TEST_MODULES)
def test_test_module_imports_used(name):
    unused = unused_imports(TESTS / f"{name}.py")
    assert not unused, f"tests/{name}.py: unused imports (line, name) {unused}"


@pytest.mark.parametrize("name", MODULES)
def test_no_global_statement(name):
    # no function rebinds module state, so the package keeps no mutable
    # module-level switch such as a global gradient mode
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Global)]
    assert not lines, f"catebounds.{name}: global statement on lines {lines}"


def imports_of(path: Path, package: str) -> list[int]:
    """Lines of `path` that import `package` or one of its submodules,
    anywhere in the module, function bodies included."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(n.split(".")[0] == package for n in names):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("name", MODULES)
def test_no_scipy_import(name):
    # scipy is a test-only oracle: importing it costs every CLI process
    # about 0.15 s and 20 MiB before any work starts
    lines = imports_of(PACKAGE / f"{name}.py", "scipy")
    assert not lines, f"catebounds.{name}: imports scipy on lines {lines}"


@pytest.mark.parametrize("name", [m for m in MODULES if m != "data"])
def test_only_data_imports_csv(name):
    # `data.write_tables` and `data.read_table` hold the one cell format, so
    # no other module reads or writes CSV cells itself
    lines = imports_of(PACKAGE / f"{name}.py", "csv")
    assert not lines, f"catebounds.{name}: imports csv on lines {lines}"


def test_cli_import_loads_no_scipy():
    code = ("import sys, catebounds.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]", f"import catebounds.cli loaded {out.strip()}"
