"""Source hygiene of the package: every exported name exists and every
module-level import is used, so a deletion leaves no stale export or
import behind; and no module rebinds its globals from a function."""

import ast
import importlib
from pathlib import Path

import pytest

import catebounds

PACKAGE = Path(catebounds.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_exports_exist(name):
    module = importlib.import_module(f"catebounds.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing, f"catebounds.{name}.__all__ names missing: {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_used(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
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
    unused = sorted((line, bound) for bound, line in imported.items()
                    if bound not in used)
    assert not unused, f"catebounds.{name}: unused imports (line, name) {unused}"


@pytest.mark.parametrize("name", MODULES)
def test_no_global_statement(name):
    # no function rebinds module state, so the package keeps no mutable
    # module-level switch such as a global gradient mode
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Global)]
    assert not lines, f"catebounds.{name}: global statement on lines {lines}"
