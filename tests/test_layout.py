"""Module layout of the package, checked on its source with ``ast``: no
module reaches into another's private names, and the command line is a
thin layer over ``teardrop.tables``.  Importing the command line leaves
the ODE solvers unloaded."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "teardrop"
MODULES = sorted(SRC.glob("*.py"))


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _teardrop_imports(path):
    """(module, name) for each name that ``path`` imports from the package;
    ``from . import x`` gives (None, "x")."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "teardrop":
                continue
            if node.level == 0:
                module = module.partition(".")[2]
            for alias in node.names:
                yield module or None, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "teardrop":
                    yield alias.name.partition(".")[2] or None, None


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = list(_teardrop_imports(path))
    modules = {name for module, name in imported if module is None and name}
    private = [f"{module or 'teardrop'}.{name}" for module, name in imported
               if name and _is_private(name)]
    private += [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules and _is_private(node.attr)
    ]
    assert private == []


def test_cli_uses_only_tables():
    used = {module.split(".")[0] if module else name
            for module, name in _teardrop_imports(SRC / "cli.py")}
    assert "tables" in used
    assert used <= {"tables", "artifacts", "__version__"}


def test_cli_import_leaves_integrators_unloaded():
    # only integrate_trajectory needs scipy.integrate, and imports it itself
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    code = "import sys, teardrop.cli; print('scipy.integrate' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def test_cli_import_leaves_root_finders_unloaded():
    # only the turning-point cubic and the level solver need scipy.optimize,
    # and each imports it itself
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    code = "import sys, teardrop.cli; print('scipy.optimize' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
