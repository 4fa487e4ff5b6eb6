"""Package surface: what ``import hyplab`` loads and what it exports."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyplab

MODULES = [
    "appendixcheck", "chebconnect", "cli", "core", "dual", "families",
    "linearization", "measures", "quadrature", "verify",
]


def test_import_leaves_scipy_unloaded():
    # scipy is imported only inside the functions that need it, which keeps
    # it out of the start-up cost of every command
    src = str(Path(hyplab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, hyplab; print(sorted(m for m in sys.modules "
         "if m == 'scipy' or m.startswith('scipy.')))"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"hyplab.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing


def test_package_imports_resolve_to_their_modules():
    # every name hyplab/__init__.py takes from a submodule is public there
    tree = ast.parse(Path(hyplab.__file__).read_text())
    for node in tree.body:
        if not (isinstance(node, ast.ImportFrom) and node.level):
            continue
        module = importlib.import_module(f"hyplab.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)
            assert getattr(hyplab, alias.name) is getattr(module, alias.name)


def test_no_assert_statements_in_the_package():
    # assert statements vanish under python -O; runtime checks must raise
    found = []
    for path in sorted(Path(hyplab.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found
