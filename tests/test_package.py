import ast
import os
import subprocess
import sys
from pathlib import Path

import amenlab

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    missing = [name for name in amenlab.__all__ if not hasattr(amenlab, name)]
    assert missing == []


def test_python_dash_m_runs_the_cli_from_a_checkout():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "amenlab", "--help"], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: amenlab")


def _module_level_names(tree, *, imports):
    """(name, line) of each module-level import (when `imports`) and each
    module-level ``_private`` function, class or assignment target."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if imports and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    yield (alias.asname or alias.name).partition(".")[0], node.lineno
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, node.lineno) for name in names
                    if name.startswith("_") and not name.startswith("__"))


def test_every_module_level_import_and_private_name_is_used():
    # __init__.py imports to re-export, so only its private names are checked
    unused = []
    for path in sorted((ROOT / "src" / "amenlab").glob("*.py")):
        tree = ast.parse(path.read_text())
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for name, line in _module_level_names(tree, imports=path.name != "__init__.py"):
            if name not in loaded:
                unused.append(f"{path.name}:{line} {name}")
    assert unused == []
