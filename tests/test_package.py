import ast
import os
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

import amenlab
from amenlab import cli
from amenlab.balance import BalanceWitness, UnbalanceWitness
from amenlab.linprog import FeasibilityOutcome, Optimum
from amenlab.ramsey import RamseyCounterexample

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


def _modules_after(code: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    listing = "import sys; print(*sorted(sys.modules), sep='\\n')"
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{listing}"], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_importing_the_cli_loads_no_code_generation_or_introspection_modules():
    # measured against a bare interpreter, so the host's site packages cancel out
    added = _modules_after("import amenlab.cli") - _modules_after("pass")
    assert "amenlab.cli" in added
    assert added & {"dataclasses", "inspect", "ast", "dis", "string"} == set()


@pytest.mark.parametrize(
    "record",
    [
        Optimum(Q(1, 2), (Q(1, 2), Q(0)), (Q(1),)),
        FeasibilityOutcome(True, (Q(1, 3),)),
        BalanceWitness((Q(1),), (Q(1), Q(0)), Q(1, 2)),
        UnbalanceWitness((Q(1), Q(-1)), Q(1)),
        RamseyCounterexample(1, (), "empty_interior", {}),
        cli.Command("name", "help", print),
    ],
    ids=lambda record: type(record).__name__,
)
def test_records_refuse_assignment_and_compare_by_value(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert record == type(record)(*record)
    assert record != record._replace(**{field: None})


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
