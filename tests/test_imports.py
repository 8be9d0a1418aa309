import ast
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parents[1] / "src" / "bdrelax").glob("*.py"))


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_unused_imports(path):
    """Every name a module imports is read somewhere in it (a bare name, the
    root of an attribute chain, or a quoted annotation)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for n in ast.walk(tree):
        if isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            used.add(n.value)
    unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_solver_internals_stay_in_cellsolver():
    """Only cellsolver.py imports the L-BFGS minimizer and the Q1 element
    kernel: every cell problem is solved through its multistart driver."""
    private = {"minimize_lbfgs", "lbfgs_steps", "_q1_quadrature"}
    offenders = []
    for path in SRC:
        if path.name == "cellsolver.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                offenders += [f"{path.name}: {a.name}" for a in node.names if a.name in private]
    assert not offenders, f"solver internals imported outside cellsolver.py: {offenders}"


def test_no_threads_outside_util():
    """The multistarts run in lockstep on one thread: no module but util.py
    (which keeps pmap for the benchmark's tracer) names a thread pool."""
    banned = {"pmap", "ThreadPoolExecutor", "threading"}
    offenders = []
    for path in SRC:
        if path.name == "util.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = set()
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
            elif isinstance(node, ast.ImportFrom) and node.module:
                names.update(node.module.split("."))
            offenders += [f"{path.name}:{node.lineno}: {n}" for n in sorted(names & banned)]
    assert not offenders, f"thread pools named outside util.py: {offenders}"
