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
    private = {"minimize_lbfgs", "_q1_quadrature"}
    offenders = []
    for path in SRC:
        if path.name == "cellsolver.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                offenders += [f"{path.name}: {a.name}" for a in node.names if a.name in private]
    assert not offenders, f"solver internals imported outside cellsolver.py: {offenders}"
