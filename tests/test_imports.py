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
    """Only cellsolver.py imports the L-BFGS minimizer, the Q1 element
    kernel, the symmetric strain operator, the primal-dual finish and the
    duality-gap certificates of the conforming and the SBD cells: every cell
    problem is solved and certified through its multistart driver."""
    private = {"minimize_lbfgs", "lbfgs_steps", "_q1_quadrature", "_dual_bound", "_sbd_bound",
               "_SymStrain", "_pdhg"}
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


def test_conjugates_are_declared_in_density():
    """The conjugates are data of single integrands: every dual_datum
    written out as a tuple, bulk (c, m) or surface (r, k), is in density.py,
    each SurfaceIntegrand there declares one, and the bounds that read them
    are defined in cellsolver.py alone."""
    offenders, surfaces, bounds = [], [], {}
    for path in SRC:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name in ("_dual_bound", "_sbd_bound"):
                bounds.setdefault(node.name, []).append(path.name)
            if not isinstance(node, ast.Call):
                continue
            declared = [kw for kw in node.keywords
                        if kw.arg == "dual_datum" and isinstance(kw.value, ast.Tuple)]
            if declared and path.name != "density.py":
                offenders.append(f"{path.name}:{node.lineno}: dual_datum=(...)")
            if (path.name == "density.py" and isinstance(node.func, ast.Name)
                    and node.func.id == "SurfaceIntegrand"):
                surfaces.append(bool(declared))
    assert not offenders, f"conjugates declared outside density.py: {offenders}"
    assert surfaces and all(surfaces), "a surface integrand of the corpus declares no dual_datum"
    assert bounds == {"_dual_bound": ["cellsolver.py"], "_sbd_bound": ["cellsolver.py"]}


def test_certificate_applies_one_strain_form():
    """In cellsolver.py only the element kernel _q1_quadrature and
    _SymStrain.__init__ (which forms the unit-field strains Bc once) call the
    kernel's strain half _q1_strains: the certificate and the primal-dual
    finish apply the strain operator in one form, through Bc."""
    callers = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "_q1_strains"):
                callers.add(scope)
            visit(child, scope)

    visit(ast.parse((SRC[0].parent / "cellsolver.py").read_text(encoding="utf-8")), "")
    assert callers == {"_q1_quadrature", "_SymStrain.__init__"}


def test_one_lower_bound_path():
    """No module passes a `floor=` declaration: the only floor is the zero
    every raw density has, and it needs no datum. Inside _SymStrain only
    __init__, K and KT index field entries (slots, gather or scatter): the
    certificate and its CG apply the one product KT H K, with no second
    stiffness product beside it."""
    offenders = []
    for path in SRC:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                offenders += [f"{path.name}:{node.lineno}: floor=" for kw in node.keywords
                              if kw.arg == "floor"]
    tree = ast.parse((SRC[0].parent / "cellsolver.py").read_text(encoding="utf-8"))
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_SymStrain")
    for method in cls.body:
        if not isinstance(method, ast.FunctionDef) or method.name in ("__init__", "K", "KT"):
            continue
        offenders += [f"cellsolver.py:{node.lineno}: _SymStrain.{method.name} reads {node.attr}"
                      for node in ast.walk(method) if isinstance(node, ast.Attribute)
                      and node.attr in ("slots", "gather", "scatter")]
    assert not offenders, f"a second lower-bound path or operator form: {offenders}"


def test_integrand_corpus_stays_in_density():
    """Only density.py builds Integrand and SurfaceIntegrand values, and no
    module imports the corpus helper _smooth_norm: the corpus has one home
    and the cell solver defines only the types it reads."""
    constructors = {"Integrand", "SurfaceIntegrand"}
    offenders = []
    for path in SRC:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (path.name != "density.py" and isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name) and node.func.id in constructors):
                offenders.append(f"{path.name}:{node.lineno}: {node.func.id}(...)")
            if isinstance(node, ast.ImportFrom):
                offenders += [f"{path.name}:{node.lineno}: imports {a.name}"
                              for a in node.names if a.name == "_smooth_norm"]
    assert not offenders, f"integrand corpus outside density.py: {offenders}"


def test_atom_walks_read_the_atom_list():
    """rigid.py, represent.py and StructuredBD.mean walk the jump planes and
    staircase atoms of a field only through StructuredBD.atoms(): they read
    no `.jumps` attribute and no `.staircase.atoms()` chain, and the mean
    reads no plateau view of the staircase and no slab areas."""
    offenders = []
    tree = ast.parse((SRC[0].parent / "bdmodel.py").read_text(encoding="utf-8"))
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "StructuredBD")
    mean = next(n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "mean")
    if not any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
               and n.func.attr == "atoms" and isinstance(n.func.value, ast.Name)
               and n.func.value.id == "self" for n in ast.walk(mean)):
        offenders.append(f"bdmodel.py:{mean.lineno}: StructuredBD.mean never calls self.atoms()")
    for node in ast.walk(mean):
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if name in ("jumps", "plateaus", "box_slab_area"):
            offenders.append(f"bdmodel.py:{node.lineno}: StructuredBD.mean reads {name}")
    for path in SRC:
        if path.name not in ("rigid.py", "represent.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "jumps":
                offenders.append(f"{path.name}:{node.lineno}: .jumps")
            if (isinstance(node, ast.Attribute) and node.attr == "atoms"
                    and isinstance(node.value, ast.Attribute) and node.value.attr == "staircase"):
                offenders.append(f"{path.name}:{node.lineno}: .staircase.atoms")
    assert not offenders, f"atom walks outside StructuredBD.atoms(): {offenders}"



def test_solver_modules_keep_no_module_state():
    """cellsolver, tensor and minimize bind no module-level dict, list, set
    or array: a solve's assembly plan lives and dies with the solve, and a
    module-level cache of plans would keep every grid it saw alive."""
    import importlib
    from collections.abc import MutableMapping, MutableSequence, MutableSet

    import numpy as np

    kinds = (MutableMapping, MutableSequence, MutableSet, np.ndarray)
    offenders = []
    for name in ("cellsolver", "tensor", "minimize"):
        module = importlib.import_module(f"bdrelax.{name}")
        offenders += [f"{name}.{attr}: {type(value).__name__}"
                      for attr, value in vars(module).items()
                      if not attr.startswith("__") and isinstance(value, kinds)]
    assert not offenders, f"module-level containers: {offenders}"


def test_matrix_norm_reductions_stay_in_tensor():
    """Squared matrix norms go through tensor.frob_sq (or frob): no module
    but tensor.py reduces over the axes (-2, -1), whose numpy reduction is
    several times slower than the component sum and must give its bits."""
    offenders = []
    for path in SRC:
        if path.name == "tensor.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "sum"):
                continue
            for arg in [*node.args, *(kw.value for kw in node.keywords if kw.arg == "axis")]:
                try:
                    axis = ast.literal_eval(arg)
                except ValueError:
                    continue
                if isinstance(axis, tuple) and sorted(axis) == [-2, -1]:
                    offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"sum over the axes (-2, -1) outside tensor.py: {offenders}"
