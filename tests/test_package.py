"""The package namespace: ``__all__`` lists exactly the public names, the
benchmark's trace still finds every layer function it groups, no private
module-level name is left without a caller, and no public name has callers
only in the tests."""

import ast
import importlib
import importlib.util
import inspect
import types
from pathlib import Path

import distcert

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
SOURCES = sorted(Path(distcert.__file__).parent.glob("*.py"))


def test_all_lists_every_public_name_once():
    # __all__ is derived from the namespace, so comparing the two proves
    # nothing; instead every exported name must come from the package, which
    # a stray import in __init__.py (a foreign function, class or module) breaks
    assert distcert.__all__ == sorted(set(distcert.__all__))
    foreign = [
        name
        for name in distcert.__all__
        if not getattr(distcert, name).__module__.startswith("distcert.")
    ]
    foreign += [
        name
        for name, value in vars(distcert).items()
        if isinstance(value, types.ModuleType) and not value.__name__.startswith("distcert.")
    ]
    assert foreign == []


def test_bench_trace_groups_match_module_functions():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    # the span names Tracer.install gives: every function defined at module
    # level in the six modules, plus the wrapped numpy eigensolvers
    names = [f"numpy.linalg.{attr}" for attr in spans.EIGEN_FUNCTIONS]
    for short in spans.MODULES:
        mod = importlib.import_module(f"distcert.{short}")
        names += [
            f"{short}.{attr}"
            for attr, val in vars(mod).items()
            if inspect.isfunction(val) and val.__module__ == mod.__name__
        ]
    assert spans.missing_groups(names) == []


def test_bench_hooks_name_functions_of_optimize():
    # read, not imported: the benchmark wraps the searches and two layer
    # functions by name, and a name a refactor removes leaves its metric
    # group reading 0 without any error
    source = SPANS.read_text()
    searches = next(
        node.value
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["SEARCHES"]
    )
    hooked = [*ast.literal_eval(searches), "_project_density", "_single_ascent"]
    assert all(name in source for name in hooked)
    optimize = importlib.import_module("distcert.optimize")
    not_functions = [
        name
        for name in hooked
        if not (inspect.isfunction(fn := getattr(optimize, name, None)) and fn.__module__ == optimize.__name__)
    ]
    assert len(hooked) == 7 and not_functions == []


def _private_definitions(tree: ast.Module) -> list[str]:
    """Names ``_x`` (not dunders) bound at module level by def, class or assignment."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def test_every_private_module_name_has_a_caller():
    # a use is a read of the name or an attribute of that name anywhere in the
    # package; imports, definitions and assignments do not count
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    dead = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in used
    ]
    assert dead == []


MODULES = [p for p in SOURCES if p.name != "__init__.py"]
CALLERS = MODULES + sorted(SPANS.parent.glob("*.py")) + sorted((SPANS.parents[1] / "demos").glob("*.py"))


def _public_definitions(tree: ast.Module) -> list:
    """(qualified name, node, is_method) of every public module-level def or
    class and every public method."""
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            defs.append((node.name, node, False))
            if isinstance(node, ast.ClassDef):
                defs += [
                    (f"{node.name}.{f.name}", f, True)
                    for f in node.body
                    if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
                ]
    return defs


def _reads(tree: ast.Module, enclosing=()) -> list:
    """(name, is_attribute, enclosing definition nodes) of every read in ``tree``."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.append((node.id, False, enclosing))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, True, enclosing))
        inner = enclosing + (node,) if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else enclosing
        found += _reads(node, inner)
    return found


def test_every_public_name_has_a_caller_outside_tests():
    # a definition is live if something reads it from src/ (bar __init__.py's
    # re-exports), bench/ or demos/, outside its own body and outside the body
    # of a dead definition; a method is read only through an attribute, so a
    # local variable of the same name does not keep it alive
    trees = {path: ast.parse(path.read_text()) for path in CALLERS}
    defs = {
        f"{path.stem}:{qualname}": (qualname.rpartition(".")[2], node, is_method)
        for path in MODULES
        for qualname, node, is_method in _public_definitions(trees[path])
    }
    reads = [r for tree in trees.values() for r in _reads(tree)]
    dead = {}
    while newly := {
        key: node
        for key, (name, node, is_method) in defs.items()
        if key not in dead
        and not any(
            read == name and (attr or not is_method) and not {node, *dead.values()} & set(enclosing)
            for read, attr, enclosing in reads
        )
    }:
        dead.update(newly)
    assert sorted(dead) == []


def test_one_partial_transpose_in_src():
    # partial_transpose and project_ppt gather through one index, optimize._pt_index,
    # the only place that writes the partial transpose's axis order
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "transpose"
        and [getattr(arg, "value", None) for arg in node.args] == [0, 3, 2, 1]
    ]
    assert len(found) == 1, found


# numpy's eigensolvers and the LAPACK gufuncs behind them
EIGENSOLVERS = {"eigh", "eigvalsh", "_umath_linalg", "eigh_lo", "eigvalsh_lo"}


def test_only_linalg_calls_numpy_eigensolvers():
    # every other module decomposes through linalg._eigh and linalg._eigvalsh,
    # so the solver, its bits and its convergence check are chosen in one place
    found = []
    for path in SOURCES:
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Import):
                names = [part for alias in node.names for part in alias.name.split(".")]
            elif isinstance(node, ast.ImportFrom):
                names = (node.module or "").split(".") + [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno}:{name}" for name in names if name in EIGENSOLVERS]
    assert found == []


def _readers(name: str) -> set[str]:
    """'module:def' for every def or method in src/ whose body reads ``name``;
    'module:' for a read at module level."""
    found = set()

    def visit(node, path, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load) and child.id == name:
                found.add(f"{path.stem}:{where}")
            elif isinstance(child, ast.Attribute) and child.attr == name:
                found.add(f"{path.stem}:{where}")
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}" if where else child.name
            visit(child, path, inner)

    for path in SOURCES:
        visit(ast.parse(path.read_text()), path, "")
    return found


def test_one_inversion_engine():
    # every bound inverts Delta <= a*eps*log(d) + c*g(eps) through its Formula
    # member: only the member's kernel inverts, and only the inversion expression
    # evaluates g, so a hand-written kernel beside them fails here
    assert _readers("_inversion_kernel") == {"bounds:Formula.kernel"}
    outside_entropy = {r for r in _readers("g_correction") if not r.startswith("entropy:")}
    assert outside_entropy == {"bounds:_inversion_kernel"}


def test_one_log_divided_difference():
    # the REE gradient (corner split, interior split, barrier) and the mirror slope's
    # logarithmic mean read one first divided difference of log, the accurate log1p form,
    # so a quotient of two rounded logs or a near-tie guard beside it fails here
    assert _readers("log1p") == {"optimize:_log_first"}
    assert _readers("_log_first") == {"optimize:_mirror_slope", "optimize:_ree_gradient"}
    assert _readers("_EIG_PAIR_GUARD") == set()
