"""The package namespace: ``__all__`` lists exactly the public names, the
benchmark's trace still finds every layer function it groups, and no private
module-level name is left without a caller."""

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
