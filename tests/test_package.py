"""The package namespace: ``__all__`` lists exactly the public names, and the
benchmark's trace still finds every layer function it groups."""

import importlib
import importlib.util
import inspect
import types
from pathlib import Path

import distcert

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_all_lists_every_public_name_once():
    public = {
        name
        for name, value in vars(distcert).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(distcert.__all__) == len(set(distcert.__all__))
    assert set(distcert.__all__) == public


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
