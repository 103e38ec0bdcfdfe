"""Runtime wrappers around distcert's functions: certificate capture and spans.

Nothing here edits the program. Wrappers are installed at runtime under
every distcert module (and module-level dict) that binds the wrapped
function, because modules import each other's names with
``from .x import name``; ``Patch.undo`` puts the originals back.

``CertificateLog`` wraps the five search entry points and keeps every
returned ``Certificate`` with the arguments it was computed from, so the
checker can re-evaluate it from its witness after the clock stops.

``Tracer`` wraps every module-level function of the six modules plus
``numpy.linalg.eigh``/``eigvalsh`` and records one span per call (name,
parent span, start, end) in flat arrays kept in memory. Per-layer metrics
are aggregated from the spans after the run; a span's self time is its
duration minus the durations of its direct children. Everything runs in one
thread, so no layer ever waits on another and no wait time is reported.
"""
from __future__ import annotations

import functools
import inspect
import re
import statistics
import sys
import time
from array import array

import numpy as np

MODULES = ("linalg", "entropy", "channels", "optimize", "bounds", "cli")
SEARCHES = (
    "maximize_coherent_information",
    "minimize_coherent_information",
    "maximize_reverse_coherent_information",
    "ree_ppt_lower",
    "trace_dist_to_ppt",
)
EIGEN_FUNCTIONS = ("eigh", "eigvalsh")

# Metric group -> regular expression over span names ("<module>.<function>").
# Groups that match no wrapped function (a later change renamed or deleted
# it) are reported as missing and read zero.
GROUPS = {
    "channels.apply_mat": r"channels\.apply_mat",
    "channels.adjoint_apply_mat": r"channels\.adjoint_apply_mat",
    "channels.complement": r"channels\.complement",
    "linalg.eigh": r"numpy\.linalg\.(eigh|eigvalsh)",
    "linalg.hermitian_eigen": r"linalg\.hermitian_eigen",
    "linalg.hermitian_log": r"linalg\.hermitian_log",
    "entropy.entropy_mat": r"entropy\._entropy_mat",
    "entropy.binary_entropy": r"entropy\.binary_entropy",
    "optimize.mirror_step": r"optimize\._mirror_step",
    "optimize.ascent": r"optimize\._single_ascent",
    "optimize.project_ppt": r"optimize\.project_ppt",
    "optimize.dykstra": r"optimize\._project_density",
    "optimize.ree_terms": r"optimize\._ree_terms",
    "optimize.oracle": r"optimize\.trace_dist_to_ppt",
    "optimize.maximize_coherent_information": r"optimize\.maximize_coherent_information",
    "optimize.minimize_coherent_information": r"optimize\.minimize_coherent_information",
    "optimize.maximize_reverse_coherent_information": r"optimize\.maximize_reverse_coherent_information",
    "optimize.ree_ppt_lower": r"optimize\.ree_ppt_lower",
    "bounds.kernel": r"bounds\.\w*(_kernel|_distance_lower)",
    "bounds.assemble": r"bounds\.(assemble_report|assemble_state_report|_entry)",
    "cli.load": r"\w+\.(load_state|state_from_dict|load_channel|channel_from_dict|_pairs_to_complex)",
    "cli.emit": r"cli\.(_emit|_emit_report|_table_text)",
}

# (metric, unit, better), in the order printed; BENCHMARK.json lists the same.
PER_LAYER = [
    ("channels.apply_mat.calls", "count", "lower"),
    ("channels.apply_mat.self_s", "s", "lower"),
    ("channels.adjoint_apply_mat.calls", "count", "lower"),
    ("channels.adjoint_apply_mat.self_s", "s", "lower"),
    ("channels.complement.calls", "count", "lower"),
    ("linalg.eigh.calls", "count", "lower"),
    ("linalg.eigh.self_s", "s", "lower"),
    ("linalg.hermitian_eigen.self_s", "s", "lower"),
    ("linalg.hermitian_log.calls", "count", "lower"),
    ("linalg.hermitian_log.self_s", "s", "lower"),
    ("entropy.entropy_mat.calls", "count", "lower"),
    ("entropy.entropy_mat.self_s", "s", "lower"),
    ("entropy.binary_entropy.calls", "count", "lower"),
    ("entropy.binary_entropy.self_s", "s", "lower"),
    ("optimize.mirror_step.calls", "count", "lower"),
    ("optimize.mirror_step.self_s", "s", "lower"),
    ("optimize.ascent.restarts", "count", "lower"),
    ("optimize.ascent.accepted", "count", "lower"),
    ("optimize.ascent.accept_ratio", "ratio", "higher"),
    ("optimize.project_ppt.calls", "count", "lower"),
    ("optimize.project_ppt.self_s", "s", "lower"),
    ("optimize.dykstra.sweeps", "count", "lower"),
    ("optimize.dykstra.sweeps_per_projection", "ratio", "lower"),
    ("optimize.ree_terms.calls", "count", "lower"),
    ("optimize.ree_terms.self_s", "s", "lower"),
    ("optimize.ree.accept_ratio", "ratio", "higher"),
    ("optimize.oracle.iterations", "count", "lower"),
    ("optimize.oracle.total_s", "s", "lower"),
    ("optimize.maximize_coherent_information.total_s", "s", "lower"),
    ("optimize.minimize_coherent_information.total_s", "s", "lower"),
    ("optimize.maximize_reverse_coherent_information.total_s", "s", "lower"),
    ("optimize.ree_ppt_lower.total_s", "s", "lower"),
    ("optimize.searches.unconverged", "count", "lower"),
    ("bounds.kernel.calls", "count", "lower"),
    ("bounds.kernel.self_s", "s", "lower"),
    ("bounds.assemble.self_s", "s", "lower"),
    ("cli.load.self_s", "s", "lower"),
    ("cli.emit.self_s", "s", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.untraced_run_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.unspanned_s", "s", "lower"),
]


def _package_modules():
    return [m for name, m in list(sys.modules.items()) if name == "distcert" or name.startswith("distcert.")]


class Patch:
    """Rebinds functions inside distcert at runtime and undoes it."""

    def __init__(self):
        self._undo = []

    def set_attr(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace(self, original, replacement) -> None:
        """Bind ``replacement`` wherever a distcert module binds ``original``,
        as a module attribute or as a value of a module-level dict."""
        for mod in _package_modules():
            for attr, val in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if val is original:
                    self.set_attr(mod, attr, replacement)
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if item is original:
                            self._undo.append((val, key, item))
                            val[key] = replacement

    def undo(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)


class CertificateLog:
    """Keeps (search name, args, kwargs, Certificate) for every search call."""

    def __init__(self):
        self.records = []
        self.missing = []

    def install(self, patch: Patch) -> None:
        optimize = sys.modules["distcert.optimize"]
        for name in SEARCHES:
            fn = getattr(optimize, name, None)
            if fn is None:
                self.missing.append(f"optimize.{name}")
                continue
            patch.replace(fn, self._wrap(name, fn))

    def _wrap(self, name, fn):
        records = self.records

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cert = fn(*args, **kwargs)
            records.append((name, args, kwargs, cert))
            return cert

        return wrapper


def _accepted_steps(result) -> int:
    # _single_ascent returns (rho, value, history, converged, iterations);
    # the history holds the start value plus one value per accepted step
    return len(result[2]) - 1


# span name -> (counter, function of the wrapped call's return value)
RESULT_COUNTERS = {"optimize._single_ascent": ("optimize.ascent.accepted", _accepted_steps)}


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self.counter_failures: set[str] = set()
        self._stack = [-1]

    def install(self, patch: Patch) -> None:
        for short in MODULES:
            mod = sys.modules[f"distcert.{short}"]
            modname = mod.__name__
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val.__module__ == modname:
                    patch.replace(val, self._wrap(f"{short}.{attr}", val))
        for attr in EIGEN_FUNCTIONS:
            fn = getattr(np.linalg, attr)
            patch.set_attr(np.linalg, attr, self._wrap(f"numpy.linalg.{attr}", fn))

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        name_of, parent, start, end, stack = self.name_of, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter
        hook = RESULT_COUNTERS.get(name)
        counters, failures = self.counters, self.counter_failures

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if hook is not None:
                try:
                    counters[hook[0]] = counters.get(hook[0], 0) + hook[1](result)
                except (TypeError, IndexError):
                    failures.add(hook[0])
            return result

        return wrapper

    def clear(self) -> None:
        """Drop recorded spans; call only when no span is open."""
        for buf in (self.name_of, self.parent, self.start, self.end):
            del buf[:]

    def arrays(self) -> dict:
        """Copies of the recorded spans; parent -1 marks a top-level span."""
        return {
            "name": np.frombuffer(self.name_of, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }


def span_stats(names: list[str], spans: dict) -> dict:
    """Per span name: calls, summed self time and summed duration; also the
    time under top-level spans."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    inside = parent >= 0
    child = np.bincount(parent[inside], weights=dur[inside], minlength=len(dur))
    own = dur - child
    ids = spans["name"]
    calls = np.bincount(ids, minlength=len(names))
    self_s = np.bincount(ids, weights=own, minlength=len(names))
    total_s = np.bincount(ids, weights=dur, minlength=len(names))
    return {
        "calls": calls,
        "self_s": self_s,
        "total_s": total_s,
        "top_s": float(dur[~inside].sum()),
        "child_of": ids[parent[inside]] if inside.any() else ids[:0],
        "child_ids": ids[inside],
    }


def group_members(names: list[str]) -> dict[str, list[int]]:
    return {
        group: [i for i, n in enumerate(names) if re.fullmatch(pattern, n)]
        for group, pattern in GROUPS.items()
    }


def pass_metrics(names, spans, pass_s, certs) -> dict:
    """Per-layer numbers of one traced pass.

    ``certs`` are the CertificateLog records of the pass; ``pass_s`` its
    wall time. Group self times exclude every wrapped child, so summing
    self_s over all span names plus ``trace.unspanned_s`` gives ``pass_s``.
    """
    st = span_stats(names, spans)
    members = group_members(names)
    out = {}

    def agg(group, key):
        return float(sum(st[key][i] for i in members[group]))

    for group in GROUPS:
        out[f"{group}.calls"] = agg(group, "calls")
        out[f"{group}.self_s"] = agg(group, "self_s")
        out[f"{group}.total_s"] = agg(group, "total_s")

    # projections made directly by the REE search, less its initial one
    trial_projections = int(
        (
            np.isin(st["child_ids"], members["optimize.project_ppt"])
            & np.isin(st["child_of"], members["optimize.ree_ppt_lower"])
        ).sum()
    ) - out["optimize.ree_ppt_lower.calls"]
    ree_certs = [c for name, _, _, c in certs if name == "ree_ppt_lower"]
    ree_accepted = sum(len(c.history) - 1 for c in ree_certs)
    oracle_iters = sum(c.iterations for name, _, _, c in certs if name == "trace_dist_to_ppt")

    def ratio(a, b):
        return float(a) / float(b) if b else 0.0

    out["optimize.ascent.restarts"] = out["optimize.ascent.calls"]
    out["optimize.dykstra.sweeps"] = out["optimize.dykstra.calls"]
    out["optimize.dykstra.sweeps_per_projection"] = ratio(
        out["optimize.dykstra.calls"], out["optimize.project_ppt.calls"]
    )
    out["optimize.ree.accept_ratio"] = ratio(ree_accepted, trial_projections)
    out["optimize.oracle.iterations"] = float(oracle_iters)
    out["optimize.searches.unconverged"] = float(sum(1 for *_, c in certs if not c.converged))
    out["trace.run_s"] = pass_s
    out["trace.unspanned_s"] = pass_s - st["top_s"]
    out["trace.self_sum_s"] = float(st["self_s"].sum())
    return out


def missing_groups(names: list[str]) -> list[str]:
    return sorted(group for group, ids in group_members(names).items() if not ids)


def summarize(per_pass: list[dict], accepted: int, untraced_s: float) -> dict:
    """Median over traced passes of every per-layer number, plus the
    counters and ratios that need the whole traced run."""
    keys = per_pass[0].keys()
    out = {k: statistics.median(p[k] for p in per_pass) for k in keys}
    out["optimize.ascent.accepted"] = accepted / len(per_pass)
    out["optimize.ascent.accept_ratio"] = (
        out["optimize.ascent.accepted"] / out["optimize.mirror_step.calls"]
        if out["optimize.mirror_step.calls"]
        else 0.0
    )
    out["trace.untraced_run_s"] = untraced_s
    out["trace.overhead_share"] = (out["trace.run_s"] - untraced_s) / untraced_s
    return out
