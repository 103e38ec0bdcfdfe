"""Output checks, run after the clock stops.

An invocation is correct when its exit code is 0 and its output passes four
checks:

* witness: every Certificate a search returned is re-evaluated from its
  witness alone through the public functions;
* kernel: every report entry (and every table cell with a known column) is
  the public kernel re-evaluated at its recorded inputs, and every
  certificate input in a report is the value of the matching Certificate;
* upper references: erasure Ic <= max(0, (1-2p) log d) and within 1e-6 of
  it; a relative-entropy lower bound <= the mutual information and
  <= log min(dA, dB);
* reference values: every value recorded in reference.json (taken at the
  seed commit) is present and not below its reference by more than
  ``REFERENCE_RTOL``. A value above its reference is accepted because the
  other checks already hold it to its witness and kernel.

Entries with formula tags this file does not know are only range-checked,
so later changes may add entries.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from distcert.bounds import (
    antidegradable_distance_lower,
    channel_distance_kernel,
    degradable_distance_lower,
    entanglement_breaking_distance_lower,
    product_distance_lower,
    separable_distance_lower,
    state_distance_kernel,
)
from distcert.channels import channel_coherent_information, reverse_coherent_information
from distcert.entropy import binary_entropy, max_coherent_information, mutual_information
from distcert.linalg import trace_norm
from distcert.optimize import partial_transpose, ree_dual_certificate

from workloads import Invocation, erasure_ic

WITNESS_ATOL = 1e-9
KERNEL_RTOL = 1e-12
LINK_ATOL = 1e-12
UPPER_ATOL = 1e-6
PPT_ATOL = 1e-9
# Searches on rotated copies of one problem agree to about 4e-4 relative
# (Dykstra stopping points differ in the last digits).
REFERENCE_RTOL = 2e-3
REFERENCE_ATOL = 1e-6
ORACLE_NOTE = "trace distance to the PPT set, search estimate: "


@dataclass
class Outcome:
    """What one invocation produced."""

    invocation: Invocation
    code: int
    text: str
    certs: list = field(default_factory=list)  # CertificateLog records
    seconds: float = 0.0
    norm_seconds: float = 0.0  # work time at the speed probe's reference speed


def _base_of(args, kwargs, index):
    if "base" in kwargs:
        return float(kwargs["base"])
    return float(args[index]) if len(args) > index else 2.0


def _close(a, b, atol, rtol=0.0) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def check_witness(record) -> list[str]:
    """Recompute a Certificate's value from its witness alone."""
    name, args, kwargs, cert = record
    subject, wit = args[0], cert.witness
    if not math.isfinite(cert.value):
        return [f"{name}: value {cert.value} is not finite"]
    if name in ("maximize_coherent_information", "minimize_coherent_information"):
        again = channel_coherent_information(subject, wit, _base_of(args, kwargs, 2))
    elif name == "maximize_reverse_coherent_information":
        again = reverse_coherent_information(subject, wit, _base_of(args, kwargs, 2))
    elif name == "ree_ppt_lower":
        again = ree_dual_certificate(subject, wit, _base_of(args, kwargs, 2))
    elif name == "trace_dist_to_ppt":
        again = trace_norm(subject.mat - wit.mat)
        low = float(np.linalg.eigvalsh(partial_transpose(wit.mat, wit.dims)).min())
        if low < -PPT_ATOL:
            return [f"{name}: witness is not PPT (partial-transpose eigenvalue {low:.3e})"]
    else:
        return [f"unknown search {name}"]
    if not _close(cert.value, again, WITNESS_ATOL):
        return [f"{name}: value {cert.value!r} but its witness gives {again!r}"]
    return []


def check_upper(record, expect: dict) -> list[str]:
    """Closed-form ceilings a certificate may not exceed."""
    name, args, kwargs, cert = record
    subject = args[0]
    if name == "maximize_coherent_information" and "erasure_p" in expect:
        ceiling = erasure_ic(subject.d_in, expect["erasure_p"])
        if not -UPPER_ATOL <= ceiling - cert.value <= UPPER_ATOL:
            return [f"erasure Ic {cert.value!r} is not within {UPPER_ATOL} below {ceiling!r}"]
    if name == "ree_ppt_lower":
        base = _base_of(args, kwargs, 2)
        mi = mutual_information(subject, base)
        log_d = math.log(min(subject.dims)) / math.log(base)
        if cert.value > mi + UPPER_ATOL or cert.value > log_d + UPPER_ATOL:
            return [f"REE lower bound {cert.value!r} exceeds I(A:B)={mi!r} or log d={log_d!r}"]
    return []


def _snap(value: float) -> float:
    # the CLI reports search values below 1e-12 in magnitude as zero
    return 0.0 if abs(value) < 1e-12 else value


def _eb(source):
    return lambda g, d, b: entanglement_breaking_distance_lower(g, d, source, b, clamped=False)


# formula -> (input key, search behind it or None for an exact evaluation, kernel)
ENTRY_RULES = {
    "Eq9": ("coherent_information", "maximize_coherent_information",
            lambda g, d, b: antidegradable_distance_lower(g, d, b, clamped=False)),
    "Eq10": ("coherent_information", "maximize_coherent_information", _eb("Ic")),
    "Eq13": ("min_coherent_information", "minimize_coherent_information",
             lambda g, d, b: degradable_distance_lower(-g, d, b, clamped=False)),
    "Eq11": ("reverse_coherent_information", "maximize_reverse_coherent_information", _eb("L")),
    "Eq12": ("rel_entropy_entanglement_lower", "ree_ppt_lower", _eb("ER")),
    "Eq5": ("rel_entropy_entanglement_lower", "ree_ppt_lower",
            lambda g, d, b: separable_distance_lower(g, d, b, clamped=False)),
    "Eq6": ("max_coherent_information", None,
            lambda g, d, b: separable_distance_lower(g, d, b, clamped=False)),
    "ProdMI": ("mutual_information", None,
               lambda g, d, b: product_distance_lower(max(g, 0.0), d, b, clamped=False)),
}
EXACT = {"max_coherent_information": max_coherent_information, "mutual_information": mutual_information}


def check_report(report: dict, outcome: Outcome) -> list[str]:
    """Every entry is its kernel at its inputs and every certificate input
    is the value its search returned (or its exact evaluation)."""
    problems = []
    base = 2.0 if report.get("log_base") == "2" else math.e
    by_search = {name: cert for name, _, _, cert in outcome.certs}
    for e in report["entries"]:
        f, value, raw = e["formula"], e["value"], e["raw"]
        if not 0.0 <= value <= 2.0:
            problems.append(f"{f}: value {value!r} outside [0, 2]")
        rule = ENTRY_RULES.get(f)
        if rule is None:
            continue
        key, search, kernel = rule
        gap, dim = e["inputs"][key], int(e["inputs"]["dim"])
        if search is None:
            expected = EXACT[key](outcome.invocation.subject, base)
        elif search in by_search:
            expected = _snap(by_search[search].value)
        else:
            problems.append(f"{f}: no {search} certificate behind the entry")
            continue
        if not _close(gap, expected, LINK_ATOL, 1e-12):
            problems.append(f"{f}: input {key}={gap!r} but the certificate is {expected!r}")
        again = kernel(gap, dim, base)
        if not _close(raw, again, 1e-12, KERNEL_RTOL):
            problems.append(f"{f}: raw {raw!r} but the kernel gives {again!r}")
        if not _close(value, min(2.0, max(0.0, again)), 1e-12, KERNEL_RTOL):
            problems.append(f"{f}: value {value!r} is not the clamped kernel {again!r}")
    if "trace_dist_to_ppt" in by_search:
        oracle = by_search["trace_dist_to_ppt"].value
        for note in report.get("notes", []):
            if note.startswith(ORACLE_NOTE) and float(note[len(ORACLE_NOTE):]) != oracle:
                problems.append(f"oracle note {note!r} differs from its certificate {oracle!r}")
    return problems


def _d_range(text: str) -> list[int]:
    lo, hi = (int(t) for t in text.split(".."))
    ds = []
    while lo <= hi:
        ds.append(lo)
        lo *= 2
    return ds


def _table_rows(table: dict, props: dict):
    """Expected kernel inputs per row: yields (row, {column: expected})."""
    base = 2.0 if table["log_base"] == "2" else math.e
    cols = table["columns"]
    for row in table["rows"]:
        cell = dict(zip(cols, row))
        d = cell["d"]
        log_d = math.log(d) / math.log(base)
        if table["table"] == "ex1":
            yield cell, {
                "Eq9": (channel_distance_kernel, log_d),
                "Eq10": (state_distance_kernel, log_d),
            }
        elif table["table"] == "ex2":
            p = cell["p"]
            yield cell, {
                "Eq10": (state_distance_kernel, (1.0 - 2.0 * p) * log_d),
                "Eq11": (state_distance_kernel, (1.0 - p) * log_d - binary_entropy(p, base)),
                "Eq12": (state_distance_kernel, (1.0 - p) * log_d),
                "upper": (None, 2.0 * (1.0 - p)),
            }
        else:
            x = props["x"]
            p = 0.5 - x
            yield cell, {
                "Eq9": (channel_distance_kernel, 2.0 * x * log_d),
                "Eq9_upper": (None, 2.0 * x),
                "Eq12": (state_distance_kernel, (1.0 - p) * log_d),
                "Eq12_upper": (None, 2.0 * (1.0 - p)),
            }


def check_table(table: dict, props: dict) -> list[str]:
    problems = []
    base = 2.0 if table["log_base"] == "2" else math.e
    ds = _d_range(props["d_range"])
    if table["table"] == "ex2":
        start, stop, count = props["p_grid"].split(":")
        ps = np.linspace(float(start), float(stop), int(count))
        want = [(d, float(p)) for d in ds for p in ps]
        got = [(r[0], r[1]) for r in table["rows"]]
        if got != want:
            problems.append("ex2 rows do not cover the requested d x p grid")
    elif [r[0] for r in table["rows"]] != ds:
        problems.append(f"{table['table']} rows do not cover d in {props['d_range']}")
    for cell, expected in _table_rows(table, props):
        for col, (kernel, arg) in expected.items():
            if col not in cell:
                continue
            again = arg if kernel is None else kernel(arg, cell["d"], base)
            if not _close(cell[col], again, 1e-12, KERNEL_RTOL):
                problems.append(f"{table['table']} d={cell['d']} {col}: {cell[col]!r} != {again!r}")
                break
    return problems[:5]


def observed_values(outcome: Outcome, report: dict) -> dict:
    """The numbers reference.json records for an invocation; for each, a
    higher value is a stronger result."""
    if outcome.invocation.kind == "table":
        cols = report["columns"]
        sums = np.array(report["rows"], dtype=float).sum(axis=0)
        return {f"{c}.sum": float(s) for c, s in zip(cols, sums) if c not in ("d", "p")}
    out = {}
    for e in report["entries"]:
        out[e["formula"]] = e["value"]
        rule = ENTRY_RULES.get(e["formula"])
        if rule is None:
            continue
        key = rule[0]
        if key == "min_coherent_information":
            # recorded as a strength, so that higher is better for every key
            out[f"{e['formula']}.minus_{key}"] = -e["inputs"][key]
        else:
            out[f"{e['formula']}.{key}"] = e["inputs"][key]
    return out


def check_reference(observed: dict, reference: dict) -> list[str]:
    problems = []
    for key, ref in reference.items():
        got = observed.get(key)
        if got is None:
            problems.append(f"{key}: missing (reference {ref!r})")
        elif got < ref - (REFERENCE_ATOL + REFERENCE_RTOL * abs(ref)):
            problems.append(f"{key}: {got!r} below reference {ref!r}")
    return problems


def cert_bits(outcome: Outcome, report: dict) -> float:
    """Entropic certificates fed to the distance kernels, in bits.

    For the analysis verbs: the positive parts of the search-produced
    certificates (max Ic, -min Ic, reverse Ic, REE lower bound). For the
    tables, whose certificates are arguments rather than search results: the
    positive gaps passed to each kernel call.
    """
    if outcome.invocation.kind != "table":
        total = 0.0
        for name, _, _, cert in outcome.certs:
            if name == "minimize_coherent_information":
                total += max(0.0, -cert.value)
            elif name != "trace_dist_to_ppt":
                total += max(0.0, cert.value)
        return total
    total = 0.0
    for cell, expected in _table_rows(report, outcome.invocation.props):
        total += sum(max(0.0, arg) for kernel, arg in expected.values() if kernel is not None)
    return total


def check_outcome(outcome: Outcome, reference: dict | None) -> tuple[list[str], dict | None]:
    """All checks for one invocation: (problems, parsed report or None)."""
    if outcome.code != 0:
        return [f"exit code {outcome.code}"], None
    try:
        report = json.loads(outcome.text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"], None
    if outcome.invocation.kind == "table":
        problems = check_table(report, outcome.invocation.props)
    else:
        problems = []
        for record in outcome.certs:
            problems += check_witness(record)
            problems += check_upper(record, outcome.invocation.expect)
        problems += check_report(report, outcome)
    if reference:
        problems += check_reference(observed_values(outcome, report), reference)
    return problems, report
