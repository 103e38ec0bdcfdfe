"""Distance lower bounds obtained by inverting entropic continuity bounds.

The pattern behind every bound: a continuity bound says that moving a state
or channel by distance eps changes an entropic quantity by at most
A*eps + r(eps) with r concave and increasing. Reading it backwards, a
certified gap Delta in the entropic quantity between the object and the
nearest member of a structured class forces the distance to be at least
(Delta - r(Delta/A)) / A. ``FORMULAS`` has one row per formula tag, giving
the target set and the kernel that specializes this expression; the public
bound functions validate, look up their row and clamp into [0, 2] (trivial
bounds are allowed, negative ones are not informative), and the report
builders feed each certificate to its rows through one source table.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .entropy import _check_base, _log, g_correction
from .linalg import _as_int


class Formula(str, Enum):
    """Wire tags identifying each closed-form bound in reports and tables."""

    DS_FROM_REE = "Eq5"
    DS_FROM_CI = "Eq6"
    DA_FROM_CI = "Eq9"
    DEB_FROM_CI = "Eq10"
    DEB_FROM_RCI = "Eq11"
    DEB_FROM_REE = "Eq12"
    DD_FROM_CI = "Eq13"
    PROD_FROM_MI = "ProdMI"


def _inversion_kernel(delta, scale: float, correction, *args):
    """The one inversion expression (delta - r(delta/A)) / A, sign-preserving,
    elementwise over an array of gaps; a float gap gives a float.

    ``r`` is ``correction(., *args)``. Every eps with delta <= A*eps + r(eps)
    is at least this value.
    """
    out = (delta - correction(delta / scale, *args)) / scale
    return out if np.ndim(out) else float(out)


def _log_dim(d: int, base: float) -> float:
    if _as_int(d, "dimension") < 2:
        raise ValueError("dimension must be an integer >= 2")
    return float(_log(float(d), base))


def _clamp(raw: float) -> float:
    return min(2.0, max(0.0, raw))


# Each kernel is the raw (unclamped, sign-preserving) distance 2*eps forced by
# a gap, or by each gap of an array; g vanishes at nonpositive arguments, so
# any gap below +inf is accepted and a negative result means the certificate
# is too small to force a distance.


def state_distance_kernel(gap, d: int, base: float = 2.0):
    """Inverts gap <= eps*log(d) + g(eps), reported as 2*eps.

    Equals 2*gap/log(d) - 2*g(gap/log(d))/log(d).
    """
    base = _check_base(base)
    return 2.0 * _inversion_kernel(gap, _log_dim(d, base), g_correction, base)


def channel_distance_kernel(gap, d: int, base: float = 2.0):
    """Inverts gap <= 2*eps*log(d) + g(eps), reported as 2*eps.

    Equals gap/log(d) - g(gap/(2*log(d)))/log(d).
    """
    base = _check_base(base)
    return 2.0 * _inversion_kernel(gap, 2.0 * _log_dim(d, base), g_correction, base)


def product_distance_kernel(gap, d: int, base: float = 2.0):
    """Inverts gap <= 2*eps*log(d) + 2*g(eps), reported as 2*eps.

    Halving both sides leaves the state kernel's inequality at gap/2, so this
    equals gap/log(d) - 2*g(gap/(2*log(d)))/log(d).
    """
    base = _check_base(base)
    return 2.0 * _inversion_kernel(0.5 * gap, _log_dim(d, base), g_correction, base)


class FormulaRow(NamedTuple):
    """What a formula tag stands for: the set it bounds the distance to and
    the raw kernel that turns its certificate gap into that distance."""

    target: str
    kernel: Callable[[float | np.ndarray, int, float], float | np.ndarray]


FORMULAS = {
    Formula.DS_FROM_REE: FormulaRow("separable", state_distance_kernel),
    Formula.DS_FROM_CI: FormulaRow("separable", state_distance_kernel),
    Formula.DA_FROM_CI: FormulaRow("antidegradable", channel_distance_kernel),
    Formula.DEB_FROM_CI: FormulaRow("entanglement_breaking", state_distance_kernel),
    Formula.DEB_FROM_RCI: FormulaRow("entanglement_breaking", state_distance_kernel),
    Formula.DEB_FROM_REE: FormulaRow("entanglement_breaking", state_distance_kernel),
    Formula.DD_FROM_CI: FormulaRow("degradable", channel_distance_kernel),
    Formula.PROD_FROM_MI: FormulaRow("product", product_distance_kernel),
}


def _formula_distance_lower(formula: Formula, gap: float, d: int, base: float, clamped: bool) -> float:
    if not math.isfinite(gap):
        raise ValueError(f"certificate must be finite, got {gap}")
    raw = FORMULAS[formula].kernel(gap, d, base)
    return _clamp(raw) if clamped else raw


def separable_distance_lower(gap: float, d: int, base: float = 2.0, clamped: bool = True) -> float:
    """Trace-norm distance from a bipartite state to the separable set.

    ``gap`` is any certified lower bound on the relative entropy of
    entanglement (the max coherent information qualifies), in units of
    ``base``; d = min of the two local dimensions.
    """
    base = _check_base(base)
    if gap < 0.0:
        raise ValueError("certificate must be nonnegative")
    return _formula_distance_lower(Formula.DS_FROM_REE, gap, d, base, clamped)


def antidegradable_distance_lower(ic: float, d: int, base: float = 2.0, clamped: bool = True) -> float:
    """Diamond-norm distance from a channel to the antidegradable set.

    ``ic`` must be a positive achievable coherent information; d is the
    channel's input dimension d_in. Ic = -H(R|B) with a purifying reference
    R of dimension rank(rho) <= d_in, and the conditional-entropy continuity
    bound is taken in d_R; min(d_in, d_out) is not justified when d_out < d_in.
    """
    base = _check_base(base)
    if ic <= 0.0:
        raise ValueError("no antidegradability certificate (coherent information <= 0)")
    return _formula_distance_lower(Formula.DA_FROM_CI, ic, d, base, clamped)


def degradable_distance_lower(neg_ic: float, d: int, base: float = 2.0, clamped: bool = True) -> float:
    """Diamond-norm distance from a channel to the degradable set.

    ``neg_ic`` is the negated minimal coherent information, positive whenever
    some input state has negative coherent information; d = d_in, as for
    ``antidegradable_distance_lower``.
    """
    base = _check_base(base)
    if neg_ic <= 0.0:
        raise ValueError("no degradability certificate (coherent information >= 0)")
    return _formula_distance_lower(Formula.DD_FROM_CI, neg_ic, d, base, clamped)


def entanglement_breaking_distance_lower(
    gap: float, d: int, source: str = "Ic", base: float = 2.0, clamped: bool = True
) -> float:
    """Diamond-norm distance from a channel to the entanglement-breaking set.

    The certificate may come from three sources: achievable coherent
    information ("Ic", Eq10), achievable reverse coherent information ("L",
    Eq11), or a certified lower bound on the relative entropy of
    entanglement of the Choi-type output state ("ER", Eq12). The three rows
    share one kernel.
    """
    base = _check_base(base)
    if source not in ("Ic", "L", "ER"):
        raise ValueError(f"source must be 'Ic', 'L' or 'ER', got {source!r}")
    if gap <= 0.0:
        raise ValueError("no entanglement-breaking certificate (gap <= 0)")
    formula = {"Ic": Formula.DEB_FROM_CI, "L": Formula.DEB_FROM_RCI, "ER": Formula.DEB_FROM_REE}[source]
    return _formula_distance_lower(formula, gap, d, base, clamped)


def product_distance_lower(mi: float, d: int, base: float = 2.0, clamped: bool = True) -> float:
    """Trace-norm distance from a bipartite state to all product states.

    ``mi`` is the state's mutual information, d = min local dimension.
    """
    base = _check_base(base)
    if mi < 0.0:
        raise ValueError("mutual information must be nonnegative")
    return _formula_distance_lower(Formula.PROD_FROM_MI, mi, d, base, clamped)


# ----- reports -----


@dataclass
class BoundEntry:
    """One certified bound: target set, formula tag, clamped and raw values."""

    target: str
    formula: Formula
    value: float
    raw: float
    witness: str
    inputs: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.value <= 2.0:
            raise ValueError(f"bound value {self.value} outside [0, 2]")
        if self.target != FORMULAS[self.formula].target:
            raise ValueError(f"formula {self.formula.value} does not target {self.target}")

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "formula": self.formula.value,
            "value": self.value,
            "raw": self.raw,
            "witness": self.witness,
            "inputs": dict(self.inputs),
        }


@dataclass
class BoundReport:
    """Collection of certified bounds for one channel or state.

    Absence of an entry means no certificate was available for that target,
    which is weaker information than a bound of zero.
    """

    subject: str
    base_label: str
    entries: list[BoundEntry] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    seed: int | None = None

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "log_base": self.base_label,
            "seed": self.seed,
            "entries": [e.to_dict() for e in self.entries],
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_csv(self) -> str:
        return _csv_text(
            ["target", "formula", "value", "raw", "witness", "log_base"],
            [[e.target, e.formula.value, e.value, e.raw, e.witness, self.base_label] for e in self.entries],
        )

    def entry(self, formula: Formula) -> BoundEntry | None:
        for e in self.entries:
            if e.formula is formula:
                return e
        return None


def _csv_text(columns: list[str], rows) -> str:
    """CSV of a header and rows; a float is written as ``repr(float(x))``, which reads back exactly."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(columns)
    w.writerows([repr(float(c)) if isinstance(c, float) else c for c in row] for row in rows)
    return buf.getvalue()


def base_label(base: float) -> str:
    return "2" if float(base) == 2.0 else "e"


class _Source(NamedTuple):
    """One certificate an ``assemble_*`` function accepts, and what it feeds.

    The certificate times ``sign`` is the entropic gap. A gap that fails
    ``accept`` adds ``skip_note`` instead of entries; an accepted one is
    floored at zero and fed to every formula in ``formulas``. The entries
    record the certificate itself under ``input_key``.
    """

    arg: str
    accept: Callable[[float], bool]
    sign: float
    input_key: str
    witness_key: str
    formulas: tuple[Formula, ...]
    skip_note: str | None


def _positive(gap: float) -> bool:
    return gap > 0.0


_CHANNEL_SOURCES = (
    _Source("ic", _positive, 1.0, "coherent_information", "ic",
            (Formula.DA_FROM_CI, Formula.DEB_FROM_CI),
            "no antidegradability certificate (max coherent information <= 0)"),
    _Source("min_ic", _positive, -1.0, "min_coherent_information", "min_ic",
            (Formula.DD_FROM_CI,),
            "no degradability certificate (min coherent information >= 0)"),
    _Source("rci", _positive, 1.0, "reverse_coherent_information", "rci",
            (Formula.DEB_FROM_RCI,),
            "no entanglement-breaking certificate from reverse coherent information (<= 0)"),
    _Source("er_lower", _positive, 1.0, "rel_entropy_entanglement_lower", "er",
            (Formula.DEB_FROM_REE,),
            "no entanglement-breaking certificate from relative entropy (<= 0)"),
)

_STATE_SOURCES = (
    _Source("ic", _positive, 1.0, "max_coherent_information", "ic",
            (Formula.DS_FROM_CI,),
            "no separability certificate from coherent information (<= 0)"),
    _Source("er_lower", lambda gap: gap >= 0.0, 1.0, "rel_entropy_entanglement_lower", "er",
            (Formula.DS_FROM_REE,),
            "relative entropy certificate was negative; skipped"),
    # mutual information is a certificate whatever its sign: a negative
    # evaluation is float dust below zero and is read as zero
    _Source("mi", lambda gap: True, 1.0, "mutual_information", "mi",
            (Formula.PROD_FROM_MI,), None),
)


def _entry(report: BoundReport, sources, certs: dict, d: int, base: float, witnesses) -> BoundReport:
    """Add to ``report`` the entries, or the skip note, of every certificate
    given in ``certs``, in the order of ``sources``. A non-finite certificate
    is a ValueError; an accepted gap takes the public bound functions' path
    (``_formula_distance_lower``) to its raw distance."""
    wit = witnesses or {}
    for src in sources:
        value = certs[src.arg]
        if value is None:
            continue
        if not math.isfinite(value):
            raise ValueError(f"certificate must be finite, got {value}")
        gap = src.sign * value
        if not src.accept(gap):
            report.notes.append(src.skip_note)
            continue
        inputs, witness = {src.input_key: value, "dim": d}, wit.get(src.witness_key, "")
        for formula in src.formulas:
            raw = _formula_distance_lower(formula, max(gap, 0.0), d, base, clamped=False)
            report.entries.append(
                BoundEntry(FORMULAS[formula].target, formula, _clamp(raw), raw, witness, inputs)
            )
    return report


def assemble_report(
    subject: str,
    *,
    d: int,
    base: float = 2.0,
    ic: float | None = None,
    min_ic: float | None = None,
    rci: float | None = None,
    er_lower: float | None = None,
    witnesses: dict[str, str] | None = None,
    seed: int | None = None,
) -> BoundReport:
    """Evaluate every applicable channel bound from the given certificates.

    ``ic`` and ``min_ic`` are the best achieved maximal and minimal coherent
    information, ``rci`` the best reverse coherent information, ``er_lower``
    a certified lower bound on the relative entropy of entanglement of the
    channel's image of a maximally entangled input. Certificates with the
    wrong sign are skipped with a note rather than recorded as zero bounds.
    """
    base = _check_base(base)
    report = BoundReport(subject, base_label(base), seed=seed)
    certs = {"ic": ic, "min_ic": min_ic, "rci": rci, "er_lower": er_lower}
    return _entry(report, _CHANNEL_SOURCES, certs, d, base, witnesses)


def assemble_state_report(
    subject: str,
    *,
    d: int,
    base: float = 2.0,
    ic: float | None = None,
    er_lower: float | None = None,
    mi: float | None = None,
    oracle: float | None = None,
    witnesses: dict[str, str] | None = None,
    seed: int | None = None,
) -> BoundReport:
    """State-side report: distance to separable and to product states."""
    base = _check_base(base)
    report = BoundReport(subject, base_label(base), seed=seed)
    _entry(report, _STATE_SOURCES, {"ic": ic, "er_lower": er_lower, "mi": mi}, d, base, witnesses)
    if oracle is not None:
        report.notes.append(f"trace distance to the PPT set, search estimate: {oracle!r}")
    return report
