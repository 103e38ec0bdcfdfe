"""Distance lower bounds obtained by inverting entropic continuity bounds.

Every bound inverts one tight continuity inequality: moving a state or
channel by eps (half the trace-norm or diamond-norm distance) changes an
entropic quantity by at most a*eps*log(d) + c*g(eps), with g the
``g_correction`` term (Winter, arXiv:1507.07775). Reading it backwards, a
certified gap Delta between the object and the nearest member of a structured
class forces eps >= (Delta/c - g(Delta/(c*A)))/A with A = (a/c)*log(d).
Each ``Formula`` member is one row: its tag, target set and pair (a, c);
``Formula.kernel`` is the one evaluation of every row. The public bound
functions validate, call their formula's kernel and clamp into [0, 2] (trivial
bounds are allowed, negative ones are not informative), and the report
builders feed each certificate to its formulas through one source table.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .entropy import _check_base, _log, g_correction
from .linalg import _as_int


def _inversion_kernel(delta, scale: float, base: float):
    """The one inversion expression (delta - g(delta/A)) / A, sign-preserving,
    elementwise over an array of gaps; a float gap gives a float.

    ``g`` is ``g_correction`` in ``base``. Every eps with delta <= A*eps + g(eps)
    is at least this value.
    """
    out = (delta - g_correction(delta / scale, base)) / scale
    return out if np.ndim(out) else float(out)


def _log_dim(d: int, base: float) -> float:
    if _as_int(d, "dimension") < 2:
        raise ValueError("dimension must be an integer >= 2")
    try:
        return float(_log(float(d), base))
    except OverflowError:
        raise ValueError("dimension too large for a float") from None


def _clamp(raw: float) -> float:
    return min(2.0, max(0.0, raw))


class Formula(str, Enum):
    """A closed-form bound: its wire tag in reports and tables, the set it
    bounds the distance to, and the constants of the continuity bound it
    inverts, Delta <= a*eps*log(d) + c*g(eps). The tag is the member's value,
    so rows with equal constants stay distinct members."""

    DS_FROM_REE = "Eq5", "separable", 1, 1
    DS_FROM_CI = "Eq6", "separable", 1, 1
    DA_FROM_CI = "Eq9", "antidegradable", 2, 1
    DEB_FROM_CI = "Eq10", "entanglement_breaking", 1, 1
    DEB_FROM_RCI = "Eq11", "entanglement_breaking", 1, 1
    DEB_FROM_REE = "Eq12", "entanglement_breaking", 1, 1
    DD_FROM_CI = "Eq13", "degradable", 2, 1
    PROD_FROM_MI = "ProdMI", "product", 2, 2

    def __new__(cls, tag: str, target: str, a: int, c: int):
        member = str.__new__(cls, tag)
        member._value_, member.target, member.a, member.c = tag, target, a, c
        return member

    def kernel(self, gap, d: int, base: float = 2.0):
        """The raw (unclamped, sign-preserving) distance 2*eps forced by a gap,
        or by each gap of an array; a float gap gives a float.

        Dividing the inequality by c leaves gap/c <= (a/c)*log(d)*eps + g(eps),
        the one ``_inversion_kernel`` inverts. g vanishes at nonpositive
        arguments, so any gap below +inf is accepted, and a negative result
        means the certificate is too small to force a distance.
        """
        base = _check_base(base)
        return 2.0 * _inversion_kernel(gap / self.c, self.a / self.c * _log_dim(d, base), base)


def state_distance_kernel(gap, d: int, base: float = 2.0):
    """The state rows' kernel, (a, c) = (1, 1)."""
    return Formula.DS_FROM_REE.kernel(gap, d, base)


def channel_distance_kernel(gap, d: int, base: float = 2.0):
    """The channel rows' kernel, (a, c) = (2, 1)."""
    return Formula.DA_FROM_CI.kernel(gap, d, base)


def _formula_distance_lower(formula: Formula, gap: float, d: int, base: float, clamped: bool) -> float:
    if not math.isfinite(gap):
        raise ValueError(f"certificate must be finite, got {gap}")
    raw = formula.kernel(gap, d, base)
    return _clamp(raw) if clamped else raw


def separable_distance_lower(gap: float, d: int, base: float = 2.0, clamped: bool = True) -> float:
    """Trace-norm distance from a bipartite state to the separable set.

    ``gap`` is any certified lower bound on the relative entropy of
    entanglement (the max coherent information qualifies), in units of
    ``base``; d = min of the two local dimensions.
    """
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
    if ic <= 0.0:
        raise ValueError("no antidegradability certificate (coherent information <= 0)")
    return _formula_distance_lower(Formula.DA_FROM_CI, ic, d, base, clamped)


def degradable_distance_lower(neg_ic: float, d: int, base: float = 2.0, clamped: bool = True) -> float:
    """Diamond-norm distance from a channel to the degradable set.

    ``neg_ic`` is the negated minimal coherent information, positive whenever
    some input state has negative coherent information; d = d_in, as for
    ``antidegradable_distance_lower``.
    """
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
    try:
        formula = {"Ic": Formula.DEB_FROM_CI, "L": Formula.DEB_FROM_RCI, "ER": Formula.DEB_FROM_REE}[source]
    except (KeyError, TypeError):  # TypeError: an unhashable source
        raise ValueError(f"source must be 'Ic', 'L' or 'ER', got {source!r}") from None
    if gap <= 0.0:
        raise ValueError("no entanglement-breaking certificate (gap <= 0)")
    return _formula_distance_lower(formula, gap, d, base, clamped)


def product_distance_lower(mi: float, d: int, base: float = 2.0, clamped: bool = True) -> float:
    """Trace-norm distance from a bipartite state to all product states.

    ``mi`` is the state's mutual information, d = min local dimension.
    """
    if mi < 0.0:
        raise ValueError("mutual information must be nonnegative")
    return _formula_distance_lower(Formula.PROD_FROM_MI, mi, d, base, clamped)


# ----- reports -----


@dataclass
class BoundEntry:
    """One certified bound: formula tag, clamped and raw values; the target
    set is the formula's."""

    target: str = field(init=False)
    formula: Formula
    value: float
    raw: float
    witness: str
    inputs: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        self.formula = Formula(self.formula)
        self.target = self.formula.target
        if not 0.0 <= self.value <= 2.0:
            raise ValueError(f"bound value {self.value} outside [0, 2]")


@dataclass
class BoundReport:
    """Collection of certified bounds for one channel or state.

    Absence of an entry means no certificate was available for that target,
    which is weaker information than a bound of zero. ``to_json`` writes
    ``asdict`` of the report, so the field order is the key order.
    """

    subject: str
    log_base: str
    seed: int | None = None
    entries: list[BoundEntry] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    def to_csv(self) -> str:
        return _csv_text(
            ["target", "formula", "value", "raw", "witness", "log_base"],
            [[e.target, e.formula.value, e.value, e.raw, e.witness, self.log_base] for e in self.entries],
        )


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

    ``arg`` names the certificate: it is the builder's keyword and the key of
    its witness note. The certificate times ``sign`` is the entropic gap. A gap
    that fails ``accept`` adds ``skip_note`` instead of entries; an accepted
    one is floored at zero and fed to every formula in ``formulas``. The
    entries record the certificate itself under ``input_key``.
    """

    arg: str
    accept: Callable[[float], bool]
    sign: float
    input_key: str
    formulas: tuple[Formula, ...]
    skip_note: str | None


def _positive(gap: float) -> bool:
    return gap > 0.0


_CHANNEL_SOURCES = (
    _Source("ic", _positive, 1.0, "coherent_information",
            (Formula.DA_FROM_CI, Formula.DEB_FROM_CI),
            "no antidegradability certificate (max coherent information <= 0)"),
    _Source("min_ic", _positive, -1.0, "min_coherent_information",
            (Formula.DD_FROM_CI,),
            "no degradability certificate (min coherent information >= 0)"),
    _Source("rci", _positive, 1.0, "reverse_coherent_information",
            (Formula.DEB_FROM_RCI,),
            "no entanglement-breaking certificate from reverse coherent information (<= 0)"),
    _Source("er_lower", _positive, 1.0, "rel_entropy_entanglement_lower",
            (Formula.DEB_FROM_REE,),
            "no entanglement-breaking certificate from relative entropy (<= 0)"),
)

_STATE_SOURCES = (
    _Source("ic", _positive, 1.0, "max_coherent_information",
            (Formula.DS_FROM_CI,),
            "no separability certificate from coherent information (<= 0)"),
    _Source("er_lower", lambda gap: gap >= 0.0, 1.0, "rel_entropy_entanglement_lower",
            (Formula.DS_FROM_REE,),
            "relative entropy certificate was negative; skipped"),
    # mutual information is a certificate whatever its sign: a negative
    # evaluation is float dust below zero and is read as zero
    _Source("mi", lambda gap: True, 1.0, "mutual_information",
            (Formula.PROD_FROM_MI,), None),
)


def _entry(subject: str, seed, sources, certs: dict, d: int, base: float, witnesses) -> BoundReport:
    """The report on ``subject``: the entries, or the skip note, of every
    certificate given in ``certs``, in the order of ``sources``, each entry
    with the witness note keyed by its source's ``arg``. A non-finite
    certificate, or a witness note keyed by no source, is a ValueError; an
    accepted gap, floored at zero, goes to each formula's kernel for its
    raw distance."""
    base, wit, args = _check_base(base), witnesses or {}, [src.arg for src in sources]
    if unknown := [key for key in wit if key not in args]:
        raise ValueError(f"witness notes for no certificate of this report: {', '.join(map(repr, unknown))}")
    report = BoundReport(subject, base_label(base), seed=seed)
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
        inputs, witness = {src.input_key: value, "dim": d}, wit.get(src.arg, "")
        for formula in src.formulas:
            raw = formula.kernel(max(gap, 0.0), d, base)
            report.entries.append(BoundEntry(formula, _clamp(raw), raw, witness, inputs))
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
    ``witnesses`` maps a certificate's keyword (``ic``, ``min_ic``, ``rci``,
    ``er_lower``) to the note its entries carry; any other key is a
    ValueError.
    """
    certs = {"ic": ic, "min_ic": min_ic, "rci": rci, "er_lower": er_lower}
    return _entry(subject, seed, _CHANNEL_SOURCES, certs, d, base, witnesses)


def assemble_state_report(
    subject: str,
    *,
    d: int,
    base: float = 2.0,
    ic: float | None = None,
    er_lower: float | None = None,
    mi: float | None = None,
    witnesses: dict[str, str] | None = None,
) -> BoundReport:
    """State-side report: distance to separable and to product states. Its
    ``seed`` stays None: no state-side search draws a random start point.
    ``witnesses`` maps a certificate's keyword (``ic``, ``er_lower``, ``mi``)
    to the note its entries carry; any other key is a ValueError."""
    return _entry(subject, None, _STATE_SOURCES, {"ic": ic, "er_lower": er_lower, "mi": mi}, d, base, witnesses)
