"""Command-line front end: analyze channels and states, tabulate the
closed-form scans, and write zoo channels to disk.

Exit codes: 0 on success, 2 on validation problems (malformed files, bad
parameters), 3 when --strict is set and some search did not converge.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache, partial
from pathlib import Path

import numpy as np

from .bounds import Formula, _csv_text, assemble_report, assemble_state_report, base_label
from .channels import (
    channel_to_dict,
    choi,
    completely_depolarizing,
    depolarizing,
    erasure,
    identity_embedding,
    load_channel,
    load_state,
)
from .entropy import _log, binary_entropy, max_coherent_information, mutual_information
from .linalg import MAX_DIM
from .optimize import (
    _BARRIER_DIMS,
    OptimizerConfig,
    maximize_coherent_information,
    maximize_reverse_coherent_information,
    minimize_coherent_information,
    ree_ppt_lower,
    trace_dist_to_ppt,
)

_REE_AUTO_DIM = 36
# the trace-distance oracle runs only here: PPT and separable states coincide up to d_A*d_B = 6
_ORACLE_AUTO_DIM = 6

# Search values this close to zero are evaluation noise, not certificates;
# they are snapped to zero so reports do not grow entries out of float dust.
_CERT_NOISE_FLOOR = 1e-12


def _snap(value: float) -> float:
    return 0.0 if abs(value) < _CERT_NOISE_FLOOR else value


# ----- plumbing -----


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _base_of(args) -> float:
    return 2.0 if args.log_base == "2" else math.e


def _ree_note(n: int) -> str:
    """The REE witness note: which of ``ree_ppt_lower``'s engines runs at dimension ``n``."""
    return f"PPT {'barrier' if n in _BARRIER_DIMS else 'descent'} candidate"


def _search(cfg, base, certs: list, values: dict, witnesses: dict, key: str, what: str, search, subject) -> None:
    """One search with the command's config and log base; keeps its Certificate, and its snapped value
    and witness note under ``key``, the report builder's keyword for it."""
    cert = search(subject, cfg, base)
    certs.append(cert)
    values[key] = _snap(cert.value)
    witnesses[key] = f"{what} ({cert.iterations} iterations, converged={cert.converged})"


def _emit_report(report, args, certs) -> int:
    """Note unconverged searches, emit the report, and return the exit code."""
    stuck = [c.kind for c in certs if not c.converged]
    if stuck:
        report.notes.append("unconverged searches: " + ", ".join(stuck))
    _emit(report.to_csv() if args.format == "csv" else report.to_json(), args.out)
    return 3 if args.strict and stuck else 0


# ----- analyze commands -----


def _cmd_analyze_channel(args) -> int:
    phi = load_channel(args.path)
    base = _base_of(args)
    cfg = OptimizerConfig(restarts=args.restarts, max_iters=args.max_iters, seed=args.seed)
    certs, values, witnesses = [], {}, {}
    run = partial(_search, cfg, base, certs, values, witnesses)
    run("ic", "mirror-ascent input state", maximize_coherent_information, phi)
    run("min_ic", "mirror-descent input state", minimize_coherent_information, phi)
    run("rci", "mirror-ascent input state", maximize_reverse_coherent_information, phi)
    if args.ree:
        state = choi(phi)
        run("er_lower", _ree_note(state.dim), ree_ppt_lower, state)
    report = assemble_report(args.path, d=phi.d_in, base=base, witnesses=witnesses, seed=args.seed, **values)
    report.notes.append(f"channel: d_in={phi.d_in}, d_out={phi.d_out}, kraus={phi.d_env}")
    if not args.ree:
        report.notes.append("relative entropy certificate not computed; pass --ree to enable it")
    return _emit_report(report, args, certs)


def _cmd_analyze_state(args) -> int:
    rho = load_state(args.path)
    base = _base_of(args)
    # the REE descent and the oracle start from one fixed point and read only max_iters
    cfg = OptimizerConfig(max_iters=args.max_iters)
    da, db = rho.dims
    d = min(da, db)
    if d < 2:
        raise ValueError(f"state dims ({da}, {db}) have a trivial factor; both must be >= 2")
    n = rho.dim
    certs = []
    values = {"ic": _snap(max_coherent_information(rho, base)), "mi": mutual_information(rho, base)}
    exact = "the state itself (exact evaluation)"
    witnesses = {"ic": exact, "mi": exact}
    if args.ree or n <= _REE_AUTO_DIM:
        _search(cfg, base, certs, values, witnesses, "er_lower", _ree_note(n), ree_ppt_lower, rho)
    report = assemble_state_report(args.path, d=d, base=base, witnesses=witnesses, **values)
    if n <= _ORACLE_AUTO_DIM:
        certs.append(cert := trace_dist_to_ppt(rho, cfg))
        report.notes.append(f"trace distance to the PPT set, search estimate: {cert.value!r}")
    if "er_lower" not in values:
        skipped = f"relative entropy certificate skipped (dimension {n} exceeds {_REE_AUTO_DIM})"
        report.notes.append(skipped + "; pass --ree to force it")
    report.notes.append(f"state: dims=({da}, {db})")
    return _emit_report(report, args, certs)


# ----- reproduce tables -----


def _parse_d_range(text: str) -> list[int]:
    """Either 'a..b' (doubling from a up to b) or a comma list of ints >= 2, within a float's range."""
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if lo < 2 or hi < lo:
                raise ValueError
            ds = []
            d = lo
            while d <= hi:
                ds.append(d)
                d *= 2
        else:
            ds = [int(t) for t in text.split(",") if t.strip()]
            if not ds or any(d < 2 for d in ds):
                raise ValueError
        float(max(ds))  # an OverflowError past the largest float
        return ds
    except (ValueError, OverflowError):
        raise ValueError(f"bad dimension range {text!r}") from None


def _parse_p_grid(text: str) -> list[float]:
    """'start:stop:count' linear grid of at most MAX_DIM**2 points, refused before it is allocated."""
    try:
        start_s, stop_s, count_s = text.split(":")
        start, stop, count = float(start_s), float(stop_s), int(count_s)
        if not 1 <= count <= MAX_DIM**2 or not 0.0 <= start <= stop <= 1.0:
            raise ValueError
    except ValueError:
        raise ValueError(f"bad probability grid {text!r}") from None
    return [float(p) for p in np.linspace(start, stop, count)]


# A table is its column names and a list of blocks: a block is a tuple of equal-length columns, and the
# table's rows are the blocks' rows in order. Blocks may share a column object.


def _table_ex1(ds: list[int], base: float) -> tuple[list[str], list[tuple]]:
    eq9, eq10 = Formula.DA_FROM_CI.kernel, Formula.DEB_FROM_CI.kernel
    rows = []
    for d in ds:
        gap = _log(float(d), base)
        rows.append((d, eq9(gap, d, base), eq10(gap, d, base)))
    return ["d", "Eq9", "Eq10"], [tuple(zip(*rows))]


def _table_ex2(ds: list[int], ps: list[float], base: float) -> tuple[list[str], list[tuple]]:
    if len(ds) * len(ps) > MAX_DIM**2:  # refused before any column is built
        raise ValueError(f"ex2 table of {len(ds)} x {len(ps)} rows exceeds the cap, {MAX_DIM**2} rows")
    eq10, eq11, eq12 = Formula.DEB_FROM_CI.kernel, Formula.DEB_FROM_RCI.kernel, Formula.DEB_FROM_REE.kernel
    # each column is one kernel call over the whole p-grid; one block per d, all sharing the p and upper columns
    p = np.array(ps)
    h = binary_entropy(p, base)
    upper = (2.0 * (1.0 - p)).tolist()
    blocks = []
    for d in ds:
        log_d = _log(float(d), base)
        gap_ic = (1.0 - 2.0 * p) * log_d
        gap_l = (1.0 - p) * log_d - h
        gap_er = (1.0 - p) * log_d
        cols = (eq10(gap_ic, d, base), eq11(gap_l, d, base), eq12(gap_er, d, base))
        blocks.append(([d] * len(ps), ps, *(c.tolist() for c in cols), upper))
    return ["d", "p", "Eq10", "Eq11", "Eq12", "upper"], blocks


def _table_tightness(ds: list[int], x: float, base: float) -> tuple[list[str], list[tuple]]:
    if not 0.0 < x < 0.5:
        raise ValueError(f"x must lie strictly between 0 and 0.5, got {x}")
    p = 0.5 - x
    eq9_kernel, eq12_kernel = Formula.DA_FROM_CI.kernel, Formula.DEB_FROM_REE.kernel
    rows = []
    for d in ds:
        log_d = _log(float(d), base)
        eq9 = eq9_kernel(2.0 * x * log_d, d, base)
        eq9_upper = 2.0 * x
        eq12 = eq12_kernel((1.0 - p) * log_d, d, base)
        eq12_upper = 2.0 * (1.0 - p)
        rows.append((d, eq9, eq9_upper, eq9 / eq9_upper, eq12, eq12_upper, eq12 / eq12_upper))
    return ["d", "Eq9", "Eq9_upper", "Eq9_ratio", "Eq12", "Eq12_upper", "Eq12_ratio"], [tuple(zip(*rows))]


def _table_text(name, columns, blocks, base, fmt) -> str:
    """CSV, or exactly ``json.dumps(table, indent=2)`` with the blocks' rows as ``table["rows"]``.

    ``indent`` turns off CPython's C encoder, so only the head takes it. Each distinct column object takes the
    C encoder once, with its default ", " separator, which no JSON number contains; each block splits its
    columns' text into cells there and lays them out row by row at the rows' indent."""
    if fmt == "csv":
        return _csv_text(columns, (row for block in blocks for row in zip(*block)))
    head = json.dumps({"table": name, "log_base": base_label(base), "columns": columns, "rows": []}, indent=2)
    between_rows = "\n    ],\n    [\n      "
    encoded = {}  # id(column) -> the column's JSON without its brackets
    texts = []  # one per block that has rows
    for block in blocks:
        for col in block:
            if id(col) not in encoded:
                encoded[id(col)] = json.dumps(col)[1:-1]
        cells = (encoded[id(col)].split(", ") if encoded[id(col)] else [] for col in block)
        if rows := between_rows.join(map(",\n      ".join, zip(*cells))):
            texts.append(rows)
    if not texts:
        return head
    # one join writes the whole table: concatenating around the joined rows would copy them twice more
    texts[0] = head[:-4] + "[\n    [\n      " + texts[0]
    texts[-1] += "\n    ]\n  ]\n}"
    return between_rows.join(texts)


# table name -> (default --d-range, build(ds, args, base) -> (columns, blocks))
_TABLES = {
    "ex1": ("2..64", lambda ds, args, base: _table_ex1(ds, base)),
    "ex2": ("16", lambda ds, args, base: _table_ex2(ds, _parse_p_grid(args.p_grid), base)),
    "tightness": ("2..4096", lambda ds, args, base: _table_tightness(ds, args.x, base)),
}


def _cmd_reproduce(args) -> int:
    base = _base_of(args)
    _, build = _TABLES[args.table]
    columns, blocks = build(_parse_d_range(args.d_range), args, base)
    _emit(_table_text(args.table, columns, blocks, base, args.format), args.out)
    return 0


# ----- zoo -----


# zoo name -> (constructor, its parameter names); the constructors check the numbers
_ZOO = {
    "erasure": (erasure, ("d", "p")),
    "identity": (identity_embedding, ("d_in", "d_out")),
    "depolarizing": (depolarizing, ("d", "lambda")),
    "completely-depolarizing": (completely_depolarizing, ("d",)),
}


def _cmd_zoo(args) -> int:
    if args.name not in _ZOO:
        raise ValueError(f"unknown zoo channel {args.name!r}")
    make, names = _ZOO[args.name]
    if len(args.params) != len(names):
        raise ValueError(f"zoo {args.name} takes: " + " ".join(names))
    phi = make(*args.params)
    _emit(json.dumps(channel_to_dict(phi)), args.out)
    return 0


# ----- parser -----


_DEFAULT = " (default %(default)s)"


def _output_flags() -> argparse.ArgumentParser:
    """The output flags of every verb but zoo, as a parent parser (argparse copies a
    parent's flags without the per-flag formatting check of add_argument)."""
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="write the report here instead of stdout")
    out.add_argument("--format", choices=["json", "csv"], default="json")
    out.add_argument("--log-base", choices=["2", "e"], default="2")
    return out


def _add_search_flags(sp) -> None:
    sp.add_argument("--max-iters", type=int, default=OptimizerConfig.max_iters)
    sp.add_argument(
        "--strict",
        action="store_true",
        help="exit with code 3 if any search fails to converge",
    )


@cache  # built once per process: main parses every call with this one parser
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="distcert",
        description=(
            "Certified lower bounds on distances from channels and states to "
            "structured sets (degradable, antidegradable, entanglement "
            "breaking, separable, product)."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)
    output = [_output_flags()]

    ac = sub.add_parser("analyze-channel", parents=output, help="bound distances for a channel file")
    ac.add_argument("path", help="channel JSON file")
    ac.add_argument("--seed", type=int, default=OptimizerConfig.seed)
    ac.add_argument("--restarts", type=int, default=OptimizerConfig.restarts)
    _add_search_flags(ac)
    ac.add_argument(
        "--ree",
        action="store_true",
        help="also certify the relative entropy of entanglement of the "
        "normalized Choi state (slower)",
    )

    st = sub.add_parser("analyze-state", parents=output, help="bound distances for a bipartite state file")
    st.add_argument("path", help="state JSON file")
    _add_search_flags(st)
    st.add_argument(
        "--ree",
        action="store_true",
        help=f"force the relative entropy certificate above dimension {_REE_AUTO_DIM}",
    )

    rp = sub.add_parser("reproduce", help="closed-form scan tables")
    tables = rp.add_subparsers(dest="table", required=True)
    for name, (d_range, _) in _TABLES.items():
        tp = tables.add_parser(name, parents=output)
        tp.add_argument("--d-range", default=d_range, help="'a..b' doubling sweep or comma list" + _DEFAULT)
    table = tables.choices
    table["ex2"].add_argument("--p-grid", default="0.2:0.6:9", help="start:stop:count" + _DEFAULT)
    table["tightness"].add_argument("--x", type=float, default=0.25, help="erasure p = 1/2 - x" + _DEFAULT)

    zoo = sub.add_parser("zoo", help="write a named channel as JSON")
    zoo.add_argument("name", help=" | ".join(_ZOO))
    zoo.add_argument("params", nargs="*", type=float)
    zoo.add_argument("--out", default=None)
    return p


_DISPATCH = {
    "analyze-channel": _cmd_analyze_channel,
    "analyze-state": _cmd_analyze_state,
    "reproduce": _cmd_reproduce,
    "zoo": _cmd_zoo,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
