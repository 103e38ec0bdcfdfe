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
from functools import partial
from pathlib import Path

import numpy as np

from .bounds import FORMULAS, Formula, _csv_text, assemble_report, assemble_state_report, base_label
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
from .linalg import _as_int
from .optimize import (
    OptimizerConfig,
    maximize_coherent_information,
    maximize_reverse_coherent_information,
    minimize_coherent_information,
    ree_ppt_lower,
    trace_dist_to_ppt,
)

_REE_AUTO_DIM = 36
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


def _cfg_of(args) -> OptimizerConfig:
    return OptimizerConfig(restarts=args.restarts, max_iters=args.max_iters, seed=args.seed)


def _search(args, certs: list, witnesses: dict, key: str, what: str, search, subject) -> float:
    """One search with the command's config and log base; keeps its Certificate and witness note."""
    cert = search(subject, _cfg_of(args), _base_of(args))
    certs.append(cert)
    witnesses[key] = f"{what} ({cert.iterations} iterations, converged={cert.converged})"
    return _snap(cert.value)


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
    certs = []
    witnesses = {}
    run = partial(_search, args, certs, witnesses)
    ic = run("ic", "mirror-ascent input state", maximize_coherent_information, phi)
    min_ic = run("min_ic", "mirror-descent input state", minimize_coherent_information, phi)
    rci = run("rci", "mirror-ascent input state", maximize_reverse_coherent_information, phi)
    er_lower = None
    if args.ree:
        er_lower = run("er", "PPT descent candidate", ree_ppt_lower, choi(phi))
    report = assemble_report(
        args.path,
        d=phi.d_in,
        base=_base_of(args),
        ic=ic,
        min_ic=min_ic,
        rci=rci,
        er_lower=er_lower,
        witnesses=witnesses,
        seed=args.seed,
    )
    report.notes.append(f"channel: d_in={phi.d_in}, d_out={phi.d_out}, kraus={phi.d_env}")
    if not args.ree:
        report.notes.append("relative entropy certificate not computed; pass --ree to enable it")
    return _emit_report(report, args, certs)


def _cmd_analyze_state(args) -> int:
    rho = load_state(args.path)
    base = _base_of(args)
    cfg = _cfg_of(args)
    da, db = rho.dims
    d = min(da, db)
    if d < 2:
        raise ValueError(f"state dims ({da}, {db}) have a trivial factor; both must be >= 2")
    n = rho.dim
    ic = max_coherent_information(rho, base)
    mi = mutual_information(rho, base)
    certs = []
    exact = "the state itself (exact evaluation)"
    witnesses = {"ic": exact, "mi": exact}
    notes = []
    er_lower = None
    if args.ree or n <= _REE_AUTO_DIM:
        er_lower = _search(args, certs, witnesses, "er", "PPT descent candidate", ree_ppt_lower, rho)
    else:
        notes.append(
            f"relative entropy certificate skipped (dimension {n} exceeds "
            f"{_REE_AUTO_DIM}); pass --ree to force it"
        )
    oracle_val = None
    if args.oracle or n <= _ORACLE_AUTO_DIM:
        o_cert = trace_dist_to_ppt(rho, cfg)
        certs.append(o_cert)
        oracle_val = o_cert.value
    report = assemble_state_report(
        args.path,
        d=d,
        base=base,
        ic=_snap(ic),
        er_lower=er_lower,
        mi=mi,
        oracle=oracle_val,
        witnesses=witnesses,
        seed=args.seed,
    )
    report.notes.extend(notes)
    report.notes.append(f"state: dims=({da}, {db})")
    return _emit_report(report, args, certs)


# ----- reproduce tables -----


def _parse_d_range(text: str) -> list[int]:
    """Either 'a..b' (doubling from a up to b) or a comma list of ints."""
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
            return ds
        ds = [int(t) for t in text.split(",") if t.strip()]
        if not ds or any(d < 2 for d in ds):
            raise ValueError
        return ds
    except ValueError:
        raise ValueError(f"bad dimension range {text!r}") from None


def _parse_p_grid(text: str) -> list[float]:
    """'start:stop:count' linear grid."""
    try:
        start_s, stop_s, count_s = text.split(":")
        start, stop, count = float(start_s), float(stop_s), int(count_s)
        if count < 1 or not 0.0 <= start <= stop <= 1.0:
            raise ValueError
    except ValueError:
        raise ValueError(f"bad probability grid {text!r}") from None
    return [float(p) for p in np.linspace(start, stop, count)]


def _table_ex1(ds: list[int], base: float) -> tuple[list[str], list[list]]:
    eq9, eq10 = FORMULAS[Formula.DA_FROM_CI].kernel, FORMULAS[Formula.DEB_FROM_CI].kernel
    rows = []
    for d in ds:
        gap = _log(float(d), base)
        rows.append([d, eq9(gap, d, base), eq10(gap, d, base)])
    return ["d", "Eq9", "Eq10"], rows


def _table_ex2(ds: list[int], ps: list[float], base: float) -> tuple[list[str], list[list]]:
    eq10, eq11, eq12 = (
        FORMULAS[f].kernel for f in (Formula.DEB_FROM_CI, Formula.DEB_FROM_RCI, Formula.DEB_FROM_REE)
    )
    rows = []
    for d in ds:
        log_d = _log(float(d), base)
        for p in ps:
            gap_ic = (1.0 - 2.0 * p) * log_d
            gap_l = (1.0 - p) * log_d - binary_entropy(p, base)
            gap_er = (1.0 - p) * log_d
            rows.append(
                [d, p, eq10(gap_ic, d, base), eq11(gap_l, d, base), eq12(gap_er, d, base), 2.0 * (1.0 - p)]
            )
    return ["d", "p", "Eq10", "Eq11", "Eq12", "upper"], rows


def _table_tightness(ds: list[int], x: float, base: float) -> tuple[list[str], list[list]]:
    if not 0.0 < x < 0.5:
        raise ValueError(f"x must lie strictly between 0 and 0.5, got {x}")
    p = 0.5 - x
    eq9_kernel, eq12_kernel = FORMULAS[Formula.DA_FROM_CI].kernel, FORMULAS[Formula.DEB_FROM_REE].kernel
    rows = []
    for d in ds:
        log_d = _log(float(d), base)
        eq9 = eq9_kernel(2.0 * x * log_d, d, base)
        eq9_upper = 2.0 * x
        eq12 = eq12_kernel((1.0 - p) * log_d, d, base)
        eq12_upper = 2.0 * (1.0 - p)
        rows.append([d, eq9, eq9_upper, eq9 / eq9_upper, eq12, eq12_upper, eq12 / eq12_upper])
    return ["d", "Eq9", "Eq9_upper", "Eq9_ratio", "Eq12", "Eq12_upper", "Eq12_ratio"], rows


def _table_text(name, columns, rows, base, fmt) -> str:
    if fmt == "csv":
        return _csv_text(columns, rows)
    table = {"table": name, "log_base": base_label(base), "columns": columns, "rows": rows}
    return json.dumps(table, indent=2)


# table name -> (default --d-range, build(ds, args, base) -> (columns, rows))
_TABLES = {
    "ex1": ("2..64", lambda ds, args, base: _table_ex1(ds, base)),
    "ex2": ("16", lambda ds, args, base: _table_ex2(ds, _parse_p_grid(args.p_grid), base)),
    "tightness": ("2..4096", lambda ds, args, base: _table_tightness(ds, args.x, base)),
}


def _cmd_reproduce(args) -> int:
    base = _base_of(args)
    default_d, build = _TABLES[args.table]
    columns, rows = build(_parse_d_range(args.d_range or default_d), args, base)
    _emit(_table_text(args.table, columns, rows, base, args.format), args.out)
    return 0


# ----- zoo -----


# zoo name -> (constructor, its parameters as (name, int or float) pairs)
_ZOO = {
    "erasure": (erasure, (("d", int), ("p", float))),
    "identity": (identity_embedding, (("d_in", int), ("d_out", int))),
    "depolarizing": (depolarizing, (("d", int), ("lambda", float))),
    "completely-depolarizing": (completely_depolarizing, (("d", int),)),
}


def _cmd_zoo(args) -> int:
    if args.name not in _ZOO:
        raise ValueError(f"unknown zoo channel {args.name!r}")
    make, spec = _ZOO[args.name]
    if len(args.params) != len(spec):
        raise ValueError(f"zoo {args.name} takes: " + " ".join(name for name, _ in spec))
    phi = make(*(_as_int(v, name) if kind is int else v for (name, kind), v in zip(spec, args.params)))
    _emit(json.dumps(channel_to_dict(phi)), args.out)
    return 0


# ----- parser -----


def _add_output_flags(sp) -> None:
    sp.add_argument("--out", default=None, help="write the report here instead of stdout")
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.add_argument("--log-base", choices=["2", "e"], default="2", dest="log_base")


def _add_optimizer_flags(sp) -> None:
    defaults = OptimizerConfig()
    sp.add_argument("--seed", type=int, default=defaults.seed)
    sp.add_argument("--restarts", type=int, default=defaults.restarts)
    sp.add_argument("--max-iters", type=int, default=defaults.max_iters, dest="max_iters")
    sp.add_argument(
        "--strict",
        action="store_true",
        help="exit with code 3 if any search fails to converge",
    )


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

    ac = sub.add_parser("analyze-channel", help="bound distances for a channel file")
    ac.add_argument("path", help="channel JSON file")
    _add_output_flags(ac)
    _add_optimizer_flags(ac)
    ac.add_argument(
        "--ree",
        action="store_true",
        help="also certify the relative entropy of entanglement of the "
        "normalized Choi state (slower)",
    )

    st = sub.add_parser("analyze-state", help="bound distances for a bipartite state file")
    st.add_argument("path", help="state JSON file")
    _add_output_flags(st)
    _add_optimizer_flags(st)
    st.add_argument(
        "--ree",
        action="store_true",
        help=f"force the relative entropy certificate above dimension {_REE_AUTO_DIM}",
    )
    st.add_argument(
        "--oracle",
        action="store_true",
        help=f"force the PPT trace-distance search above dimension {_ORACLE_AUTO_DIM}",
    )

    rp = sub.add_parser("reproduce", help="closed-form scan tables")
    rp.add_argument("table", choices=list(_TABLES))
    _add_output_flags(rp)
    rp.add_argument(
        "--d-range",
        default=None,
        dest="d_range",
        help="'a..b' doubling sweep or comma list (default depends on the table)",
    )
    rp.add_argument("--p-grid", default="0.2:0.6:9", dest="p_grid", help="start:stop:count")
    rp.add_argument("--x", type=float, default=0.25, help="erasure offset for tightness")

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
