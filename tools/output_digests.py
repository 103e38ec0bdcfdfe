"""Digest of every benchmark invocation's output, for a byte-identity check.

    python3 tools/output_digests.py [CHECKOUT]

Imports ``CHECKOUT/src`` (the package) and ``CHECKOUT/bench/workloads.py``
(the invocations), this script's own checkout by default. For seeds 1, 7
and 31 and every benchmark workload it writes the workload's input files to
a temporary directory, runs each invocation through ``distcert.cli.main``
in this process, and prints one tab-separated line: seed, workload, argv,
exit code, md5 of stdout, md5 of stderr. An ``analyze-*`` line is followed by
a line of the certificate values its searches returned (``kind=repr(value)``,
in search order), so a diff shows how far a value moved, not only that the
output changed. Each invocation runs once more
with ``--format csv`` and once more with ``--log-base e``, so both writers
and both bases are covered, and ``analyze-channel`` on a channel with
d_in * d_out <= 36 also with ``--ree``. Then come the lines of seed ``-``:
every ``zoo`` channel at two parameter sets, ``analyze-state`` on inputs
at the trace-distance oracle's edge cases (a 3x2 state, whose factor order is
swapped, a pure 2x2 state and a PPT product state, drawn from seed 0),
``analyze-state`` on two states the REE's barrier engine runs on besides the
benchmark's 3x3 one (a rank-2 2x4 state drawn from seed 0 and the 3x3
isotropic state of fidelity 0.8), and a fixed list of invalid calls
(refused inside the command with exit 2, or by argparse with its SystemExit
code), whose stderr digests pin the error messages. Last comes the seed-7 2x3 benchmark state with ``--max-iters 20``,
where the oracle stops unconverged. The temporary
directory's path reads ``<tmp>`` in argv and is replaced by it in the output
before hashing, so two checkouts that print the same bytes give the same
lines:

    diff <(python3 tools/output_digests.py OLD) <(python3 tools/output_digests.py NEW)
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import shlex
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 7, 31)

# the searches behind the analyze-* reports, as ``distcert.cli`` names them
SEARCHES = (
    "maximize_coherent_information",
    "minimize_coherent_information",
    "maximize_reverse_coherent_information",
    "ree_ppt_lower",
    "trace_dist_to_ppt",
)
CERTS = []  # the Certificates of the call being digested

# every zoo channel at two parameter sets
ZOO = [
    ["zoo", "erasure", "2", "0.1"],
    ["zoo", "erasure", "3", "0.75"],
    ["zoo", "identity", "2", "3"],
    ["zoo", "identity", "3", "3"],
    ["zoo", "depolarizing", "2", "0.2"],
    ["zoo", "depolarizing", "4", "1.0"],
    ["zoo", "completely-depolarizing", "2"],
    ["zoo", "completely-depolarizing", "3"],
]

# input files of the invalid calls, written to <tmp> as given
FILES = {
    "trivial-factor.json": '{"dims": [1, 2], "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}',
    "malformed.json": '{"d_in": 2, "d_out"',
    "qubit-identity.json": '{"d_in": 2, "d_out": 2, "kraus": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]}',
    "unbalanced.json": '{"d_in": 2, "d_out": 2, "kraus": [[[[1, 0], [0, 0]], [[0, 0], [0.5, 0]]]]}',
}

# calls every checkout must refuse; none of them allocates more than a small table
INVALID = [
    ["reproduce", "tightness", "--x", "0.7"],
    ["reproduce", "ex2", "--p-grid", "0:1:0"],
    ["reproduce", "ex2", "--p-grid", "0.9:0.1:5"],
    ["reproduce", "ex2", "--d-range", "2", "--p-grid", "0:1:100000000000000"],
    ["reproduce", "ex1", "--d-range", "banana"],
    ["reproduce", "tightness", "--d-range", "1..4"],
    ["zoo", "erasure", "1", "0.1"],
    ["zoo", "erasure", "2", "1.5"],
    ["zoo", "depolarizing", "1025", "0.5"],
    ["zoo", "identity", "3", "2"],
    ["zoo", "erasure", "2"],
    ["zoo", "teleporter", "2"],
    ["analyze-state", "<tmp>/trivial-factor.json"],
    ["analyze-channel", "<tmp>/malformed.json"],
    ["analyze-channel", "<tmp>/unbalanced.json"],
    ["analyze-channel", "<tmp>/missing.json"],
    ["analyze-channel", "<tmp>/qubit-identity.json", "--restarts", "2000"],
    ["reproduce", "ex1", "--format", "xml"],
    ["reproduce", "ex3"],
]


def _md5(text: str) -> str:
    return hashlib.md5(text.encode()).hexdigest()


def _run(cli, argv: list[str]) -> tuple[object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refusing the argv
            code = f"exit-{exc.code}"
        except Exception as exc:  # a crash is an outcome to compare, not a reason to stop
            code = f"raised-{type(exc).__name__}"
            print(exc, file=sys.stderr)
    return code, out.getvalue(), err.getvalue()


def _record_certificates(cli) -> None:
    """Wraps the searches ``cli`` calls so that each appends its Certificate to ``CERTS``."""
    for name in SEARCHES:
        search = getattr(cli, name)
        setattr(cli, name, lambda *a, _search=search, **k: CERTS.append(cert := _search(*a, **k)) or cert)


def _digest(cli, tmp: str, seed, workload: str, argv: list[str]) -> None:
    """Run ``argv`` and print its line: seed, workload, argv, exit code, md5 of stdout and of stderr;
    after an ``analyze-*`` call, also its certificates' values."""
    CERTS.clear()
    code, out, err = _run(cli, argv)
    shown = shlex.join(argv).replace(tmp, "<tmp>")
    digests = (_md5(text.replace(tmp, "<tmp>")) for text in (out, err))
    print(seed, workload, shown, code, *digests, sep="\t")
    if argv[0].startswith("analyze-"):
        print(seed, workload, "certificates", *(f"{c.kind}={c.value!r}" for c in CERTS), sep="\t")


def main(checkout: Path) -> None:
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    import numpy as np
    from distcert import (
        DensityMatrix,
        cli,
        maximally_entangled,
        random_density_matrix,
        random_pure_state,
        save_state,
        tensor,
    )
    from workloads import WORKLOADS, make_invocations

    if not Path(cli.__file__).resolve().is_relative_to(checkout / "src"):
        raise SystemExit(f"error: imported {cli.__file__}, not the checkout's src/")
    _record_certificates(cli)
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            for workload in WORKLOADS:
                for inv in make_invocations(workload, seed, tmp):
                    extras = [[], ["--format", "csv"], ["--log-base", "e"]]
                    if inv.kind == "channel" and inv.props["d_in"] * inv.props["d_out"] <= 36:
                        extras.append(["--ree"])
                    for extra in extras:
                        _digest(cli, tmp, seed, workload, inv.argv + extra)
        for argv in ZOO:
            _digest(cli, tmp, "-", "zoo", argv)
        rng = np.random.default_rng(0)
        oracle_states = {
            "rank2-3x2": random_density_matrix(6, rng, rank=2, dims=(3, 2)),
            "pure-2x2": random_pure_state(4, rng, dims=(2, 2)).to_density(),
            "product-2x2": DensityMatrix(
                tensor(random_density_matrix(2, rng).mat, random_density_matrix(2, rng).mat), (2, 2)
            ),
        }
        for name, rho in oracle_states.items():
            save_state(rho, path := str(Path(tmp, f"{name}.json")))
            _digest(cli, tmp, "-", "oracle", ["analyze-state", path])
        phi = maximally_entangled(3).to_density().mat
        barrier_states = {
            "rank2-2x4": random_density_matrix(8, np.random.default_rng(0), rank=2, dims=(2, 4)),
            "isotropic-3x3-F0.8": DensityMatrix(0.8 * phi + 0.2 * (np.eye(9) - phi) / 8, (3, 3)),
        }
        for name, rho in barrier_states.items():
            save_state(rho, path := str(Path(tmp, f"{name}.json")))
            _digest(cli, tmp, "-", "barrier", ["analyze-state", path])
        for name, text in FILES.items():
            Path(tmp, name).write_text(text)
        for argv in INVALID:
            _digest(cli, tmp, "-", "invalid", [arg.replace("<tmp>", tmp) for arg in argv])
        [small] = [inv for inv in make_invocations("state-ppt-small", 7, tmp) if inv.props["dims"] == [2, 3]]
        _digest(cli, tmp, 7, "oracle", [*small.argv, "--max-iters", "20"])


if __name__ == "__main__":
    if len(sys.argv) > 2:
        raise SystemExit(__doc__)
    main(Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parent.parent).resolve())
