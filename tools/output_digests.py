"""Digest of every benchmark invocation's output, for a byte-identity check.

    python3 tools/output_digests.py [CHECKOUT]

Imports ``CHECKOUT/src`` (the package) and ``CHECKOUT/bench/workloads.py``
(the invocations), this script's own checkout by default. For seeds 1, 7
and 31 and every benchmark workload it writes the workload's input files to
a temporary directory, runs each invocation through ``distcert.cli.main``
in this process, and prints one tab-separated line: seed, workload, argv,
exit code, md5 of stdout, md5 of stderr. Each invocation runs once more
with ``--format csv`` and once more with ``--log-base e``, so both writers
and both bases are covered, and ``analyze-channel`` on a channel with
d_in * d_out <= 36 also with ``--ree``. The temporary
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


def _md5(text: str) -> str:
    return hashlib.md5(text.encode()).hexdigest()


def _run(cli, argv: list[str]) -> tuple[object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is an outcome to compare, not a reason to stop
            code = f"raised-{type(exc).__name__}"
            print(exc, file=sys.stderr)
    return code, out.getvalue(), err.getvalue()


def main(checkout: Path) -> None:
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    from distcert import cli
    from workloads import WORKLOADS, make_invocations

    if not Path(cli.__file__).resolve().is_relative_to(checkout / "src"):
        raise SystemExit(f"error: imported {cli.__file__}, not the checkout's src/")
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            for workload in WORKLOADS:
                for inv in make_invocations(workload, seed, tmp):
                    extras = [[], ["--format", "csv"], ["--log-base", "e"]]
                    if inv.kind == "channel" and inv.props["d_in"] * inv.props["d_out"] <= 36:
                        extras.append(["--ree"])
                    for argv in (inv.argv + extra for extra in extras):
                        code, out, err = _run(cli, argv)
                        shown = shlex.join(argv).replace(tmp, "<tmp>")
                        digests = (_md5(text.replace(tmp, "<tmp>")) for text in (out, err))
                        print(seed, workload, shown, code, *digests, sep="\t")


if __name__ == "__main__":
    if len(sys.argv) > 2:
        raise SystemExit(__doc__)
    main(Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parent.parent).resolve())
