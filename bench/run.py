"""distcert benchmark: time to certificate and certificate strength.

Usage, from the root of a checkout:

    python3 bench/run.py --workload channel-mirror --seed 1 --seconds 15 --trace 0

Runs the workload's fixed list of CLI invocations through
``distcert.cli.main`` in this one process, pass after pass (closed loop, one
client), until ``--seconds`` have passed, then checks every output. BLAS and
OpenMP are pinned to one thread before numpy loads. The program is imported
from ``src/`` of the checkout; without it the benchmark exits with code 2
and prints no result.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs one untraced pass, then traced passes, and prints the per-layer
metrics. Each metric is printed as ``name = value unit``; the last line of
standard output is one JSON object with keys correct, attempted, failed and
metrics. Details (input properties, per-invocation times, problems found,
environment) go to ``.bench_out/`` in the checkout; traced runs also write
their spans there.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3

END_TO_END = [
    ("run_norm_s", "s"),
    ("setup_s", "s"),
    ("cert_bits", "bits"),
    ("peak_rss_mb", "MiB"),
]


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import distcert from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import distcert
    except ImportError as exc:
        raise SystemExit(f"error: cannot import distcert from {src}: {exc}") from None
    if not Path(distcert.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: distcert was imported from {distcert.__file__}, not {src}")
    import distcert.cli

    return distcert.cli


def blas_threads():
    """Threads OpenBLAS reports using, or None where it cannot be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
    }


def run_invocation(cli, inv, log, probe=None):
    from checks import Outcome

    buf = io.StringIO()
    first = len(log.records)

    def call():
        try:
            with contextlib.redirect_stdout(buf):
                return cli.main(inv.argv)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return -1

    if probe is None:
        t0 = time.perf_counter()
        code = call()
        seconds, norm = time.perf_counter() - t0, 0.0
    else:
        code, seconds, norm = probe.measure(call)
    return Outcome(inv, code, buf.getvalue(), log.records[first:], seconds, norm)


def run_pass(cli, invocations, log, probe=None):
    """Run every invocation once, under the speed probe if one is given."""
    t0 = time.perf_counter()
    outcomes = [run_invocation(cli, inv, log, probe) for inv in invocations]
    return time.perf_counter() - t0, outcomes


def load_reference(workload: str) -> dict:
    path = HERE / "reference.json"
    return json.loads(path.read_text())["workloads"].get(workload, {}) if path.exists() else {}


def setup(cli, workload, seed, workdir, tiny=False):
    """Input generation and one warm-up call of the workload's verb."""
    from spans import CertificateLog
    from workloads import make_invocations

    invocations = make_invocations(workload, seed, str(workdir), tiny)
    tiny_dir = workdir / "warm-up"
    tiny_dir.mkdir(exist_ok=True)
    warm = make_invocations(workload, seed, str(tiny_dir), tiny=True)[0]
    if run_invocation(cli, warm, CertificateLog()).code != 0:
        raise SystemExit(f"error: warm-up call {warm.argv} failed")
    return invocations


def time_setup(workload, seed) -> float:
    """Set-up time: median over fresh processes that import distcert, write
    the inputs and make the warm-up call (what a CLI user pays before any
    work), each scaled to the reference speed by the probe time the process
    reports right after its set-up."""
    from speed import REFERENCE_PROBE_S

    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True,
        )
        wall = time.perf_counter() - t0
        times.append(wall * REFERENCE_PROBE_S / float(child.stdout.split()[-1]))
    return statistics.median(times)


def probe_seconds() -> float:
    """Median of a few speed-probe timings, for --setup-only."""
    from speed import SpeedProbe

    probe = SpeedProbe()
    for _ in range(5):
        probe.sample()
    return statistics.median(d for _, d in probe.samples)


class Passes:
    """Outcomes of the passes of one run. The first pass is kept whole for
    the checks; a later one only records whether it repeated the first
    byte for byte, so memory does not grow with the number of passes."""

    def __init__(self):
        self.first = None
        self.seconds = []  # per pass: work seconds of each invocation
        self.repeats_failed = []
        self.attempted = 0

    def add(self, outcomes) -> None:
        self.attempted += len(outcomes)
        self.seconds.append([o.seconds for o in outcomes])
        if self.first is None:
            self.first = outcomes
            return
        for out, ref in zip(outcomes, self.first):
            if out.code != 0 or out.text != ref.text:
                self.repeats_failed.append(out.invocation.name)

    def check(self, references):
        """Full checks on the first pass: (failed, problems, cert_bits)."""
        from checks import cert_bits, check_outcome

        failed, problems, bits = 0, [], 0.0
        for out in self.first:
            found, report = check_outcome(out, references.get(out.invocation.name))
            if found:
                failed += 1
                problems += [f"{out.invocation.name}: {p}" for p in found]
            elif report is not None:
                bits += cert_bits(out, report)
        failed += len(self.repeats_failed)
        problems += [f"{name}: output differs from the first pass" for name in self.repeats_failed]
        return failed, problems, bits


def _more(start, last_pass_s, seconds) -> bool:
    # another pass only if it should still end within the budget
    return time.perf_counter() - start + last_pass_s <= seconds


def measure_untraced(cli, invocations, log, seconds, passes) -> dict:
    from speed import SpeedProbe

    probe = SpeedProbe()
    wall, norm = [], []
    start = time.perf_counter()
    while not wall or _more(start, wall[-1], seconds):
        _, outcomes = run_pass(cli, invocations, log, probe)
        passes.add(outcomes)
        wall.append(sum(o.seconds for o in outcomes))
        norm.append(sum(o.norm_seconds for o in outcomes))
    return {
        "run_norm_s": statistics.median(norm),
        "wall_run_s": statistics.median(wall),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_wall_s": wall,
        "pass_norm_s": norm,
    }


def measure_traced(cli, invocations, log, seconds, passes, patch, tag) -> dict:
    """One untraced pass, then traced passes; spans are cleared after each
    traced pass, and those of the first are written to .bench_out/."""
    from spans import Tracer, missing_groups, pass_metrics, summarize

    start = time.perf_counter()
    untraced_s, outcomes = run_pass(cli, invocations, log)
    passes.add(outcomes)
    tracer = Tracer()
    tracer.install(patch)
    per_pass, saved = [], None
    while not per_pass or _more(start, per_pass[-1]["trace.run_s"], seconds):
        tracer.clear()
        first_cert = len(log.records)
        dt, outcomes = run_pass(cli, invocations, log)
        passes.add(outcomes)
        spans = tracer.arrays()
        per_pass.append(pass_metrics(tracer.names, spans, dt, log.records[first_cert:]))
        saved = saved or spans
    layer = summarize(per_pass, tracer.counters.get("optimize.ascent.accepted", 0), untraced_s)
    return {
        "layer": layer,
        "per_pass": per_pass,
        "missing": missing_groups(tracer.names) + sorted(tracer.counter_failures),
        "span_file": write_spans(tracer.names, saved, tag),
    }


def measure(cli, workload, seed, seconds, trace, workdir, tiny=False) -> dict:
    """Run the workload for about ``seconds`` (at least one pass) and check
    its outputs; ``tiny`` selects the small inputs the tests use."""
    from spans import PER_LAYER, CertificateLog, Patch

    invocations = setup(cli, workload, seed, workdir, tiny)
    log, patch, passes = CertificateLog(), Patch(), Passes()
    log.install(patch)
    try:
        if trace:
            detail = measure_traced(cli, invocations, log, seconds, passes, patch, f"{workload}-seed{seed}")
        else:
            detail = measure_untraced(cli, invocations, log, seconds, passes)
    finally:
        patch.undo()
    failed, problems, bits = passes.check(load_reference(workload))
    if trace:
        layer = detail.pop("layer")
        metrics = {name: (layer[name], unit) for name, unit, _ in PER_LAYER}
    else:
        metrics = {
            "run_norm_s": (detail.pop("run_norm_s"), "s"),
            "setup_s": (time_setup(workload, seed), "s"),
            "cert_bits": (bits, "bits"),
            "peak_rss_mb": (detail.pop("peak_rss_mb"), "MiB"),
        }
    timed = passes.seconds[1:] if trace else passes.seconds
    detail.update(
        {
            "workload": workload,
            "seed": seed,
            "trace": int(trace),
            "invocations": [
                {
                    "name": inv.name,
                    "argv": [inv.argv[0]] + [Path(a).name if a.startswith(str(workdir)) else a for a in inv.argv[1:]],
                    "props": inv.props,
                    "median_s": statistics.median(p[i] for p in timed),
                }
                for i, inv in enumerate(invocations)
            ],
            "problems": problems,
            "missing": sorted(set(log.missing + detail.get("missing", []))),
            "environment": environment(),
        }
    )
    return {
        "correct": failed == 0,
        "attempted": passes.attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": detail,
    }


def write_spans(names, spans, tag) -> str:
    import numpy as np

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"{tag}.spans.npz"
    np.savez_compressed(path, names=np.array(names), **spans)
    return str(path.relative_to(ROOT))


def report(result: dict) -> None:
    detail = result.pop("detail")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    name = f"{detail['workload']}-seed{detail['seed']}-trace{detail['trace']}.json"
    (out / name).write_text(json.dumps({**result, "metrics": {k: v[0] for k, v in result["metrics"].items()}, "detail": detail}, indent=1))
    for problem in detail["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if detail["missing"]:
        print(f"missing (reported as 0): {', '.join(detail['missing'])}", file=sys.stderr)
    for key, (value, unit) in result["metrics"].items():
        print(f"{key} = {value!r} {unit}")
    if "wall_run_s" in detail:
        print(f"(wall time of the same work, not a bound metric: {detail['wall_run_s']!r} s)")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    cli = import_program()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        if args.setup_only:
            setup(cli, args.workload, args.seed, workdir)
            print(probe_seconds())
            return 0
        result = measure(cli, args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
