"""Record bench/reference.json: the values the checker holds reports to.

Usage, from the root of a checkout:

    python3 bench/record_reference.py

Runs one pass of every workload per seed, checks it without references,
and stores per invocation the smallest value seen across the seeds (the
seeds only rotate the panel, so they agree up to float noise). Run it only
when a change is meant to move certificate values, and say so: the
reference is what makes such a move visible.
"""
from __future__ import annotations

import json
import shutil
import sys

import run

SEEDS = (0, 1, 2)


def record(seeds) -> dict:
    cli = run.import_program()
    sys.path.insert(0, str(run.HERE))
    from checks import check_outcome, observed_values
    from spans import CertificateLog, Patch
    from workloads import WORKLOADS

    out = {}
    for workload in WORKLOADS:
        per_inv = {}
        for seed in seeds:
            workdir = run.ROOT / ".bench_work" / f"reference-{workload}-{seed}"
            workdir.mkdir(parents=True)
            patch = Patch()
            log = CertificateLog()
            try:
                invocations = run.setup(cli, workload, seed, workdir)
                log.install(patch)
                _, outcomes = run.run_pass(cli, invocations, log)
            finally:
                patch.undo()
                shutil.rmtree(workdir, ignore_errors=True)
            for outcome in outcomes:
                problems, report = check_outcome(outcome, None)
                if problems:
                    raise SystemExit(f"{workload}/{outcome.invocation.name}: {problems}")
                # the tightness table's offset is seeded, so it has no fixed reference
                if outcome.invocation.name.endswith("tightness"):
                    continue
                seen = per_inv.setdefault(outcome.invocation.name, {})
                for key, value in observed_values(outcome, report).items():
                    seen[key] = min(value, seen.get(key, value))
        out[workload] = per_inv
    return out


def main() -> int:
    run.pin_threads()
    workloads = record(SEEDS)
    import numpy as np

    data = {"seeds": list(SEEDS), "numpy": np.__version__, "workloads": workloads}
    (run.HERE / "reference.json").write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
