"""Pinned command output: what ``analyze-channel``, ``analyze-state`` and
``reproduce`` print.

``golden_cli.json`` holds, for each invocation below, the exit code and the
parsed output (JSON without its ``subject`` path, or CSV rows), recorded with
``_observed``: the ``analyze-*`` cases at commit 0631c90, the ``reproduce``
cases at e240132. When ``analyze-state`` lost ``--seed``, the two state cases
had their ``"seed"`` value set from 0 to null by hand. When mirror line searches
started to end at the slope test, the min-Ic witness text of
``channel/depolarizing(3,0.2)/nats`` was set from 11 to 12 iterations by hand;
its floats moved by less than 4e-15. When the trace-distance oracle became a
log-barrier solve, the oracle notes of ``state/2x2`` and ``state/2x3`` were set
by hand from 0.0609955 to 0.0558928 and from 0.4394709 to 0.4388132, and, as
the oracle now stops unconverged at the 40-step cap, their
``unconverged searches`` notes from ``ER_lower`` to ``ER_lower, Ds_oracle``.
When each mirror step started to take a Barzilai-Borwein step length from the
seed's last two step starts, the witness texts (iteration counts) of
``channel/erasure(3,0.2)/ree``, ``channel/erasure(3,0.2)/ree/strict``,
``channel/depolarizing(3,0.2)/nats`` and ``channel/random(2,3,2)/csv`` were
set by hand; their floats moved by at most 3.6e-14 and were kept.
When a mirror-ascent seed started to retire at a step start on finding a
seed at least as good within Frobenius distance 1e-2,
``channel/depolarizing(3,0.2)/nats`` (witness texts 8 -> 1 and 6 -> 1
iterations) and ``channel/random(2,3,2)/csv`` (8 -> 7, 8 -> 7 and 9 -> 8)
were re-recorded whole with ``_observed``; against the previous commit's
output their floats moved by at most 3.8e-15.
The invocations cover the mirror ascents with and without
``--ree``, both log bases, CSV output, ``--max-iters 0``, a ``--strict`` run
that exits 3, ``analyze-state`` with the automatic REE descent and
trace-distance oracle on rank-2 2x2 and 2x3 states, and the three
``reproduce`` tables at their defaults and with each table parameter set.

Exit codes, strings (notes, witness text, entry order) and key order must
match exactly; floats must agree within 1e-9, the tolerance of
``golden_certificates.json``, because exact bits differ across LAPACK
builds. Do not regenerate the file to make a change pass: output that
differs from it is a behaviour change.
"""

import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

from distcert import (
    depolarizing,
    erasure,
    random_channel,
    random_density_matrix,
    save_channel,
    save_state,
)
from distcert.cli import main

GOLDEN = json.loads(Path(__file__).with_name("golden_cli.json").read_text())
# search flags of each analyze verb; analyze-state has no --restarts or --seed
FAST = {"analyze-channel": ["--restarts", "1", "--max-iters", "40"], "analyze-state": ["--max-iters", "40"]}
TOL = 1e-9


def _random_23():
    return random_channel(2, 3, 2, np.random.default_rng(0))


def _rank2(a, b):
    return random_density_matrix(a * b, np.random.default_rng(0), rank=2, dims=(a, b))


# case -> (verb, function making the input file or None for no file, extra flags)
CASES = {
    "channel/erasure(3,0.2)/ree": ("analyze-channel", lambda: erasure(3, 0.2), ["--ree"]),
    "channel/depolarizing(3,0.2)/nats": (
        "analyze-channel",
        lambda: depolarizing(3, 0.2),
        ["--log-base", "e"],
    ),
    "channel/random(2,3,2)/csv": ("analyze-channel", _random_23, ["--format", "csv"]),
    "channel/random(2,3,2)/csv/max-iters-0": (
        "analyze-channel",
        _random_23,
        ["--format", "csv", "--max-iters", "0"],
    ),
    "channel/erasure(3,0.2)/ree/strict": (
        "analyze-channel",
        lambda: erasure(3, 0.2),
        ["--ree", "--strict"],
    ),
    "state/2x2": ("analyze-state", lambda: _rank2(2, 2), []),
    "state/2x3": ("analyze-state", lambda: _rank2(2, 3), []),
    "reproduce/ex1": ("reproduce", None, ["ex1"]),
    "reproduce/ex2": ("reproduce", None, ["ex2"]),
    "reproduce/tightness": ("reproduce", None, ["tightness"]),
    "reproduce/ex2/grid/nats/csv": (
        "reproduce",
        None,
        ["ex2", "--d-range", "2..64", "--p-grid", "0:1:11", "--log-base", "e", "--format", "csv"],
    ),
    "reproduce/tightness/x-0.1": ("reproduce", None, ["tightness", "--d-range", "2,8", "--x", "0.1"]),
}


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _observed(name: str, tmp_path: Path, capsys) -> dict:
    verb, build, extra = CASES[name]
    argv = [verb, *extra]
    if build is not None:
        path = tmp_path / "input.json"
        (save_channel if verb == "analyze-channel" else save_state)(build(), str(path))
        argv = [verb, str(path), *FAST[verb], *extra]
    code = main(argv)
    out = capsys.readouterr().out
    if "--format" in extra:
        report = [[_cell(c) for c in row] for row in csv.reader(io.StringIO(out))]
    else:
        report = json.loads(out)
        report.pop("subject", None)
    return {"exit": code, "report": report}


def _assert_matches(got, want, where="report"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            _assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert type(got) is float and abs(got - want) <= TOL, where
    else:
        assert type(got) is type(want) and got == want, where


@pytest.mark.parametrize("name", list(CASES))
def test_cli_output_matches_golden(name, tmp_path, capsys):
    got, want = _observed(name, tmp_path, capsys), GOLDEN[name]
    assert got["exit"] == want["exit"]
    _assert_matches(got["report"], want["report"])


def test_golden_cli_file_has_no_unused_cases():
    assert set(CASES) == set(GOLDEN)
