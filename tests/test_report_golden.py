"""Pinned report text: entries, entry order, notes and note order.

``golden_reports.json`` holds the exact ``to_json()`` and ``to_csv()`` output
of ``assemble_report`` / ``assemble_state_report`` for the cases below,
recorded from the per-certificate implementation that preceded the formula
table. Together the cases reach every branch: each certificate absent, zero,
of the wrong sign and positive; a zero relative-entropy certificate on the
state side (recorded, not skipped); negative mutual information; and both
log bases. Two state cases also carry the trace-distance oracle's note, which
the builder never writes: ``analyze-state`` appends it right after assembly,
and these cases append it the same way, in the CLI's words. Do not regenerate
the file to make a change pass: a report that differs from it is a behaviour
change.
"""

import json
import math
from pathlib import Path

import pytest

from distcert import assemble_report, assemble_state_report

GOLDEN = json.loads((Path(__file__).with_name("golden_reports.json")).read_text())

CHANNEL_CASES = {
    "absent": dict(d=4),
    "zero": dict(d=4, ic=0.0, min_ic=0.0, rci=0.0, er_lower=0.0, seed=1),
    "wrong_sign": dict(d=3, ic=-0.3, min_ic=0.4, rci=-0.5, er_lower=-0.1),
    "positive": dict(
        d=4,
        ic=1.5,
        min_ic=-0.2,
        rci=0.3,
        er_lower=1.2,
        seed=7,
        witnesses={"ic": "w-ic", "min_ic": "w-min", "rci": "w-rci", "er_lower": "w-er"},
    ),
    "mixed": dict(d=16, ic=2.0, rci=0.0, er_lower=3.1, witnesses={"ic": "w-ic, with comma"}),
}
STATE_CASES = {
    "absent": dict(d=2),
    "zero": dict(d=2, ic=0.0, er_lower=0.0, mi=0.0),
    "wrong_sign": dict(d=3, ic=-0.3, er_lower=-0.1, mi=-1e-3),
    "positive": dict(
        d=16,
        ic=4.0,
        er_lower=4.0,
        mi=8.0,
        witnesses={"ic": "w-ic", "er_lower": "w-er", "mi": "w-mi"},
    ),
}
# the oracle estimates the two cases' reports carry after assembly
ORACLE = {"state/wrong_sign": 0.123, "state/positive": 1.0}
CASES = [("channel", name, assemble_report, kw) for name, kw in CHANNEL_CASES.items()] + [
    ("state", name, assemble_state_report, kw) for name, kw in STATE_CASES.items()
]


@pytest.mark.parametrize("label,base", [("2", 2.0), ("e", math.e)])
@pytest.mark.parametrize("kind,name,assemble,kwargs", CASES, ids=[f"{c[0]}-{c[1]}" for c in CASES])
def test_report_text_matches_golden(kind, name, assemble, kwargs, label, base):
    report = assemble(f"{kind}-{name}", base=base, **kwargs)
    if (oracle := ORACLE.get(f"{kind}/{name}")) is not None:
        report.notes.append(f"trace distance to the PPT set, search estimate: {oracle!r}")
    want = GOLDEN[f"{kind}/{name}/{label}"]
    assert report.to_json() == want["json"]
    assert report.to_csv() == want["csv"]


def test_golden_file_has_no_unused_cases():
    names = {f"{kind}/{name}/{label}" for kind, name, _, _ in CASES for label in ("2", "e")}
    assert names == set(GOLDEN)
