"""Pinned search outputs: every Certificate field of a small search panel.

``golden_certificates.json`` holds, for each case below, the certificate's
kind, value, objective, history, iteration count, convergence flag and
witness (as [real, imag] parts), recorded with ``_observed`` at commit
2c98e80 with ``OptimizerConfig(restarts=1, max_iters=40, seed=3)``. The
cases cover the three mirror ascents on three channels in bits and nats, the
REE descent and the trace-distance oracle on a rank-2 2x2 and 2x3 state, and
one see-saw pair.

Counts and flags must match exactly; floats must agree within 1e-9, because
exact bits differ across LAPACK builds. Do not regenerate the file to make a
change pass: a search whose output moves is a behaviour change.
"""

import json
import math
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from distcert import (
    OptimizerConfig,
    depolarizing,
    erasure,
    maximize_coherent_information,
    maximize_reverse_coherent_information,
    minimize_coherent_information,
    random_channel,
    random_density_matrix,
    ree_ppt_lower,
    seesaw_diamond_lower,
    trace_dist_to_ppt,
)

GOLDEN = json.loads(Path(__file__).with_name("golden_certificates.json").read_text())
CFG = OptimizerConfig(restarts=1, max_iters=40, seed=3)
TOL = 1e-9

CHANNELS = {
    "erasure(4,0.1)": erasure(4, 0.1),
    "depolarizing(3,0.2)": depolarizing(3, 0.2),
    "random(2,3,2)": random_channel(2, 3, 2, np.random.default_rng(0)),
}
_rng = np.random.default_rng(1)
STATES = {f"{a}x{b}": random_density_matrix(a * b, _rng, rank=2, dims=(a, b)) for a, b in [(2, 2), (2, 3)]}
ASCENTS = {
    "max_ic": maximize_coherent_information,
    "min_ic": minimize_coherent_information,
    "max_rci": maximize_reverse_coherent_information,
}
BASES = {"bits": 2.0, "nats": math.e}

CASES = {
    **{
        f"{search}/{channel}/{base}": partial(fn, phi, CFG, b)
        for search, fn in ASCENTS.items()
        for channel, phi in CHANNELS.items()
        for base, b in BASES.items()
    },
    **{
        f"ree/{state}/{base}": partial(ree_ppt_lower, rho, CFG, b)
        for state, rho in STATES.items()
        for base, b in BASES.items()
    },
    **{f"oracle/{state}": partial(trace_dist_to_ppt, rho, CFG) for state, rho in STATES.items()},
    "seesaw/erasure(3,0.1)-erasure(3,0.3)": partial(
        seesaw_diamond_lower, erasure(3, 0.1), erasure(3, 0.3), CFG
    ),
}


def _observed(name: str) -> dict:
    cert = CASES[name]()
    w = cert.witness.mat if hasattr(cert.witness, "mat") else cert.witness.vec
    return {
        "kind": cert.kind,
        "iterations": cert.iterations,
        "converged": cert.converged,
        "value": cert.value,
        "objective": cert.objective,
        "history": list(cert.history),
        "witness": [w.real.tolist(), w.imag.tolist()],
    }


@pytest.mark.parametrize("name", list(CASES))
def test_search_output_matches_golden(name):
    got, want = _observed(name), GOLDEN[name]
    for key in ("kind", "iterations", "converged"):
        assert got[key] == want[key], key
    assert len(got["history"]) == len(want["history"])
    assert np.allclose(got["history"], want["history"], rtol=0.0, atol=TOL)
    assert abs(got["value"] - want["value"]) <= TOL
    if want["objective"] is None:
        assert got["objective"] is None
    else:
        assert abs(got["objective"] - want["objective"]) <= TOL
    assert np.allclose(got["witness"], want["witness"], rtol=0.0, atol=TOL)


def test_golden_file_has_no_unused_cases():
    assert set(CASES) == set(GOLDEN)
