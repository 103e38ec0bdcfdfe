"""Pinned search outputs: every Certificate field of a small search panel.

``golden_certificates.json`` holds, for each case below, the certificate's
kind, value, objective, history, iteration count, convergence flag and
witness (as [real, imag] parts), recorded with ``_observed`` at commit
2c98e80 with ``OptimizerConfig(restarts=1, max_iters=40, seed=3)``. The
cases cover the three mirror ascents on three channels in bits and nats, the
REE descent and the trace-distance oracle on a rank-2 2x2 and 2x3 state, and
one see-saw pair.

The ``ree/panel-*`` entries pin only the value, iteration count and
convergence flag of the REE descent, under the CLI's default
``OptimizerConfig()``, on the unrotated rank-2 3x3, 4x4 and 4x6 states of the
benchmark's ``state-ppt-large`` panel (drawn in that order from one generator
seeded with the panel seed 0), recorded at commit 018321b. ``ree_ppt_lower``
runs 3x3 states on its log-barrier engine, so ``ree/panel-3x3`` calls the
descent directly.

``min_ic/depolarizing(3,0.2)/nats`` was re-recorded when mirror line searches
started to end at the slope test: the seed that won by a last rounding-noise
step stops before it, and another seed of value 1.2e-15 higher wins, so its
iterations (11 -> 12), history, value and witness moved.

``oracle/2x2`` and ``oracle/2x3`` were re-recorded by hand with ``_observed``
when the trace-distance oracle became a log-barrier solve: its iterations are
Newton steps, both runs stop unconverged at the 40-step cap, and their
values fell 0.17958 -> 0.17348 and 0.34938 -> 0.34788, with new histories and
witnesses.

When each mirror step started to take a Barzilai-Borwein step length from
the seed's last two step starts, the iterations, histories and witnesses of
the 14 ascent entries that moved (all but ``min_ic/erasure(4,0.1)/*`` and
``min_ic/random(2,3,2)/*``) were re-recorded with ``_observed``; their
values, moved by at most 5.4e-14, and every other field were kept.

When a mirror-ascent seed started to retire at a step start on finding a
seed at least as good within Frobenius distance 1e-2, the 8 entries whose
output moved were re-recorded whole with ``_observed``: ``max_ic`` and
``max_rci`` on ``depolarizing(3,0.2)`` and ``random(2,3,2)``, both bases. The
I/d seed now wins on the depolarizing channel (iterations 8 -> 1 for max_ic,
6 -> 1 for max_rci); on the random channel iterations went 8 -> 7 (max_ic,
bits) and 9 -> 8 (max_rci, both bases), and the max_ic nats witness moved by
5.8e-9. Against the previous commit's output the values moved by at most
1.0e-15.

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
from distcert import optimize

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


_panel = np.random.default_rng(0)
PANEL = {
    f"ree/panel-{a}x{b}": random_density_matrix(a * b, _panel, rank=2, dims=(a, b))
    for a, b in [(3, 3), (4, 4), (4, 6)]
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


@pytest.mark.parametrize("name", list(PANEL))
def test_panel_ree_matches_golden(name):
    rho, want = PANEL[name], GOLDEN[name]
    if rho.dim in optimize._BARRIER_DIMS:
        cert = optimize._ree_descent(*optimize._regularized(rho), math.log(2.0), OptimizerConfig().max_iters)
    else:
        cert = ree_ppt_lower(rho, OptimizerConfig())
    assert (cert.iterations, cert.converged) == (want["iterations"], want["converged"])
    assert abs(cert.value - want["value"]) <= TOL


def test_golden_file_has_no_unused_cases():
    assert set(CASES) | set(PANEL) == set(GOLDEN)
