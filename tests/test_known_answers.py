"""Reports against true distances: inputs whose distance to each target set is
known in closed form.

Every entry a report prints is a lower bound on a distance, so on these
inputs its ``value`` and ``raw`` must sit at or below the truth. The families
are symmetric under a twirl that leaves the target set and the norm
invariant, so the closest member may be taken symmetric:

* isotropic states rho_F on d x d: distance 2(F - 1/d) to the separable set,
  relative entropy of entanglement E_R = log d + F log F + (1-F) log((1-F)/(d-1))
  (Rains, quant-ph/9809082);
* Werner states of antisymmetric weight p: distance 2(p - 1/2), E_R = 1 - h(p)
  (Vedral-Plenio, quant-ph/9707035);
* depolarizing channels, eta = 1 - lambda: entanglement-breaking distance
  2(1 - 1/d^2)(eta - 1/(d+1)), antidegradable distance
  2(1 - 1/d^2)(eta - (d+2)/(2(d+1))); erasure channels: the member E_1 puts
  the entanglement-breaking distance at most 2(1 - p), and E_{1/2} the
  antidegradable one at most |1 - 2p|.

The trace-distance oracle must meet the state distances from above, as its
witness is PPT. The closed-form rows feed a report the exact certificates of the maximally
entangled state, the identity channel or an erasure channel at d up to 2^20,
where a wrong (a, c) in any formula row shows.
"""

import json
import math

import numpy as np
import pytest

from distcert import (
    DensityMatrix,
    assemble_report,
    assemble_state_report,
    binary_entropy,
    depolarizing,
    erasure,
    maximally_entangled,
    partial_transpose,
    ree_ppt_lower,
    save_channel,
    save_state,
    trace_dist_to_ppt,
)
from distcert.cli import main
from distcert.linalg import _eigvalsh

# a report value may exceed the truth by float dust only
_VALUE_SLACK = 1e-12
# the REE search certifies the state mixed with 1e-9 of the maximally mixed one
_REE_SLACK = 1e-7


def _report(capsys, argv) -> dict:
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def _assert_below(report: dict, truths: dict) -> int:
    """Check every entry whose target has a known distance; returns how many."""
    checked = 0
    for e in report["entries"]:
        if e["target"] in truths:
            bound = truths[e["target"]] + _VALUE_SLACK
            assert e["value"] <= bound and e["raw"] <= bound, (e, truths)
            checked += 1
    return checked


def _isotropic(d: int, f: float) -> DensityMatrix:
    phi = maximally_entangled(d).to_density().mat
    return DensityMatrix(f * phi + (1 - f) * (np.eye(d * d) - phi) / (d * d - 1), (d, d))


def _werner(d: int, p: float) -> DensityMatrix:
    swap = np.eye(d * d).reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(d * d, d * d)
    anti, sym = (np.eye(d * d) - swap) / 2, (np.eye(d * d) + swap) / 2
    return DensityMatrix(p * anti / (d * (d - 1) / 2) + (1 - p) * sym / (d * (d + 1) / 2), (d, d))


def _isotropic_case(d, f):
    e_r = math.log2(d) + f * math.log2(f) + (1 - f) * math.log2((1 - f) / (d - 1))
    return _isotropic(d, f), 2 * (f - 1 / d), e_r


def _werner_case(d, p):
    return _werner(d, p), 2 * (p - 0.5), 1 - float(binary_entropy(p))


STATES = [
    *(
        pytest.param(*_isotropic_case(d, f), id=f"isotropic-d{d}-F{f}")
        for d, f in ((2, 0.9), (3, 0.8), (4, 0.9), (5, 0.95))
    ),
    *(pytest.param(*_werner_case(d, p), id=f"werner-d{d}-p{p}") for d, p in ((2, 0.95), (3, 0.95), (4, 0.9))),
]


@pytest.mark.parametrize("rho, distance, e_r", STATES)
def test_state_report_stays_below_the_true_distance(tmp_path, capsys, rho, distance, e_r):
    path = str(tmp_path / "state.json")
    save_state(rho, path)
    rep = _report(capsys, ["analyze-state", path])
    assert _assert_below(rep, {"separable": distance}) >= 1
    [ree] = {e["inputs"]["rel_entropy_entanglement_lower"] for e in rep["entries"] if e["formula"] == "Eq5"}
    assert ree <= e_r + _REE_SLACK


@pytest.mark.parametrize(
    "rho, e_r",
    [
        pytest.param(*_isotropic_case(3, 0.8)[::2], id="isotropic-d3-F0.8"),
        pytest.param(*_isotropic_case(3, 0.95)[::2], id="isotropic-d3-F0.95"),
        pytest.param(*_werner_case(3, 0.95)[::2], id="werner-d3-p0.95"),
    ],
)
def test_barrier_ree_meets_the_true_relative_entropy_from_below(rho, e_r):
    # 3x3 states run on the barrier engine, whose certificate reaches E_R (the PPT and the
    # separable E_R coincide on these families) to within its centering accuracy
    cert = ree_ppt_lower(rho)
    assert cert.converged
    assert e_r - 1e-6 <= cert.value <= e_r + _REE_SLACK


@pytest.mark.parametrize(
    "rho, distance",
    [
        pytest.param(*_isotropic_case(2, 0.9)[:2], id="isotropic-d2-F0.9"),
        pytest.param(*_isotropic_case(3, 0.8)[:2], id="isotropic-d3-F0.8"),
        pytest.param(*_werner_case(2, 0.95)[:2], id="werner-d2-p0.95"),
        pytest.param(*_werner_case(3, 0.95)[:2], id="werner-d3-p0.95"),
    ],
)
def test_oracle_meets_the_true_distance_from_above(rho, distance):
    # a twirl-invariant PPT state of these families is separable, so the known
    # distance to the separable set is also the distance to the PPT set; the
    # witness is PPT, so the estimate may not read below it by more than dust
    cert = trace_dist_to_ppt(rho)
    assert distance - _VALUE_SLACK <= cert.value <= distance + 1e-6
    sigma = cert.witness.mat
    assert _eigvalsh(sigma)[0] >= 0 and _eigvalsh(partial_transpose(sigma, rho.dims))[0] >= 0


def _depolarizing_case(d, lam):
    eta, scale = 1 - lam, 2 * (1 - 1 / d**2)
    truths = {
        "entanglement_breaking": scale * max(0.0, eta - 1 / (d + 1)),
        "antidegradable": scale * max(0.0, eta - (d + 2) / (2 * (d + 1))),
    }
    return depolarizing(d, lam), truths


def _erasure_case(d, p):
    # upper bounds on the truth, through the members E_1 and E_{1/2}; an
    # erasure channel with p <= 1/2 is degradable
    truths = {"entanglement_breaking": 2 * (1 - p), "antidegradable": abs(1 - 2 * p), "degradable": 0.0}
    return erasure(d, p), truths


CHANNELS = [
    *(pytest.param(*_depolarizing_case(d, 0.1), id=f"depolarizing-d{d}") for d in (2, 3)),
    *(pytest.param(*_erasure_case(d, p), id=f"erasure-d{d}-p{p}") for d, p in ((2, 0.1), (4, 0.2))),
]


@pytest.mark.parametrize("phi, truths", CHANNELS)
def test_channel_report_stays_below_the_true_distance(tmp_path, capsys, phi, truths):
    path = str(tmp_path / "channel.json")
    save_channel(phi, path)
    rep = _report(capsys, ["analyze-channel", path, "--ree"])
    assert _assert_below(rep, truths) >= 4  # Eq9 to Eq12


DIMS = [2**k for k in range(1, 21)]


@pytest.mark.parametrize("base", [2.0, math.e])
def test_maximally_entangled_rows_stay_below_the_true_distance(base):
    # E_R and the coherent information of a maximally entangled state are
    # log d, its mutual information 2 log d; the product state I/d^2 lies at
    # 2(1 - 1/d^2)
    for d in DIMS:
        gap = math.log(d, base)
        rep = assemble_state_report("phi+", d=d, base=base, ic=gap, er_lower=gap, mi=2 * gap)
        truths = {"separable": 2 * (1 - 1 / d), "product": 2 * (1 - 1 / d**2)}
        assert _assert_below(json.loads(rep.to_json()), truths) == 3


@pytest.mark.parametrize("base", [2.0, math.e])
def test_identity_channel_rows_stay_below_the_true_distance(base):
    # the identity channel: Ic, the reverse Ic and E_R of its Choi state are
    # log d; the depolarizing distances at lambda = 0
    for d in DIMS:
        gap = math.log(d, base)
        rep = assemble_report("id", d=d, base=base, ic=gap, rci=gap, er_lower=gap)
        truths = {"entanglement_breaking": 2 * (1 - 1 / d), "antidegradable": 1 - 1 / d}
        assert _assert_below(json.loads(rep.to_json()), truths) == 4  # Eq9 to Eq12


@pytest.mark.parametrize("p", [0.05, 0.25, 0.45, 0.55, 0.75, 0.95])
def test_erasure_rows_stay_below_the_true_distance(p):
    # Ic of the erasure channel is (1 - 2p) H(rho): its maximum for p < 1/2,
    # its minimum for p > 1/2, at the maximally mixed input; E_{1/2} is both
    # degradable and antidegradable
    for d in DIMS:
        gap = (1 - 2 * p) * math.log2(d)
        rep = assemble_report("erasure", d=d, ic=gap if p < 0.5 else None, min_ic=gap if p > 0.5 else None)
        half = abs(1 - 2 * p)
        truths = {"entanglement_breaking": 2 * (1 - p), "antidegradable": half, "degradable": half}
        assert _assert_below(json.loads(rep.to_json()), truths) == (2 if p < 0.5 else 1)
