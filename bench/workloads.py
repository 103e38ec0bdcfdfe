"""Seeded inputs and the fixed CLI invocations of each benchmark workload.

Every workload is a fixed list of CLI invocations run one after another
(closed loop, one client). The problems themselves come from a fixed panel;
``--seed`` rotates each problem by random unitaries that leave every reported
quantity unchanged:

* channels get a random output unitary V and a random unitary mixing W of
  their Kraus operators, K'_j = sum_k W_jk V K_k. The channel's action
  changes only by V on the output and its complement only by W on the
  environment, so the coherent-information landscape over inputs is the
  same. The input basis is kept, because the mirror-ascent seeds are basis
  pointers and an input rotation would change the search path.
* states get a random local unitary U_A (x) U_B, which preserves mutual
  information, coherent information, the PPT set and the relative entropy
  to it.

So a seed changes every number the program reads but not the work a
correct search does, and run times stay comparable across seeds (random
states drawn per seed vary threefold in search time). Reports agree with the
panel's reference values up to float noise for every seed.

Only channel and state JSON files (written through the public savers) and
argv reach the program.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from distcert.channels import (
    KrausChannel,
    depolarizing,
    erasure,
    random_channel,
    save_channel,
)
from distcert.linalg import DensityMatrix, random_density_matrix

try:
    from distcert.cli import save_state
except ImportError:  # state I/O may move next to the channel I/O
    from distcert.channels import save_state

# The panel of problems is drawn once from this seed; --seed only rotates it.
PANEL_SEED = 0
STATE_RANK = 2

WORKLOADS = ("channel-mirror", "state-ppt-large", "state-ppt-small", "closed-form-tables")

# Search limits for the tiny variants used by the benchmark's own tests.
_TINY_SEARCH = ["--restarts", "0", "--max-iters", "20"]


@dataclass
class Invocation:
    """One CLI call: its argv, the problem behind its input file, and the
    input's properties (recorded next to the results)."""

    name: str
    argv: list[str]
    kind: str  # "channel", "state" or "table"
    subject: object = None  # KrausChannel, DensityMatrix or None for tables
    props: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)  # closed-form references


def _rng(seed: int) -> np.random.Generator:
    # numpy seeds must be nonnegative; any integer --seed is accepted
    return np.random.default_rng(seed % 2**64)


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary (QR of a complex Gaussian with phase fix)."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def rotate_channel(phi: KrausChannel, rng: np.random.Generator) -> KrausChannel:
    v = random_unitary(phi.d_out, rng)
    w = random_unitary(len(phi.kraus), rng)
    ops = np.einsum("jk,ab,kbc->jac", w, v, np.array(phi.kraus))
    return KrausChannel(tuple(ops), phi.d_in, phi.d_out)


def rotate_state(rho: DensityMatrix, rng: np.random.Generator) -> DensityMatrix:
    da, db = rho.dims
    u = np.kron(random_unitary(da, rng), random_unitary(db, rng))
    m = u @ rho.mat @ u.conj().T
    return DensityMatrix(0.5 * (m + m.conj().T), rho.dims)


def _order(a: int, b: int) -> str:
    return "d_in<d_out" if a < b else ("d_in>d_out" if a > b else "d_in=d_out")


def _channel_panel(tiny: bool) -> list[tuple[str, KrausChannel, dict]]:
    panel = np.random.default_rng(PANEL_SEED)
    if tiny:
        return [
            ("tiny-erasure-d2", erasure(2, 0.25), {"erasure_p": 0.25}),
            ("tiny-random-2to2-k2", random_channel(2, 2, 2, panel), {}),
        ]
    return [
        ("erasure-d8", erasure(8, 0.25), {"erasure_p": 0.25}),
        ("erasure-d16", erasure(16, 0.1), {"erasure_p": 0.1}),
        ("depolarizing-d4", depolarizing(4, 0.2), {}),
        ("random-4to4-k3", random_channel(4, 4, 3, panel), {}),
    ]


def _state_panel(sizes, prefix) -> list[tuple[str, DensityMatrix]]:
    panel = np.random.default_rng(PANEL_SEED)
    out = []
    for da, db in sizes:
        rho = random_density_matrix(da * db, panel, rank=STATE_RANK, dims=(da, db))
        out.append((f"{prefix}rank2-{da}x{db}", rho))
    return out


def _channel_invocations(seed, workdir, tiny):
    rng = _rng(seed)
    extra = _TINY_SEARCH if tiny else []
    invs = []
    for name, phi, expect in _channel_panel(tiny):
        rotated = rotate_channel(phi, rng)
        path = os.path.join(workdir, f"{name}.json")
        save_channel(rotated, path)
        props = {
            "d_in": phi.d_in,
            "d_out": phi.d_out,
            "kraus": len(phi.kraus),
            "dims": _order(phi.d_in, phi.d_out),
        }
        invs.append(
            Invocation(name, ["analyze-channel", path, *extra], "channel", rotated, props, expect)
        )
    return invs


def _state_invocations(seed, workdir, sizes, extra):
    rng = _rng(seed)
    invs = []
    for name, rho in _state_panel(sizes, "tiny-" if extra else ""):
        rotated = rotate_state(rho, rng)
        path = os.path.join(workdir, f"{name}.json")
        save_state(rotated, path)
        da, db = rho.dims
        props = {"dims": [da, db], "n": da * db, "rank": STATE_RANK}
        invs.append(Invocation(name, ["analyze-state", path, *extra], "state", rotated, props))
    return invs


def _table_invocations(seed, tiny):
    rng = _rng(seed)
    # the tightness offset is the only seeded table argument
    x = float(0.05 + 0.4 * rng.random())
    if tiny:
        ex2, wide, grid = "2..8", "2..16", "0:1:11"
    else:
        ex2, wide, grid = "2..4096", "2..65536", "0:1:1001"
    specs = [
        ("ex2", ["reproduce", "ex2", "--d-range", ex2, "--p-grid", grid], {"d_range": ex2, "p_grid": grid}),
        ("tightness", ["reproduce", "tightness", "--d-range", wide, "--x", repr(x)], {"d_range": wide, "x": x}),
        ("ex1", ["reproduce", "ex1", "--d-range", wide], {"d_range": wide}),
    ]
    prefix = "tiny-" if tiny else ""
    return [Invocation(prefix + name, argv, "table", None, props) for name, argv, props in specs]


def make_invocations(workload: str, seed: int, workdir: str, tiny: bool = False) -> list[Invocation]:
    """Write the workload's input files into ``workdir`` and return its calls."""
    if workload == "channel-mirror":
        return _channel_invocations(seed, workdir, tiny)
    if workload == "state-ppt-large":
        sizes = [(3, 3)] if tiny else [(3, 3), (4, 4), (4, 6)]
        return _state_invocations(seed, workdir, sizes, ["--max-iters", "10"] if tiny else [])
    if workload == "state-ppt-small":
        sizes = [(2, 2)] if tiny else [(2, 2), (2, 3)]
        return _state_invocations(seed, workdir, sizes, ["--max-iters", "20"] if tiny else [])
    if workload == "closed-form-tables":
        return _table_invocations(seed, tiny)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def erasure_ic(d: int, p: float) -> float:
    """Maximal coherent information of the d-dimensional erasure channel, bits."""
    return max(0.0, (1.0 - 2.0 * p) * math.log2(d))
