"""Entropic quantities on validated states.

Every function takes a ``base`` argument restricted to 2 (bits, the default)
or e (nats). A single computation must stick to one base; mixed-base
arithmetic is meaningless for the bound formulas downstream.
"""
from __future__ import annotations

import math

import numpy as np

from .linalg import DensityMatrix, _check_psd, _eigvalsh, partial_trace

NAT = math.e

_DOMAIN_SLACK = 1e-12


def _check_base(base: float) -> float:
    b = float(base)
    if b not in (2.0, NAT):
        raise ValueError("base must be 2 or e")
    return b


def _log(x, base: float):
    return np.log2(x) if base == 2.0 else np.log(x)


def _eta(p: np.ndarray, base: float) -> np.ndarray:
    # -p log p of a float array with the 0 log 0 = 0 convention; every p <= 0 (and NaN) gives +0.0
    pos = p > 0.0
    return np.where(pos, -p * _log(np.where(pos, p, 1.0), base), 0.0)


def binary_entropy(x, base: float = 2.0):
    """h(x) = -x log x - (1-x) log(1-x) on [0, 1], elementwise over an array.

    A float argument gives a float; NaN is outside the domain.
    """
    base = _check_base(base)
    x = np.asarray(x, dtype=float)
    bad = ~((x >= -_DOMAIN_SLACK) & (x <= 1.0 + _DOMAIN_SLACK))
    if bad.any():
        raise ValueError(f"binary entropy argument {x[bad][0]} outside [0, 1]")
    x = np.clip(x, 0.0, 1.0)
    h = _eta(x, base) + _eta(1.0 - x, base)
    return h if h.ndim else float(h)


def g_correction(x, base: float = 2.0):
    """Correction term g(x) = (1+x) h(x / (1+x)) of the continuity bounds,
    elementwise over an array; a float argument gives a float.

    Defined as 0 for x < 0, which is how it enters formulas whose certificate
    may go negative. NaN and +inf are refused: g has no finite value there.
    """
    base = _check_base(base)
    x = np.asarray(x, dtype=float)
    bad = ~(x < math.inf)
    if bad.any():
        raise ValueError(f"correction argument {x[bad][0]} is not below +inf")
    pos = x > 0.0
    xp = np.where(pos, x, 0.0)
    out = np.where(pos, (1.0 + xp) * binary_entropy(xp / (1.0 + xp), base), 0.0)
    return out if out.ndim else float(out)


def _entropy_mat(m: np.ndarray, base: float):
    """Entropy of a PSD matrix; an array of them for a stack of matrices."""
    h = _eta(_check_psd(_eigvalsh(m)), base).sum(-1)
    return h if h.ndim else float(h)


def von_neumann_entropy(rho: DensityMatrix, base: float = 2.0) -> float:
    """H(rho) = -Tr rho log rho."""
    return _entropy_mat(rho.mat, _check_base(base))


def mutual_information(rho: DensityMatrix, base: float = 2.0) -> float:
    """I(A:B) = H(A) + H(B) - H(AB) for a bipartite state, floored at 0: it is
    nonnegative by subadditivity, and rounding can leave it at about -1e-16."""
    ha = von_neumann_entropy(partial_trace(rho, "B"), base)
    hb = von_neumann_entropy(partial_trace(rho, "A"), base)
    return max(0.0, ha + hb - von_neumann_entropy(rho, base))


def max_coherent_information(rho: DensityMatrix, base: float = 2.0) -> float:
    """max of the two coherent informations; lower-bounds the relative
    entropy of entanglement of the state. H(AB) is evaluated once; tracing
    out A first gives I(A>B) first."""
    h_ab = von_neumann_entropy(rho, base)
    return max(von_neumann_entropy(partial_trace(rho, over), base) - h_ab for over in "AB")
