"""Entropic quantities on validated states.

Every function takes a ``base`` argument restricted to 2 (bits, the default)
or e (nats). A single computation must stick to one base; mixed-base
arithmetic is meaningless for the bound formulas downstream.
"""
from __future__ import annotations

import math

import numpy as np

from .linalg import DensityMatrix, clip_eigenvalues, partial_trace

NAT = math.e

_DOMAIN_SLACK = 1e-12
_SUPPORT_EIG_TOL = 1e-10
_SUPPORT_OVERLAP_TOL = 1e-9


def _check_base(base: float) -> float:
    b = float(base)
    if b not in (2.0, NAT):
        raise ValueError("base must be 2 or e")
    return b


def _log(x, base: float):
    return np.log2(x) if base == 2.0 else np.log(x)


def _eta(p: np.ndarray, base: float) -> np.ndarray:
    # -p log p with the 0 log 0 = 0 convention
    p = np.asarray(p, dtype=float)
    out = np.zeros_like(p)
    pos = p > 0.0
    out[pos] = -p[pos] * _log(p[pos], base)
    return out


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
    out = np.zeros_like(x)
    pos = x > 0.0
    xp = x[pos]
    out[pos] = (1.0 + xp) * binary_entropy(xp / (1.0 + xp), base)
    return out if out.ndim else float(out)


def spectrum_entropy(w: np.ndarray, base: float = 2.0) -> float:
    """Entropy of a nonnegative weight vector (no normalization applied)."""
    base = _check_base(base)
    return float(_eta(np.asarray(w, dtype=float), base).sum())


def _entropy_mat(m: np.ndarray, base: float):
    """Entropy of a PSD matrix; an array of them for a stack of matrices."""
    h = _eta(clip_eigenvalues(np.linalg.eigvalsh(m)), base).sum(-1)
    return h if h.ndim else float(h)


def von_neumann_entropy(rho: DensityMatrix, base: float = 2.0) -> float:
    """H(rho) = -Tr rho log rho."""
    return _entropy_mat(rho.mat, _check_base(base))


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix, base: float = 2.0) -> float:
    """H(rho||sigma) = Tr rho (log rho - log sigma); +inf outside supp(sigma).

    The support test treats sigma-eigenvalues <= 1e-10 as kernel; a rho
    eigenvector (eigenvalue > 1e-10) with squared kernel overlap >= 1e-9
    makes the divergence infinite.
    """
    base = _check_base(base)
    if rho.dim != sigma.dim:
        raise ValueError("relative entropy needs states of equal dimension")
    wr, vr = np.linalg.eigh(rho.mat)
    wr = clip_eigenvalues(wr)
    ws, vs = np.linalg.eigh(sigma.mat)
    ws = clip_eigenvalues(ws)
    overlap = np.abs(vs.conj().T @ vr) ** 2  # overlap[j, i] = |<s_j|r_i>|^2
    kernel = ws <= _SUPPORT_EIG_TOL
    carried = wr > _SUPPORT_EIG_TOL
    if np.any(kernel) and np.any(carried):
        mass = overlap[np.ix_(kernel, carried)].sum(axis=0)
        if np.any(mass >= _SUPPORT_OVERLAP_TOL):
            return math.inf
    first = -spectrum_entropy(wr, base)
    support = ~kernel
    cross = (wr[None, :] * overlap[support, :]).sum(axis=1)
    second = float(np.dot(cross, _log(ws[support], base)))
    return float(first - second)


def mutual_information(rho: DensityMatrix, base: float = 2.0) -> float:
    """I(A:B) = H(A) + H(B) - H(AB) for a bipartite state."""
    base = _check_base(base)
    ha = von_neumann_entropy(partial_trace(rho, "B"), base)
    hb = von_neumann_entropy(partial_trace(rho, "A"), base)
    return ha + hb - von_neumann_entropy(rho, base)


def coherent_information(rho: DensityMatrix, direction: str = "a->b", base: float = 2.0) -> float:
    """I(A>B) = H(rho_B) - H(rho_AB), or I(B>A) with direction "b->a"."""
    base = _check_base(base)
    if direction == "a->b":
        kept = von_neumann_entropy(partial_trace(rho, "A"), base)
    elif direction == "b->a":
        kept = von_neumann_entropy(partial_trace(rho, "B"), base)
    else:
        raise ValueError(f"direction must be 'a->b' or 'b->a', got {direction!r}")
    return kept - von_neumann_entropy(rho, base)


def max_coherent_information(rho: DensityMatrix, base: float = 2.0) -> float:
    """max of the two coherent informations; lower-bounds the relative
    entropy of entanglement of the state."""
    return max(
        coherent_information(rho, "a->b", base),
        coherent_information(rho, "b->a", base),
    )
