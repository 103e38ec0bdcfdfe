"""Quantum channels in Kraus form, their Stinespring dilations and complements,
and the JSON encoding of channels and bipartite states.

A channel maps states on the input space (dimension ``d_in``) to states on the
output space (``d_out``). The Stinespring isometry is built as
V = sum_k K_k (x) |k>_E, so the environment dimension equals the number of
Kraus operators, and the complementary channel is read off as the d_E x d_in
slices of V at each fixed output index.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .entropy import _check_base, _entropy_mat
from .linalg import DensityMatrix, hermitize, tensor

COMPLETENESS_TOL = 1e-9
ISOMETRY_TOL = 1e-9
CHOI_TOL = 1e-9


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive trace-preserving map given by Kraus operators."""

    kraus: tuple[np.ndarray, ...]
    d_in: int
    d_out: int

    def __post_init__(self):
        if not self.kraus:
            raise ValueError("a channel needs at least one Kraus operator")
        ops = []
        for k in self.kraus:
            a = np.asarray(k, dtype=complex)
            if a.shape != (self.d_out, self.d_in):
                raise ValueError(
                    f"Kraus operator shape {a.shape} does not match "
                    f"({self.d_out}, {self.d_in})"
                )
            a.setflags(write=False)
            ops.append(a)
        s = sum(k.conj().T @ k for k in ops)
        if np.max(np.abs(s - np.eye(self.d_in))) > COMPLETENESS_TOL:
            raise ValueError("Kraus operators do not satisfy completeness within 1e-9")
        object.__setattr__(self, "kraus", tuple(ops))

    @property
    def d_env(self) -> int:
        return len(self.kraus)


@dataclass(frozen=True)
class StinespringIsometry:
    """Isometry V: H_in -> H_out (x) H_env with V^dag V = I."""

    v: np.ndarray
    d_in: int
    d_out: int
    d_env: int

    def __post_init__(self):
        a = np.asarray(self.v, dtype=complex)
        if a.shape != (self.d_out * self.d_env, self.d_in):
            raise ValueError(f"isometry shape {a.shape} inconsistent with dims")
        if np.max(np.abs(a.conj().T @ a - np.eye(self.d_in))) > ISOMETRY_TOL:
            raise ValueError("V^dag V differs from the identity by more than 1e-9")
        a.setflags(write=False)
        object.__setattr__(self, "v", a)


@dataclass(frozen=True)
class ChoiMatrix:
    """Choi operator sum_ij Phi(E_ij) (x) E_ij on H_out (x) H_in.

    Normalized so the partial trace over the output factor is the input-space
    identity (trace d_in overall).
    """

    mat: np.ndarray
    d_in: int
    d_out: int

    def __post_init__(self):
        a = np.asarray(self.mat, dtype=complex)
        n = self.d_out * self.d_in
        if a.shape != (n, n):
            raise ValueError(f"Choi matrix shape {a.shape} inconsistent with dims")
        if np.max(np.abs(a - a.conj().T)) > CHOI_TOL:
            raise ValueError("Choi matrix is not Hermitian")
        if float(np.linalg.eigvalsh(hermitize(a)).min()) < -CHOI_TOL:
            raise ValueError("Choi matrix is not PSD")
        red = a.reshape(self.d_out, self.d_in, self.d_out, self.d_in)
        tr_out = np.trace(red, axis1=0, axis2=2)
        if np.max(np.abs(tr_out - np.eye(self.d_in))) > CHOI_TOL:
            raise ValueError("partial trace over the output is not the identity")
        a.setflags(write=False)
        object.__setattr__(self, "mat", a)


def apply_mat(phi: KrausChannel, m: np.ndarray) -> np.ndarray:
    """Channel action on a raw matrix (no state validation)."""
    return sum(k @ m @ k.conj().T for k in phi.kraus)


def adjoint_apply_mat(phi: KrausChannel, m: np.ndarray) -> np.ndarray:
    """Heisenberg-picture action sum_k K^dag M K."""
    return sum(k.conj().T @ m @ k for k in phi.kraus)


def apply_channel(phi: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Schroedinger-picture action on a validated state."""
    if rho.dim != phi.d_in:
        raise ValueError(f"state dimension {rho.dim} does not match d_in {phi.d_in}")
    return DensityMatrix(hermitize(apply_mat(phi, rho.mat)))


def stinespring(phi: KrausChannel) -> StinespringIsometry:
    """Dilation V = sum_k K_k (x) |k>_E."""
    d_e = phi.d_env
    v = np.zeros((phi.d_out * d_e, phi.d_in), dtype=complex)
    for k, op in enumerate(phi.kraus):
        e = np.zeros((d_e, 1), dtype=complex)
        e[k, 0] = 1.0
        v += np.kron(op, e)
    return StinespringIsometry(v, phi.d_in, phi.d_out, d_e)


def complement(phi: KrausChannel) -> KrausChannel:
    """Complementary channel, tracing out the output instead of the environment.

    Its Kraus operator at output index b is the d_env x d_in slice of the
    Stinespring isometry with the output coordinate fixed at b.
    """
    v = stinespring(phi)
    slices = [
        v.v[b * v.d_env : (b + 1) * v.d_env, :] for b in range(phi.d_out)
    ]
    return KrausChannel(tuple(slices), phi.d_in, v.d_env)


def choi(phi: KrausChannel) -> ChoiMatrix:
    """Choi operator assembled from row-major vectorized Kraus operators."""
    n = phi.d_out * phi.d_in
    j = np.zeros((n, n), dtype=complex)
    for k in phi.kraus:
        vec = k.reshape(-1)
        j += np.outer(vec, vec.conj())
    return ChoiMatrix(j, phi.d_in, phi.d_out)


def channel_coherent_information(phi: KrausChannel, rho: DensityMatrix, base: float = 2.0) -> float:
    """I_c(Phi, rho) = H(Phi(rho)) - H(complement(Phi)(rho))."""
    base = _check_base(base)
    if rho.dim != phi.d_in:
        raise ValueError(f"state dimension {rho.dim} does not match d_in {phi.d_in}")
    comp = complement(phi)
    return _entropy_mat(apply_mat(phi, rho.mat), base) - _entropy_mat(
        apply_mat(comp, rho.mat), base
    )


def reverse_coherent_information(phi: KrausChannel, rho: DensityMatrix, base: float = 2.0) -> float:
    """H(rho) - H(complement(Phi)(rho)), the reverse coherent information."""
    base = _check_base(base)
    if rho.dim != phi.d_in:
        raise ValueError(f"state dimension {rho.dim} does not match d_in {phi.d_in}")
    comp = complement(phi)
    return _entropy_mat(rho.mat, base) - _entropy_mat(apply_mat(comp, rho.mat), base)


def tensor_with_identity(phi: KrausChannel, d_ref: int) -> KrausChannel:
    """Phi (x) Id acting on input (x) reference, Kraus operators K_k (x) I."""
    if d_ref < 1:
        raise ValueError("reference dimension must be at least 1")
    eye = np.eye(d_ref, dtype=complex)
    ops = tuple(tensor(k, eye) for k in phi.kraus)
    return KrausChannel(ops, phi.d_in * d_ref, phi.d_out * d_ref)


# ----- channel zoo -----


def identity_embedding(d_in: int, d_out: int) -> KrausChannel:
    """Identity channel, embedded into a possibly larger output space."""
    if d_in < 1 or d_out < d_in:
        raise ValueError("identity embedding needs 1 <= d_in <= d_out")
    v = np.zeros((d_out, d_in), dtype=complex)
    v[:d_in, :d_in] = np.eye(d_in)
    return KrausChannel((v,), d_in, d_out)


def erasure(d: int, p: float) -> KrausChannel:
    """Erasure channel: keeps the input with weight 1-p, else emits a flag.

    Output dimension d+1 with the flag on the last basis vector, so the
    action in block form is (1-p) rho (+) p Tr(rho). Canonical Kraus set:
    one scaled injection and d flag operators, d+1 in total.
    """
    if d < 2:
        raise ValueError("erasure needs d >= 2")
    if not 0.0 <= p <= 1.0:
        raise ValueError("erasure probability must lie in [0, 1]")
    keep = np.zeros((d + 1, d), dtype=complex)
    keep[:d, :d] = np.eye(d)
    ops = [np.sqrt(1.0 - p) * keep]
    for i in range(d):
        e = np.zeros((d + 1, d), dtype=complex)
        e[d, i] = np.sqrt(p)
        ops.append(e)
    return KrausChannel(tuple(ops), d, d + 1)


def depolarizing(d: int, lam: float) -> KrausChannel:
    """rho -> (1 - lam) rho + lam Tr(rho) I/d."""
    if d < 2:
        raise ValueError("depolarizing needs d >= 2")
    if not 0.0 <= lam <= 1.0:
        raise ValueError("depolarizing strength must lie in [0, 1]")
    ops = []
    if lam < 1.0:
        ops.append(np.sqrt(1.0 - lam) * np.eye(d, dtype=complex))
    w = np.sqrt(lam / d)
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = w
            ops.append(e)
    return KrausChannel(tuple(ops), d, d)


def completely_depolarizing(d: int) -> KrausChannel:
    """rho -> Tr(rho) I/d."""
    return depolarizing(d, 1.0)


def random_channel(
    d_in: int, d_out: int, d_env: int, rng: np.random.Generator
) -> KrausChannel:
    """Haar-style random channel from a random isometry into out (x) env."""
    if d_out * d_env < d_in:
        raise ValueError("d_out * d_env must be at least d_in for an isometry")
    g = rng.normal(size=(d_out * d_env, d_in)) + 1j * rng.normal(size=(d_out * d_env, d_in))
    q, _ = np.linalg.qr(g)
    v = q[:, :d_in]
    # rows are indexed (out, env); the Kraus operator at env index e is the
    # stride-d_env row slice starting at e
    ops = tuple(v[e::d_env, :].copy() for e in range(d_env))
    return KrausChannel(ops, d_in, d_out)


# ----- serialization -----


def _complex_to_pairs(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _pairs_to_complex(rows, shape=None) -> np.ndarray:
    try:
        m = np.array([[complex(a, b) for a, b in row] for row in rows], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed complex matrix encoding: {exc}") from exc
    if shape is not None and m.shape != shape:
        raise ValueError(f"matrix shape {m.shape} does not match declared {shape}")
    return m


def channel_to_dict(phi: KrausChannel) -> dict:
    return {
        "d_in": phi.d_in,
        "d_out": phi.d_out,
        "kraus": [_complex_to_pairs(k) for k in phi.kraus],
    }


def channel_from_dict(data: dict) -> KrausChannel:
    try:
        d_in = int(data["d_in"])
        d_out = int(data["d_out"])
        raw = data["kraus"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"invalid channel description: {exc}") from exc
    if not isinstance(raw, list) or not raw:
        raise ValueError("invalid channel description: empty Kraus list")
    ops = tuple(_pairs_to_complex(k, (d_out, d_in)) for k in raw)
    return KrausChannel(ops, d_in, d_out)


def save_channel(phi: KrausChannel, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(channel_to_dict(phi), fh)


def load_channel(path: str) -> KrausChannel:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed channel file: {exc}") from exc
    return channel_from_dict(data)


def state_to_dict(rho: DensityMatrix) -> dict:
    if rho.dims is None:
        raise ValueError("state needs explicit bipartite dims")
    return {"dims": list(rho.dims), "matrix": _complex_to_pairs(rho.mat)}


def state_from_dict(data: dict) -> DensityMatrix:
    try:
        da, db = (int(x) for x in data["dims"])
        raw = data["matrix"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"invalid state description: {exc}") from exc
    mat = _pairs_to_complex(raw, (da * db, da * db))
    return DensityMatrix(mat, (da, db))


def save_state(rho: DensityMatrix, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(state_to_dict(rho), fh)


def load_state(path: str) -> DensityMatrix:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed state file: {exc}") from exc
    return state_from_dict(data)
