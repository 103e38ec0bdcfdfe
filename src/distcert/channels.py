"""Quantum channels in Kraus form, their Stinespring dilations and complements,
and the JSON encoding of channels and bipartite states.

A channel maps states on the input space (dimension ``d_in``) to states on the
output space (``d_out``). Its Kraus operators are stored as one tensor K of
shape (d_env, d_out, d_in), so every channel operation is a single array
expression over K. The Stinespring isometry is V = sum_k K_k (x) |k>_E, so the
environment dimension equals the number of Kraus operators, and the
complementary channel has the Kraus tensor K with its first two axes swapped.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .entropy import _check_base, _entropy_mat
from .linalg import DensityMatrix, _as_int, _require_dims, hermitize

COMPLETENESS_TOL = 1e-9


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive trace-preserving map given by Kraus operators.

    The constructor accepts any sequence of d_out x d_in operators (a 3-D
    array included); ``kraus`` then holds them as one read-only complex
    array of shape (d_env, d_out, d_in). Entries must be finite.
    """

    kraus: np.ndarray
    d_in: int
    d_out: int

    def __post_init__(self):
        ops = [np.asarray(k, dtype=complex) for k in self.kraus]
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        for a in ops:
            if a.shape != (self.d_out, self.d_in):
                raise ValueError(
                    f"Kraus operator shape {a.shape} does not match ({self.d_out}, {self.d_in})"
                )
        kraus = np.array(ops)
        if not np.isfinite(kraus).all():  # NaN would pass the completeness check
            raise ValueError("Kraus operators have a non-finite entry")
        s = (kraus.conj().transpose(0, 2, 1) @ kraus).sum(0)
        if np.max(np.abs(s - np.eye(self.d_in))) > COMPLETENESS_TOL:
            raise ValueError("Kraus operators do not satisfy completeness within 1e-9")
        kraus.setflags(write=False)
        object.__setattr__(self, "kraus", kraus)

    @property
    def d_env(self) -> int:
        return self.kraus.shape[0]


def apply_mat(phi: KrausChannel, m: np.ndarray) -> np.ndarray:
    """Channel action on a raw matrix or a stack of them (no state validation)."""
    return (phi.kraus @ m[..., None, :, :] @ phi.kraus.conj().transpose(0, 2, 1)).sum(-3)


def adjoint_apply_mat(phi: KrausChannel, m: np.ndarray) -> np.ndarray:
    """Heisenberg-picture action sum_k K^dag M K, on a matrix or a stack."""
    return (phi.kraus.conj().transpose(0, 2, 1) @ m[..., None, :, :] @ phi.kraus).sum(-3)


def _check_input(phi: KrausChannel, rho: DensityMatrix) -> None:
    if rho.dim != phi.d_in:
        raise ValueError(f"state dimension {rho.dim} does not match d_in {phi.d_in}")


def apply_channel(phi: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Schroedinger-picture action on a validated state."""
    _check_input(phi, rho)
    return DensityMatrix(hermitize(apply_mat(phi, rho.mat)))


def stinespring(phi: KrausChannel) -> np.ndarray:
    """Dilation V = sum_k K_k (x) |k>_E as a (d_out * d_env, d_in) array, rows
    indexed (output, environment); V^dag V = sum_k K_k^dag K_k = I is the
    completeness ``KrausChannel`` checks."""
    return phi.kraus.transpose(1, 0, 2).reshape(phi.d_out * phi.d_env, phi.d_in)


def complement(phi: KrausChannel) -> KrausChannel:
    """Complementary channel, tracing out the output instead of the environment.

    Its Kraus operator at output index b is K[:, b, :], the d_env x d_in
    slice of the Stinespring isometry with the output coordinate fixed at b.
    """
    return KrausChannel(phi.kraus.transpose(1, 0, 2), phi.d_in, phi.d_env)


def choi(phi: KrausChannel) -> DensityMatrix:
    """Normalized Choi state J / d_in on H_out (x) H_in, dims (d_out, d_in).

    J = sum_ij Phi(E_ij) (x) E_ij = sum_k |K_k>><<K_k| over the row-major
    vectorized Kraus operators; its partial trace over the output is the
    input-space identity.
    """
    vecs = phi.kraus.reshape(phi.d_env, -1)
    j = (vecs[:, :, None] * vecs.conj()[:, None, :]).sum(0)
    return DensityMatrix(j / phi.d_in, (phi.d_out, phi.d_in))


# Raw-matrix cores behind the evaluators and the searches; comp = complement(phi).
def _coherent_information_mat(phi: KrausChannel, comp: KrausChannel, m: np.ndarray, base: float) -> float:
    return _entropy_mat(apply_mat(phi, m), base) - _entropy_mat(apply_mat(comp, m), base)


def _reverse_coherent_information_mat(comp: KrausChannel, m: np.ndarray, base: float) -> float:
    return _entropy_mat(m, base) - _entropy_mat(apply_mat(comp, m), base)


def channel_coherent_information(phi: KrausChannel, rho: DensityMatrix, base: float = 2.0) -> float:
    """I_c(Phi, rho) = H(Phi(rho)) - H(complement(Phi)(rho))."""
    base = _check_base(base)
    _check_input(phi, rho)
    return _coherent_information_mat(phi, complement(phi), rho.mat, base)


def reverse_coherent_information(phi: KrausChannel, rho: DensityMatrix, base: float = 2.0) -> float:
    """H(rho) - H(complement(Phi)(rho)), the reverse coherent information."""
    base = _check_base(base)
    _check_input(phi, rho)
    return _reverse_coherent_information_mat(complement(phi), rho.mat, base)


def tensor_with_identity(phi: KrausChannel, d_ref: int) -> KrausChannel:
    """Phi (x) Id acting on input (x) reference, Kraus operators K_k (x) I."""
    if d_ref < 1:
        raise ValueError("reference dimension must be at least 1")
    ops = np.kron(phi.kraus, np.eye(d_ref, dtype=complex))
    return KrausChannel(ops, phi.d_in * d_ref, phi.d_out * d_ref)


# ----- channel zoo -----


def identity_embedding(d_in: int, d_out: int) -> KrausChannel:
    """Identity channel, embedded into a possibly larger output space."""
    if d_in < 1 or d_out < d_in:
        raise ValueError("identity embedding needs 1 <= d_in <= d_out")
    return KrausChannel([np.eye(d_out, d_in, dtype=complex)], d_in, d_out)


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
    ops = np.zeros((d + 1, d + 1, d), dtype=complex)
    ops[0, :d, :] = np.sqrt(1.0 - p) * np.eye(d)
    ops[1:, d, :] = np.sqrt(p) * np.eye(d)
    return KrausChannel(ops, d, d + 1)


def depolarizing(d: int, lam: float) -> KrausChannel:
    """rho -> (1 - lam) rho + lam Tr(rho) I/d."""
    if d < 2:
        raise ValueError("depolarizing needs d >= 2")
    if not 0.0 <= lam <= 1.0:
        raise ValueError("depolarizing strength must lie in [0, 1]")
    # the unit operators E_ij, scaled, in row-major (i, j) order
    ops = np.sqrt(lam / d) * np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    if lam < 1.0:
        ops = np.concatenate([np.sqrt(1.0 - lam) * np.eye(d, dtype=complex)[None], ops])
    return KrausChannel(ops, d, d)


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
    # rows are indexed (out, env)
    return KrausChannel(v.reshape(d_out, d_env, d_in).transpose(1, 0, 2), d_in, d_out)


# ----- serialization -----


def _complex_to_pairs(m: np.ndarray) -> list:
    """Nested lists of [re, im] float pairs, one per entry of ``m``."""
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _pairs_to_complex(data, shape: tuple) -> np.ndarray:
    """Decode nested [re, im] number pairs into a complex array of ``shape``."""
    try:
        pairs = np.array(data)
    except ValueError as exc:
        raise ValueError(f"malformed complex matrix encoding: {exc}") from exc
    if pairs.dtype.kind not in "biuf" or pairs.shape[-1:] != (2,):
        raise ValueError("malformed complex matrix encoding: expected [re, im] number pairs")
    if pairs.shape[:-1] != shape:
        raise ValueError(f"matrix shape {pairs.shape[:-1]} does not match declared {shape}")
    return np.ascontiguousarray(pairs, dtype=float).view(complex)[..., 0]


def channel_to_dict(phi: KrausChannel) -> dict:
    return {"d_in": phi.d_in, "d_out": phi.d_out, "kraus": _complex_to_pairs(phi.kraus)}


def channel_from_dict(data: dict) -> KrausChannel:
    try:
        d_in = _as_int(data["d_in"], "d_in")
        d_out = _as_int(data["d_out"], "d_out")
        raw = data["kraus"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"invalid channel description: {exc}") from exc
    if not isinstance(raw, list) or not raw:
        raise ValueError("invalid channel description: empty Kraus list")
    return KrausChannel(_pairs_to_complex(raw, (len(raw), d_out, d_in)), d_in, d_out)


def save_channel(phi: KrausChannel, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(channel_to_dict(phi), fh)


def _read_json(path: str, what: str):
    """Parsed JSON content of ``path``; invalid JSON is "malformed <what> file"."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed {what} file: {exc}") from exc


def load_channel(path: str) -> KrausChannel:
    return channel_from_dict(_read_json(path, "channel"))


def state_to_dict(rho: DensityMatrix) -> dict:
    return {"dims": list(_require_dims(rho)), "matrix": _complex_to_pairs(rho.mat)}


def state_from_dict(data: dict) -> DensityMatrix:
    try:
        da, db = (_as_int(x, "dims entry") for x in data["dims"])
        raw = data["matrix"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"invalid state description: {exc}") from exc
    mat = _pairs_to_complex(raw, (da * db, da * db))
    return DensityMatrix(mat, (da, db))


def save_state(rho: DensityMatrix, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(state_to_dict(rho), fh)


def load_state(path: str) -> DensityMatrix:
    return state_from_dict(_read_json(path, "state"))
