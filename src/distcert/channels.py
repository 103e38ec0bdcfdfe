"""Quantum channels in Kraus form, their complements, and the JSON encoding of
channels and bipartite states.

A channel maps states on the input space (dimension ``d_in``) to states on the
output space (``d_out``). Its Kraus operators are stored as one tensor K of
shape (d_env, d_out, d_in). The Stinespring isometry is V = sum_k K_k (x)
|k>_E, so the environment dimension equals the number of Kraus operators, and
the complementary channel has the Kraus tensor K with its first two axes
swapped. Apply (A = K) and adjoint (A = K^dag) are one contraction: every
first product A_k M as one product with A read as a (d_env * rows, cols)
matrix, then the second products added into one output in k order, the
per-operator sum's bits. A one-row product goes through numpy's
matrix-vector route, which rounds differently from a row of a larger
product, so a side of dimension 1 keeps per-operator first products.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .entropy import _check_base, _entropy_mat
from .linalg import MAX_DIM, DensityMatrix, _as_int, _require_dims

COMPLETENESS_TOL = 1e-9


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive trace-preserving map given by Kraus operators.

    The constructor accepts any sequence of d_out x d_in operators (a 3-D
    array included); ``kraus`` then holds them as one read-only complex
    array of shape (d_env, d_out, d_in). Entries must be finite. ``_kraus_dag``
    holds every K_j^dag, entry j ``kraus[j].conj().T`` in values and layout,
    read-only: made once for the completeness check, then read by every
    application.
    """

    kraus: np.ndarray
    d_in: int
    d_out: int
    _kraus_dag: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "d_in", _as_int(self.d_in, "d_in"))
        object.__setattr__(self, "d_out", _as_int(self.d_out, "d_out"))
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
        dag = kraus.conj().transpose(0, 2, 1)
        s = (dag @ kraus).sum(0)
        if np.max(np.abs(s - np.eye(self.d_in))) > COMPLETENESS_TOL:
            raise ValueError("Kraus operators do not satisfy completeness within 1e-9")
        kraus.setflags(write=False)
        dag.setflags(write=False)
        object.__setattr__(self, "kraus", kraus)
        object.__setattr__(self, "_kraus_dag", dag)

    @property
    def d_env(self) -> int:
        return self.kraus.shape[0]


def _stinespring_products(k: np.ndarray, m: np.ndarray) -> np.ndarray:
    """K_j M for every Kraus operator K_j of the tensor ``k``, shape (..., d_env, d_out, d_in):
    one product with the Stinespring isometry, per operator when d_out is 1."""
    d_env, d_out, d_in = k.shape
    if d_out == 1:
        return k @ m[..., None, :, :]
    return (k.reshape(-1, d_in) @ m).reshape(*m.shape[:-2], d_env, d_out, d_in)


def _kraus_sum(w: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum_j W_j R_j over the first products W of ``_stinespring_products``, in j order."""
    acc = w[..., 0, :, :] @ right[0]
    for j in range(1, len(right)):
        acc += w[..., j, :, :] @ right[j]
    return acc


def apply_mat(phi: KrausChannel, m: np.ndarray) -> np.ndarray:
    """Channel action on a raw matrix or a stack of them (no state validation)."""
    return _kraus_sum(_stinespring_products(phi.kraus, m), phi._kraus_dag)


def adjoint_apply_mat(phi: KrausChannel, m: np.ndarray) -> np.ndarray:
    """Heisenberg-picture action sum_k K^dag M K, on a matrix or a stack."""
    return _kraus_sum(_stinespring_products(phi._kraus_dag, m), phi.kraus)


def _check_input(phi: KrausChannel, rho: DensityMatrix) -> None:
    if rho.dim != phi.d_in:
        raise ValueError(f"state dimension {rho.dim} does not match d_in {phi.d_in}")


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
    j = np.outer(vecs[0], vecs[0].conj())
    for v in vecs[1:]:
        j += np.outer(v, v.conj())
    return DensityMatrix(j / phi.d_in, (phi.d_out, phi.d_in))


# Raw-matrix cores behind the evaluators and the searches; comp = complement(phi).
# Each returns (value, outputs), the outputs being the channel outputs it scored.
def _coherent_information_mat(phi: KrausChannel, comp: KrausChannel, m: np.ndarray, base: float):
    """H(Phi(m)) - H(comp(m)), with outputs (Phi(m), comp(m)); comp's first
    products are Phi's grouped by output index, one stack for both bar a one-row side."""
    w = _stinespring_products(phi.kraus, m)
    w_env = w.swapaxes(-3, -2) if min(phi.d_out, phi.d_env) > 1 else _stinespring_products(comp.kraus, m)
    out, env = _kraus_sum(w, phi._kraus_dag), _kraus_sum(w_env, comp._kraus_dag)
    return _entropy_mat(out, base) - _entropy_mat(env, base), (out, env)


def _reverse_coherent_information_mat(comp: KrausChannel, m: np.ndarray, base: float):
    """H(m) - H(comp(m)), with outputs (comp(m),)."""
    env = apply_mat(comp, m)
    return _entropy_mat(m, base) - _entropy_mat(env, base), (env,)


def channel_coherent_information(phi: KrausChannel, rho: DensityMatrix, base: float = 2.0) -> float:
    """I_c(Phi, rho) = H(Phi(rho)) - H(complement(Phi)(rho))."""
    base = _check_base(base)
    _check_input(phi, rho)
    return _coherent_information_mat(phi, complement(phi), rho.mat, base)[0]


def reverse_coherent_information(phi: KrausChannel, rho: DensityMatrix, base: float = 2.0) -> float:
    """H(rho) - H(complement(Phi)(rho)), the reverse coherent information."""
    base = _check_base(base)
    _check_input(phi, rho)
    return _reverse_coherent_information_mat(complement(phi), rho.mat, base)[0]


def tensor_with_identity(phi: KrausChannel, d_ref: int) -> KrausChannel:
    """Phi (x) Id acting on input (x) reference, Kraus operators K_k (x) I."""
    if (d_ref := _as_int(d_ref, "d_ref")) < 1:
        raise ValueError("reference dimension must be at least 1")
    ops = np.kron(phi.kraus, np.eye(d_ref, dtype=complex))
    return KrausChannel(ops, phi.d_in * d_ref, phi.d_out * d_ref)


# ----- channel zoo -----


def _check_kraus_size(d_env: int, d_out: int, d_in: int) -> None:
    """Refuse, before it is allocated, a Kraus tensor of more entries than the largest DensityMatrix holds."""
    if d_env * d_out * d_in > MAX_DIM**2:
        raise ValueError(f"Kraus tensor of shape ({d_env}, {d_out}, {d_in}) exceeds the cap, {MAX_DIM**2} entries")


def identity_embedding(d_in: int, d_out: int) -> KrausChannel:
    """Identity channel, embedded into a possibly larger output space."""
    d_in, d_out = _as_int(d_in, "d_in"), _as_int(d_out, "d_out")
    if d_in < 1 or d_out < d_in:
        raise ValueError("identity embedding needs 1 <= d_in <= d_out")
    _check_kraus_size(1, d_out, d_in)
    return KrausChannel([np.eye(d_out, d_in, dtype=complex)], d_in, d_out)


def erasure(d: int, p: float) -> KrausChannel:
    """Erasure channel: keeps the input with weight 1-p, else emits a flag.

    Output dimension d+1 with the flag on the last basis vector, so the
    action in block form is (1-p) rho (+) p Tr(rho). Canonical Kraus set:
    one scaled injection and d flag operators, d+1 in total.
    """
    if (d := _as_int(d, "d")) < 2:
        raise ValueError("erasure needs d >= 2")
    if not 0.0 <= p <= 1.0:
        raise ValueError("erasure probability must lie in [0, 1]")
    _check_kraus_size(d + 1, d + 1, d)
    ops = np.zeros((d + 1, d + 1, d), dtype=complex)
    ops[0, :d, :] = np.sqrt(1.0 - p) * np.eye(d)
    ops[1:, d, :] = np.sqrt(p) * np.eye(d)
    return KrausChannel(ops, d, d + 1)


def depolarizing(d: int, lam: float) -> KrausChannel:
    """rho -> (1 - lam) rho + lam Tr(rho) I/d."""
    if (d := _as_int(d, "d")) < 2:
        raise ValueError("depolarizing needs d >= 2")
    if not 0.0 <= lam <= 1.0:
        raise ValueError("depolarizing strength must lie in [0, 1]")
    _check_kraus_size(d * d + (lam < 1.0), d, d)
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
    # numpy reads a list mixing booleans and numbers as floats, so each entry's type is checked
    entries = data
    for _ in range(pairs.ndim - 1):
        entries = chain.from_iterable(entries)
    if pairs.dtype.kind not in "iuf" or pairs.shape[-1:] != (2,) or bool in set(map(type, entries)):
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
    """Parsed JSON content of ``path``; invalid JSON, or JSON nested too deep
    for the parser's recursion, is "malformed <what> file"."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
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
