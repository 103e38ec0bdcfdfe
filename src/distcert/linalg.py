"""Dense complex linear algebra kernel: states, eigendecompositions, norms.

All matrices are dense complex numpy arrays in row-major layout. Composite
indices follow the Kronecker convention (i_A, i_B) -> i_A * d_B + i_B, so
``tensor(A, B)`` and ``partial_trace`` agree with ``np.kron`` ordering.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tolerances. States are validated tightly, generic Hermitian inputs loosely.
STATE_HERMITIAN_TOL = 1e-10
STATE_TRACE_TOL = 1e-10
EIG_CLIP_TOL = 1e-10
INPUT_HERMITIAN_TOL = 1e-8
MAX_DIM = 1024
_LOG_FLOOR = 1e-300


def _as_int(value, name: str) -> int:
    """``value`` as an int; anything but a finite integral number is a ValueError."""
    try:
        if (i := int(value)) == value:
            return i
    except (OverflowError, TypeError, ValueError):
        pass
    raise ValueError(f"{name} must be an integer, got {value}")


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def hermitize(m: np.ndarray) -> np.ndarray:
    """Symmetrized part (M + M^dag)/2, of each matrix of a stack too."""
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def herm_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation from Hermiticity, over a whole stack too."""
    return float(np.max(np.abs(m - m.conj().swapaxes(-1, -2)), initial=0.0))


def clip_eigenvalues(w: np.ndarray) -> np.ndarray:
    """Zero out eigenvalues in [-EIG_CLIP_TOL, 0); anything more negative is an error.

    Negative dust of magnitude <= 1e-10 is numerical noise from eigh and is
    silently clipped. Larger negative mass means the input was not positive
    semidefinite and must not be glossed over.
    """
    w = np.asarray(w, dtype=float)
    low = float(w.min(initial=0.0))
    if low < -EIG_CLIP_TOL:
        raise ValueError(f"eigenvalue {low:.3e} below -{EIG_CLIP_TOL:.0e}; matrix is not PSD")
    return np.where(w < 0.0, 0.0, w)


def hermitian_eigen(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (w, u) after symmetrization.

    The input must be Hermitian within 1e-8 entrywise; (M + M^dag)/2 is
    decomposed so the result is exactly real-spectral. Eigenvalues w come
    back ascending, with the orthonormal eigenvectors as the columns of u.
    """
    return _checked_eigh(_as_matrix(m))


def _checked_eigh(a: np.ndarray):  # eigh(hermitize(a)) behind the 1e-8 guard; stacks too
    ah = a.conj().swapaxes(-1, -2)
    if not np.max(np.abs(a - ah), initial=0.0) <= INPUT_HERMITIAN_TOL:  # NaN fails too
        raise ValueError("matrix is not Hermitian within 1e-8")
    return np.linalg.eigh(0.5 * (a + ah))


def _check_state(a: np.ndarray, dims) -> tuple[int, int] | None:
    """Check a state's side n <= MAX_DIM, its entries finite, its split d_A * d_B == n."""
    if (n := len(a)) > MAX_DIM:
        raise ValueError(f"dimension {n} exceeds the dense-storage cap {MAX_DIM}")
    if not np.isfinite(a).all():  # NaN would pass every tolerance check
        raise ValueError("state has a non-finite entry")
    if dims is None:
        return None
    da, db = (_as_int(x, "dims entry") for x in dims)
    if da < 1 or db < 1 or da * db != n:
        raise ValueError(f"dims {dims} incompatible with dimension {n}")
    return da, db


def _require_dims(rho: DensityMatrix) -> tuple[int, int]:
    if rho.dims is None:
        raise ValueError("state needs explicit bipartite dims")
    return rho.dims


@dataclass(frozen=True)
class DensityMatrix:
    """Validated quantum state.

    ``dims`` optionally records a bipartite split (d_A, d_B) with
    d_A * d_B equal to the total dimension. Construction checks finite
    entries, Hermiticity (1e-10), unit trace (1e-10), and spectrum >= -1e-10.
    """

    mat: np.ndarray
    dims: tuple[int, int] | None = None

    def __post_init__(self):
        a = _as_matrix(self.mat)
        object.__setattr__(self, "dims", _check_state(a, self.dims))
        if herm_defect(a) > STATE_HERMITIAN_TOL:
            raise ValueError("density matrix is not Hermitian within 1e-10")
        tr = a.trace()
        if abs(tr - 1.0) > STATE_TRACE_TOL:
            raise ValueError(f"trace {tr:.12g} differs from 1 by more than 1e-10")
        a = hermitize(a)
        clip_eigenvalues(np.linalg.eigvalsh(a))
        a.setflags(write=False)
        object.__setattr__(self, "mat", a)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def with_dims(self, dims: tuple[int, int]) -> "DensityMatrix":
        """Same state, reinterpreted with an explicit bipartite split."""
        return DensityMatrix(self.mat, dims)


@dataclass(frozen=True)
class PureState:
    """Finite unit vector, optionally with a bipartite split of its index."""

    vec: np.ndarray
    dims: tuple[int, int] | None = None

    def __post_init__(self):
        v = np.asarray(self.vec, dtype=complex).reshape(-1)
        object.__setattr__(self, "dims", _check_state(v, self.dims))
        nrm = float(np.linalg.norm(v))
        if abs(nrm - 1.0) > STATE_TRACE_TOL:
            raise ValueError(f"norm {nrm:.12g} differs from 1 by more than 1e-10")
        v.setflags(write=False)
        object.__setattr__(self, "vec", v)

    @property
    def dim(self) -> int:
        return self.vec.size

    def to_density(self) -> DensityMatrix:
        return DensityMatrix(np.outer(self.vec, self.vec.conj()), self.dims)


def tensor(a, b) -> np.ndarray:
    """Kronecker product with (i_A, i_B) -> i_A * d_B + i_B indexing."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(rho: DensityMatrix, over: str) -> DensityMatrix:
    """Marginal of a bipartite state, tracing out subsystem ``over`` ("A" or "B")."""
    da, db = _require_dims(rho)
    t = rho.mat.reshape(da, db, da, db)
    if over == "B":
        red = np.trace(t, axis1=1, axis2=3)
    elif over == "A":
        red = np.trace(t, axis1=0, axis2=2)
    else:
        raise ValueError(f"over must be 'A' or 'B', got {over!r}")
    return DensityMatrix(hermitize(red))


def trace_norm(m) -> float:
    """Sum of singular values; for Hermitian input, sum of |eigenvalues|."""
    a = _as_matrix(m)
    # checked first: an inf entry makes the defect inf - inf, and SVD returns NaN for it
    if not np.isfinite(a).all():
        raise ValueError("matrix has a non-finite entry")
    if herm_defect(a) <= INPUT_HERMITIAN_TOL:
        return float(np.sum(np.abs(np.linalg.eigvalsh(hermitize(a)))))
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


def purify(rho: DensityMatrix) -> PureState:
    """Canonical purification sum_i sqrt(l_i) |e_i> (x) |i>, weights descending.

    The reference system is a copy of the input space, so the result lives on
    d (x) d with the original state as its first marginal.
    """
    w, v = np.linalg.eigh(rho.mat)
    w = clip_eigenvalues(w)
    order = np.argsort(w)[::-1]
    # entry (i, slot) of the weighted eigenvector matrix is the amplitude of
    # |i> (x) |slot>, so its row-major flattening is the purification
    vec = (v[:, order] * np.sqrt(w[order])).reshape(-1)
    return PureState(vec / np.linalg.norm(vec), dims=(rho.dim, rho.dim))


def basis_state(d: int, i: int) -> PureState:
    return PureState(np.eye(d)[i])


def chaotic_state(d: int, dims: tuple[int, int] | None = None) -> DensityMatrix:
    """Maximally mixed state I/d."""
    return DensityMatrix(np.eye(d, dtype=complex) / d, dims)


def maximally_entangled(d: int) -> PureState:
    """sum_i |ii> / sqrt(d) on d (x) d."""
    return PureState(np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d), dims=(d, d))


def hermitian_log(m: np.ndarray) -> np.ndarray:
    """log of a positive matrix (of each, for a stack); eigenvalues floored at 1e-300."""
    w, v = np.linalg.eigh(hermitize(m))
    return (v * np.log(np.maximum(w, _LOG_FLOOR))[..., None, :]) @ v.conj().swapaxes(-1, -2)


def random_density_matrix(
    d: int,
    rng: np.random.Generator,
    rank: int | None = None,
    dims: tuple[int, int] | None = None,
) -> DensityMatrix:
    """Wishart-style random state G G^dag / Tr, full rank by default."""
    r = d if rank is None else rank
    g = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace().real, dims)


def random_pure_state(
    d: int, rng: np.random.Generator, dims: tuple[int, int] | None = None
) -> PureState:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return PureState(v / np.linalg.norm(v), dims)
