"""Dense complex linear algebra kernel: states, eigendecompositions, norms.

All matrices are dense complex numpy arrays in row-major layout. Composite
indices follow the Kronecker convention (i_A, i_B) -> i_A * d_B + i_B, so
``tensor(A, B)`` and ``partial_trace`` agree with ``np.kron`` ordering.

Every eigendecomposition in the package goes through ``_eigh`` or
``_eigvalsh``. They call the LAPACK gufuncs behind ``np.linalg.eigh`` and
``eigvalsh`` with numpy's signature, so they return numpy's bits without its
Python wrapper, which takes about half of a 4x4 or 6x6 call; a state analysis
makes tens of thousands of them in the PPT projection. The convergence check
stays: LAPACK failure leaves NaN in the output, and a NaN eigenvalue raises
``LinAlgError``. A NaN in the input need not give one, so finiteness of the
input is checked by the public callers, not on this path.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError
from numpy.linalg._umath_linalg import eigh_lo as _eigh_lo, eigvalsh_lo as _eigvalsh_lo

# Tolerances. States are validated tightly, generic Hermitian inputs loosely.
STATE_HERMITIAN_TOL = 1e-10
STATE_TRACE_TOL = 1e-10
EIG_CLIP_TOL = 1e-10
INPUT_HERMITIAN_TOL = 1e-8
MAX_DIM = 1024
_LOG_FLOOR = 1e-300
_HALF_MAX = float(np.finfo(float).max) / 2  # two parts this large still add to a finite float


def _as_int(value, name: str) -> int:
    """``value`` as an int; anything but a finite integral number (a bool
    included) is a ValueError."""
    try:
        if not isinstance(value, (bool, np.bool_)) and (i := int(value)) == value:
            return i
    except (OverflowError, TypeError, ValueError):
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def hermitize(m: np.ndarray) -> np.ndarray:
    """Symmetrized part (M + M^dag)/2, of each matrix of a stack too."""
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def _check_symmetrizable(a: np.ndarray) -> None:
    """Check that hermitize(a) neither meets nor makes an inf: every real and
    imaginary part finite and at most half the largest float. An inf made in
    the sum would reach LAPACK and come back as a LinAlgError."""
    if not abs(np.ascontiguousarray(a).view(float)).max(initial=0.0) <= _HALF_MAX:  # NaN fails too
        if not np.isfinite(a).all():
            raise ValueError("matrix has a non-finite entry")
        raise ValueError(f"matrix entries are too large to symmetrize: a part exceeds {_HALF_MAX:.4g}")


def herm_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation from Hermiticity, over a whole stack too."""
    return float(np.max(np.abs(m - m.conj().swapaxes(-1, -2)), initial=0.0))


def _check_psd(w: np.ndarray) -> np.ndarray:
    """The eigenvalues ``w``, unchanged; one below -EIG_CLIP_TOL means the matrix is not
    PSD, a ValueError. Smaller negative dust is eigh's noise, which entropies count as 0."""
    low = float(w.min(initial=0.0))
    if low < -EIG_CLIP_TOL:
        raise ValueError(f"eigenvalue {low:.3e} below -{EIG_CLIP_TOL:.0e}; matrix is not PSD")
    return w


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh(a)`` of a float64 or complex128 matrix or stack, bit
    for bit (other dtypes come back in double precision). A NaN eigenvalue is
    a LinAlgError: a LAPACK failure, as in numpy (it also sets numpy's invalid
    flag, a RuntimeWarning in the default error state). Only a NaN eigenvalue
    is caught, not NaN input: ``_eigvalsh([[nan, 0], [0, 1]])`` returns
    [0, -0], as numpy's ``eigvalsh`` does. The public callers check their
    input for finite entries first."""
    w, u = _eigh_lo(a, signature="D->dD" if a.dtype.kind == "c" else "d->dd")
    x = w.ravel()
    if x.size and (s := x[x.argmax()]) != s:  # argmax stops at the first NaN, and cannot overflow
        raise LinAlgError("Eigenvalues did not converge")
    return w, u


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvalsh(a)`` as ``_eigh`` is ``np.linalg.eigh``."""
    w = _eigvalsh_lo(a, signature="D->d" if a.dtype.kind == "c" else "d->d")
    x = w.ravel()
    if x.size and (s := x[x.argmax()]) != s:
        raise LinAlgError("Eigenvalues did not converge")
    return w


def hermitian_eigen(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (w, u) after symmetrization.

    The input must be Hermitian within 1e-8 entrywise, with every real and
    imaginary part at most half the largest float; (M + M^dag)/2 is
    decomposed so the result is exactly real-spectral. Eigenvalues w come
    back ascending, with the orthonormal eigenvectors as the columns of u.
    """
    a = _as_matrix(m)
    _check_symmetrizable(a)
    if herm_defect(a) > INPUT_HERMITIAN_TOL:
        raise ValueError("matrix is not Hermitian within 1e-8")
    return _eigh(hermitize(a))


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
        _check_psd(_eigvalsh(a))
        a.setflags(write=False)
        object.__setattr__(self, "mat", a)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


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
    # checked first: an inf entry makes the defect inf - inf, SVD returns NaN for it,
    # and hermitize overflows on a part above half the largest float
    _check_symmetrizable(a)
    if herm_defect(a) <= INPUT_HERMITIAN_TOL:
        return float(np.sum(np.abs(_eigvalsh(hermitize(a)))))
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


def maximally_entangled(d: int) -> PureState:
    """sum_i |ii> / sqrt(d) on d (x) d."""
    return PureState(np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d), dims=(d, d))


def _log_eigen(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(``hermitian_log(m)``, w, v): the log and the eigenpairs it is built from,
    w floored at 1e-300 as in the log."""
    w, v = _eigh(hermitize(m))
    w = np.maximum(w, _LOG_FLOOR)
    return (v * np.log(w)[..., None, :]) @ v.conj().swapaxes(-1, -2), w, v


def hermitian_log(m: np.ndarray) -> np.ndarray:
    """log of a positive matrix (of each, for a stack); eigenvalues floored at 1e-300."""
    return _log_eigen(m)[0]


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
