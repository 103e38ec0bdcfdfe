"""Tests for the dense linear-algebra layer.

Every numerical claim here is checked against an independent oracle
written in plain index arithmetic (double loops, index sums, Gram
eigenvalues) rather than against the library's own primitives.
"""

import numpy as np
import pytest

from distcert import (
    DensityMatrix,
    PureState,
    maximally_entangled,
    partial_trace,
    random_density_matrix,
    random_pure_state,
    save_state,
    tensor,
    trace_norm,
)
from distcert import cli, linalg
from distcert.linalg import (
    _check_psd,
    _eigh,
    _eigvalsh,
    hermitian_eigen,
    hermitian_log,
    hermitize,
)


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _kron_oracle(a, b):
    """Tensor product written as an explicit double loop over blocks."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            out[i * rb:(i + 1) * rb, j * cb:(j + 1) * cb] = a[i, j] * b
    return out


def _partial_trace_oracle(mat, da, db, over):
    """Partial trace via an index sum, no reshapes."""
    if over == "B":
        out = np.zeros((da, da), dtype=complex)
        for i in range(da):
            for j in range(da):
                for k in range(db):
                    out[i, j] += mat[i * db + k, j * db + k]
    else:
        out = np.zeros((db, db), dtype=complex)
        for i in range(db):
            for j in range(db):
                for k in range(da):
                    out[i, j] += mat[k * db + i, k * db + j]
    return out


def test_tensor_matches_block_loop():
    rng = np.random.default_rng(11)
    a = _random_complex(rng, (3, 2))
    b = _random_complex(rng, (2, 4))
    assert np.allclose(tensor(a, b), _kron_oracle(a, b), atol=1e-13)


@pytest.mark.parametrize("da,db", [(2, 2), (2, 3), (3, 2), (4, 3)])
def test_partial_trace_matches_index_sum(da, db):
    rng = np.random.default_rng(100 + da * 10 + db)
    rho = random_density_matrix(da * db, rng, dims=(da, db))
    for over in ("A", "B"):
        got = partial_trace(rho, over)
        want = _partial_trace_oracle(rho.mat, da, db, over)
        assert np.allclose(got.mat, want, atol=1e-13)


def test_partial_trace_of_product_recovers_factors():
    rng = np.random.default_rng(7)
    rho_a = random_density_matrix(3, rng)
    rho_b = random_density_matrix(2, rng)
    joint = DensityMatrix(tensor(rho_a.mat, rho_b.mat), dims=(3, 2))
    assert np.allclose(partial_trace(joint, "B").mat, rho_a.mat, atol=1e-12)
    assert np.allclose(partial_trace(joint, "A").mat, rho_b.mat, atol=1e-12)


def test_partial_trace_needs_dims():
    rho = DensityMatrix(np.eye(4) / 4)
    with pytest.raises(ValueError, match="dims"):
        partial_trace(rho, "B")
    with pytest.raises(ValueError, match="over"):
        partial_trace(DensityMatrix(np.eye(4) / 4, dims=(2, 2)), "C")


def test_trace_norm_matches_gram_eigenvalues():
    # ||A||_1 equals the sum of sqrt(eig(A^dag A)), computed here directly.
    rng = np.random.default_rng(21)
    a = _random_complex(rng, (5, 5))
    gram = a.conj().T @ a
    want = float(np.sum(np.sqrt(np.clip(np.linalg.eigvalsh(gram), 0.0, None))))
    assert np.isclose(trace_norm(a), want, atol=1e-10)


def test_trace_norm_hermitian_is_abs_eigenvalue_sum():
    rng = np.random.default_rng(22)
    h = _random_complex(rng, (6, 6))
    h = h + h.conj().T
    want = float(np.sum(np.abs(np.linalg.eigvalsh(h))))
    assert np.isclose(trace_norm(h), want, atol=1e-10)


def test_trace_norm_of_density_difference_in_range():
    rng = np.random.default_rng(23)
    rho = random_density_matrix(4, rng)
    sig = random_density_matrix(4, rng)
    val = trace_norm(rho.mat - sig.mat)
    assert 0.0 <= val <= 2.0 + 1e-12


def test_hermitian_eigen_sorted_and_reconstructs():
    rng = np.random.default_rng(31)
    h = _random_complex(rng, (5, 5))
    h = (h + h.conj().T) / 2
    evals, evecs = hermitian_eigen(h)
    assert np.all(np.diff(evals) >= -1e-12)
    rebuilt = (evecs * evals) @ evecs.conj().T
    assert np.allclose(rebuilt, h, atol=1e-10)


def test_hermitian_eigen_rejects_non_hermitian():
    mat = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eigen(mat)


def test_non_finite_input_to_the_eigen_layer_is_a_value_error():
    # a NaN entry fails every "defect > tol" test, so it must fail the guard
    # itself rather than reach LAPACK (LinAlgError) or come back as NaN; an
    # infinite entry makes the defect inf - inf (a RuntimeWarning) or sends
    # trace_norm to an SVD that returns NaN
    from distcert import project_ppt

    calls = [
        lambda: hermitian_eigen(np.full((2, 2), np.nan)),
        lambda: project_ppt(np.full((4, 4), np.nan), (2, 2)),
        lambda: trace_norm(np.full((2, 2), np.nan)),
        lambda: trace_norm(np.array([[0, np.inf], [0, 0]])),
        lambda: trace_norm(np.array([[np.inf, 0], [0, 0]])),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="not Hermitian|non-finite") as err:
            call()
        assert not isinstance(err.value, np.linalg.LinAlgError)


@pytest.mark.parametrize("big", [1e308, 1.7e308])
def test_entries_too_large_to_symmetrize_are_a_value_error(big):
    # finite, but M + M^dag overflows to inf, which LAPACK would meet as a
    # LinAlgError after a RuntimeWarning (an error under this suite's filter)
    from distcert import project_ppt

    calls = [
        lambda: trace_norm(np.diag([big, 1.0])),
        lambda: hermitian_eigen(np.diag([big, 1.0])),
        lambda: trace_norm(np.array([[0.0, 1j * big], [-1j * big, 0.0]])),
        lambda: project_ppt(np.full((4, 4), big), (2, 2)),
        lambda: project_ppt(np.diag([big, 0.0, 0.0, 0.0]), (2, 2)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="too large to symmetrize") as err:
            call()
        assert not isinstance(err.value, np.linalg.LinAlgError)


def test_eigen_layer_takes_eigenvalues_past_the_square_root_of_the_largest_float():
    # the NaN test on the eigenvalues must not overflow (a RuntimeWarning, an
    # error under this suite's filter) once their squares pass the largest float
    from distcert import project_ppt

    assert trace_norm(np.diag([1e200, 0.0])) == 1e200
    assert np.array_equal(hermitian_eigen(np.diag([1e200, 0.0]))[0], [0.0, 1e200])
    huge = np.diag([-1e300, 1e300])
    assert np.array_equal(_eigvalsh(huge), np.linalg.eigvalsh(huge))
    with pytest.raises(ValueError, match="too large to project onto density matrices"):
        project_ppt(1e300 * np.eye(4), (2, 2))
    # an empty spectrum has no NaN
    assert _eigh(np.zeros((0, 0)))[0].shape == (0,) and _eigvalsh(np.zeros((3, 0, 0))).shape == (3, 0)


@pytest.mark.parametrize("name", ["_eigh_lo", "_eigvalsh_lo"])
def test_one_nan_eigenvalue_among_huge_ones_is_a_lapack_failure(monkeypatch, name):
    # one NaN in the middle of a stack's spectra, among values whose squares overflow
    gufunc = getattr(linalg, name)

    def one_nan(a, signature):
        out = gufunc(a, signature=signature)
        w = out[0] if isinstance(out, tuple) else out
        w.reshape(-1)[w.size // 2] = np.nan
        return out

    monkeypatch.setattr(linalg, name, one_nan)
    entry = linalg._eigh if name == "_eigh_lo" else linalg._eigvalsh
    for a in (np.diag([1e300, -1e300, 1e200]), np.stack([np.diag([1e300, -1e300, 1e200])] * 3)):
        with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
            entry(a)


def test_hermitian_eigen_is_eigh_of_the_hermitized_input():
    rng = np.random.default_rng(33)
    h = _random_complex(rng, (4, 5, 5))
    # Hermitian up to 1e-9 noise, so the symmetrization changes bits
    h = h + h.conj().swapaxes(-1, -2) + 1e-9 * _random_complex(rng, (4, 5, 5))
    for a in h:
        w, u = hermitian_eigen(a)
        w_ref, u_ref = np.linalg.eigh(hermitize(a))
        assert np.array_equal(w, w_ref) and np.array_equal(u, u_ref)
    bad = h[2].copy()
    bad[0, 1] += 1e-7
    with pytest.raises(ValueError, match="matrix is not Hermitian within 1e-8"):
        hermitian_eigen(bad)


def test_eigen_entry_point_is_numpys_eigh_bit_for_bit():
    # the gufuncs read the lower triangle only, so raw non-Hermitian input
    # must give numpy's bits too
    rng = np.random.default_rng(35)
    for n in range(1, 25):
        h = _random_complex(rng, (3, n, n))
        for a in (h[0], hermitize(h[0]), h, hermitize(h), h.real, hermitize(h.real)[1]):
            w, u = _eigh(a)
            w_ref, u_ref = np.linalg.eigh(a)
            assert w.dtype == w_ref.dtype and u.dtype == u_ref.dtype
            assert np.array_equal(w, w_ref) and np.array_equal(u, u_ref)
            v = _eigvalsh(a)
            assert v.dtype == w_ref.dtype and np.array_equal(v, np.linalg.eigvalsh(a))


def _nan_eigenvalues(gufunc):
    """The gufunc with its eigenvalues replaced by NaN, as on a LAPACK failure."""

    def failed(a, signature):
        out = gufunc(a, signature=signature)
        if isinstance(out, tuple):
            return np.full_like(out[0], np.nan), out[1]
        return np.full_like(out, np.nan)

    return failed


@pytest.mark.parametrize("name", ["_eigh_lo", "_eigvalsh_lo"])
def test_eigen_entry_point_raises_when_lapack_fails(monkeypatch, tmp_path, capsys, name):
    path = tmp_path / "state.json"
    save_state(maximally_entangled(2).to_density(), str(path))
    h = hermitize(_random_complex(np.random.default_rng(36), (2, 4, 4)))
    monkeypatch.setattr(linalg, name, _nan_eigenvalues(getattr(linalg, name)))
    entry = linalg._eigh if name == "_eigh_lo" else linalg._eigvalsh
    for a in (h, h[0], h[0].real):
        with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
            entry(a)
    # the CLI reads a LinAlgError as the ValueError it is: loading the state
    # fails through eigvalsh, the REE search through eigh
    assert cli.main(["analyze-state", str(path), "--max-iters", "5"]) == 2
    assert "Eigenvalues did not converge" in capsys.readouterr().err


def test_hermitian_log_keeps_the_input_dtype():
    # a real input takes numpy's real ("d->dd") path and returns a real log
    rng = np.random.default_rng(37)
    g = rng.standard_normal((2, 5, 5))
    for m in (g @ g.swapaxes(-1, -2), (g @ g.swapaxes(-1, -2))[0]):
        w, v = np.linalg.eigh(hermitize(m))
        want = (v * np.log(w)[..., None, :]) @ v.swapaxes(-1, -2)
        got = hermitian_log(m)
        assert got.dtype == np.float64 and np.array_equal(got, want)
        assert hermitian_log(m.astype(complex)).dtype == np.complex128


def test_hermitian_exp_log_invert_each_other():
    rng = np.random.default_rng(41)
    rho = random_density_matrix(4, rng)
    w, v = np.linalg.eigh(hermitian_log(rho.mat))
    assert np.allclose((v * np.exp(w)) @ v.conj().T, rho.mat, atol=1e-10)


def test_check_psd_rejects_large_negatives_and_returns_its_input():
    with pytest.raises(ValueError, match="not PSD"):
        _check_psd(np.array([1.0, -2e-6]))
    # dust down to -EIG_CLIP_TOL passes unclipped: the entropies count it as 0
    w = np.array([1.0, -1e-10, -5e-11, -0.0])
    assert _check_psd(w) is w
    assert w.tolist() == [1.0, -1e-10, -5e-11, -0.0] and np.signbit(w[-1])


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(4) / 4, dims=(3, 2))  # dims do not multiply out
    for dims in ((2.5, 1.6), (float("inf"), 2), (2, float("nan"))):
        with pytest.raises(ValueError, match="dims"):
            DensityMatrix(np.eye(4) / 4, dims=dims)  # not integers


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)], ids=["nan", "inf", "nan-imag"])
def test_states_reject_non_finite_entries(bad):
    # every tolerance check reads False on NaN, so NaN must be caught on its own
    mat = np.eye(4, dtype=complex) / 4
    mat[1, 2] = mat[2, 1] = bad
    with pytest.raises(ValueError, match="state has a non-finite entry"):
        DensityMatrix(mat, dims=(2, 2))
    vec = np.eye(4, dtype=complex)[0]
    vec[3] = bad
    with pytest.raises(ValueError, match="state has a non-finite entry"):
        PureState(vec, dims=(2, 2))


def test_density_matrix_with_dims():
    rho = DensityMatrix(np.eye(6) / 6, (2, 3))
    assert rho.dims == (2, 3)
    assert rho.dim == 6


def test_pure_state_validation_and_density():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0]))  # not normalized
    for dims in ((-2, -2), (4.0, 1.5), (float("inf"), 2)):
        with pytest.raises(ValueError, match="dims"):
            PureState(np.eye(4)[0], dims=dims)
    psi = PureState(np.eye(3)[1])
    rho = psi.to_density()
    assert np.isclose(rho.mat[1, 1], 1.0)
    assert np.isclose(np.trace(rho.mat), 1.0)


def test_maximally_entangled_has_chaotic_marginals():
    psi = maximally_entangled(3)
    rho = psi.to_density()
    assert rho.dims == (3, 3)
    red = partial_trace(rho, "B")
    assert np.allclose(red.mat, np.eye(3) / 3, atol=1e-12)


def test_random_density_matrix_properties():
    rng = np.random.default_rng(61)
    rho = random_density_matrix(5, rng, rank=2)
    evals = np.linalg.eigvalsh(rho.mat)
    assert np.isclose(evals.sum(), 1.0, atol=1e-12)
    assert evals.min() >= -1e-12
    assert np.sum(evals > 1e-9) <= 2


def test_random_pure_state_normalized():
    rng = np.random.default_rng(62)
    psi = random_pure_state(6, rng)
    assert np.isclose(np.linalg.norm(psi.vec), 1.0, atol=1e-12)


def test_dimension_cap_enforced():
    big = np.eye(1100) / 1100
    with pytest.raises(ValueError, match="cap"):
        DensityMatrix(big)
