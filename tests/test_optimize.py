"""Tests for the entropic optimizers and their certificates.

The erasure channel family supplies exact optima: its coherent information
is (1-2p) H(rho), maximized by the chaotic state, and the diamond distance
between two erasure channels is exactly 2|p - q|. Search results are also
cross-checked against brute random sampling, which any optimizer worth
keeping must beat.
"""

import functools
import math
import operator
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distcert import (
    Certificate,
    DensityMatrix,
    OptimizerConfig,
    channel_coherent_information,
    depolarizing,
    erasure,
    identity_embedding,
    max_coherent_information,
    maximally_entangled,
    maximize_coherent_information,
    maximize_reverse_coherent_information,
    minimize_coherent_information,
    partial_transpose,
    project_ppt,
    random_channel,
    random_density_matrix,
    random_pure_state,
    ree_dual_certificate,
    ree_ppt_lower,
    reverse_coherent_information,
    separable_distance_lower,
    seesaw_diamond_lower,
    seesaw_objective,
    tensor,
    trace_dist_to_ppt,
    trace_norm,
    binary_entropy,
)
from distcert import channels as channels_module
from distcert import optimize
from distcert.channels import adjoint_apply_mat, apply_mat, complement
from distcert.entropy import _entropy_mat
from distcert import linalg
from distcert.linalg import _LOG_FLOOR, _log_eigen, herm_defect, hermitian_eigen, hermitian_log, hermitize
from distcert.optimize import (
    _MARGIN,
    _STALL_LIMIT,
    _STEP,
    _TOL,
    _ascent_stack,
    _drive,
    _halvings,
    _ic_gradient,
    _mirror_slope,
    _mirror_step,
    _rci_gradient,
    _single_ascent,
)

LOG2_3 = math.log2(3)

_FAST = OptimizerConfig(restarts=2, max_iters=120, seed=0)


def _traceless_hermitian(rng, d):
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (h + h.conj().T) / 2
    return h - np.trace(h).real * np.eye(d) / d


def _ic_grad(phi, rho, base=2.0):
    """The coherent information gradient the searches ascend, at rho's outputs."""
    comp = complement(phi)
    return _ic_gradient(phi, comp, (apply_mat(phi, rho), apply_mat(comp, rho)), None, math.log(base))


def _rci_grad(phi, rho):
    """The reverse coherent information gradient in bits, at rho's output."""
    comp = complement(phi)
    return _rci_gradient(comp, (apply_mat(comp, rho),), hermitian_log(rho), math.log(2.0))


def _fd_check(value_fn, grad_fn, rho, rng, h=1e-5):
    """Directional finite difference against the analytic gradient."""
    d = rho.shape[0]
    direction = _traceless_hermitian(rng, d)
    direction /= np.linalg.norm(direction)
    grad = grad_fn(rho)
    analytic = float(np.trace(grad @ direction).real)
    plus = value_fn(rho + h * direction)
    minus = value_fn(rho - h * direction)
    numeric = (plus - minus) / (2 * h)
    assert np.isclose(analytic, numeric, rtol=1e-4, atol=1e-7)


def test_coherent_information_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    phi = random_channel(3, 3, 3, rng)
    rho = random_density_matrix(3, rng).mat

    def value(m):
        m = m / np.trace(m).real
        return channel_coherent_information(phi, DensityMatrix(m))

    _fd_check(value, lambda m: _ic_grad(phi, m), rho, rng)


def test_reverse_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    phi = random_channel(3, 2, 3, rng)
    rho = random_density_matrix(3, rng).mat

    def value(m):
        m = m / np.trace(m).real
        return reverse_coherent_information(phi, DensityMatrix(m))

    _fd_check(value, lambda m: _rci_grad(phi, m), rho, rng)


def test_gradient_base_e_scaling():
    rng = np.random.default_rng(3)
    phi = random_channel(2, 2, 2, rng)
    rho = random_density_matrix(2, rng).mat
    g2 = _ic_grad(phi, rho, base=2.0)
    ge = _ic_grad(phi, rho, base=math.e)
    assert np.allclose(ge, g2 * math.log(2), atol=1e-10)


def test_maximize_coherent_information_erasure():
    cert = maximize_coherent_information(erasure(3, 0.3), _FAST)
    assert np.isclose(cert.value, 0.4 * LOG2_3, atol=1e-5)
    assert cert.kind == "Ic"
    # The optimum is the chaotic state.
    assert np.linalg.norm(cert.witness.mat - np.eye(3) / 3) < 0.05
    # The stored value is reproducible from the witness alone.
    re_eval = channel_coherent_information(erasure(3, 0.3), cert.witness)
    assert np.isclose(re_eval, cert.value, atol=1e-9)


def test_maximize_coherent_information_identity():
    cert = maximize_coherent_information(identity_embedding(3, 3), _FAST)
    assert np.isclose(cert.value, LOG2_3, atol=1e-9)


def test_coherent_information_vanishes_at_half_erasure():
    cert = maximize_coherent_information(erasure(3, 0.5), _FAST)
    assert abs(cert.value) <= 1e-6


def test_minimize_coherent_information_erasure():
    cert = minimize_coherent_information(erasure(3, 0.8), _FAST)
    assert np.isclose(cert.value, -0.6 * LOG2_3, atol=1e-5)
    assert cert.kind == "negIc"
    assert cert.history[-1] == cert.value
    assert np.all(np.diff(cert.history) <= 1e-12)


def test_maximize_reverse_coherent_information_erasure():
    cert = maximize_reverse_coherent_information(erasure(3, 0.3), _FAST)
    want = 0.7 * LOG2_3 - binary_entropy(0.3)
    assert np.isclose(cert.value, want, atol=1e-5)
    assert cert.kind == "L"
    re_eval = reverse_coherent_information(erasure(3, 0.3), cert.witness)
    assert np.isclose(re_eval, cert.value, atol=1e-9)


def test_ascent_history_is_monotone():
    rng = np.random.default_rng(4)
    phi = random_channel(3, 3, 2, rng)
    cert = maximize_coherent_information(phi, _FAST)
    hist = np.asarray(cert.history)
    assert np.all(np.diff(hist) >= -1e-12)
    assert hist[-1] == cert.value


def test_optimizer_beats_random_sampling():
    rng = np.random.default_rng(5)
    phi = random_channel(3, 3, 2, rng)
    cert = maximize_coherent_information(phi, _FAST)
    best = -math.inf
    for _ in range(300):
        rho = random_density_matrix(3, rng)
        best = max(best, channel_coherent_information(phi, rho))
    assert cert.value >= best - 1e-9


_EVALUATED_SEARCHES = {
    "max_ic": (maximize_coherent_information, channel_coherent_information),
    "min_ic": (minimize_coherent_information, channel_coherent_information),
    "rci": (maximize_reverse_coherent_information, reverse_coherent_information),
}


@pytest.mark.parametrize("base", [2.0, math.e], ids=["bits", "nats"])
@pytest.mark.parametrize("d_in, d_out", [(2, 3), (3, 2)])
@pytest.mark.parametrize("search", list(_EVALUATED_SEARCHES))
def test_search_value_is_its_evaluator_at_its_witness(search, d_in, d_out, base):
    cfg = OptimizerConfig(restarts=1, max_iters=40)
    rng = np.random.default_rng(10 * d_in + d_out)
    phi = random_channel(d_in, d_out, 2, rng)
    find, evaluate = _EVALUATED_SEARCHES[search]
    cert = find(phi, cfg, base)
    assert abs(evaluate(phi, cert.witness, base) - cert.value) <= 1e-12
    # the base-free engines re-check exactly
    psi = random_channel(d_in, d_out, 2, rng)
    seesaw = seesaw_diamond_lower(phi, psi, cfg)
    assert seesaw_objective(phi, psi, seesaw.witness.vec) == seesaw.value
    rho = random_density_matrix(d_in * d_out, rng, rank=2, dims=(d_in, d_out))
    oracle = trace_dist_to_ppt(rho, cfg)
    assert trace_norm(rho.mat - oracle.witness.mat) == oracle.value


def test_min_ic_value_is_its_evaluator_bit_for_bit():
    # equal entropies: the evaluator gives +0.0, and so must the certificate
    phi = random_channel(2, 4, 3, np.random.default_rng(11))
    cert = minimize_coherent_information(phi, OptimizerConfig(restarts=1, max_iters=60), math.e)
    want = channel_coherent_information(phi, cert.witness, math.e)
    assert np.float64(cert.value).tobytes() == np.float64(want).tobytes()


def test_seesaw_erasure_pair_reference():
    cert = seesaw_diamond_lower(erasure(2, 0.3), erasure(2, 0.8), _FAST)
    assert np.isclose(cert.value, 1.0, atol=1e-6)
    assert cert.kind == "Diamond_lower"
    # Witness evaluates back to the stored value.
    val = seesaw_objective(erasure(2, 0.3), erasure(2, 0.8), cert.witness.vec)
    assert np.isclose(val, cert.value, atol=1e-10)


def test_seesaw_random_erasure_pairs():
    rng = np.random.default_rng(6)
    for _ in range(5):
        p, q = rng.uniform(0.0, 1.0, size=2)
        cert = seesaw_diamond_lower(erasure(2, p), erasure(2, q), _FAST)
        assert np.isclose(cert.value, 2 * abs(p - q), atol=1e-6)


def test_seesaw_identical_channels_give_zero():
    cert = seesaw_diamond_lower(erasure(2, 0.4), erasure(2, 0.4), _FAST)
    assert abs(cert.value) <= 1e-10


def test_seesaw_monotone_history_and_sampling_dominance():
    rng = np.random.default_rng(7)
    phi = random_channel(2, 2, 2, rng)
    psi = random_channel(2, 2, 2, rng)
    cert = seesaw_diamond_lower(phi, psi, _FAST)
    hist = np.asarray(cert.history)
    assert np.all(np.diff(hist) >= -1e-10)
    best = 0.0
    for _ in range(1000):
        vec = random_pure_state(4, rng, dims=(2, 2)).vec
        best = max(best, seesaw_objective(phi, psi, vec))
    assert cert.value >= best - 1e-9


def test_seesaw_dimension_mismatch():
    with pytest.raises(ValueError):
        seesaw_diamond_lower(erasure(2, 0.1), erasure(3, 0.1))


def test_partial_transpose_structure():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    joint = tensor(a, b)
    assert np.allclose(partial_transpose(joint, (2, 3)), tensor(a, b.T), atol=1e-13)
    # Involution.
    assert np.allclose(
        partial_transpose(partial_transpose(joint, (2, 3)), (2, 3)), joint, atol=1e-13
    )


def test_partial_transpose_detects_bell_state():
    bell = maximally_entangled(2).to_density()
    evals = np.linalg.eigvalsh(partial_transpose(bell.mat, (2, 2)))
    assert np.isclose(evals.min(), -0.5, atol=1e-12)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize(
    "dims", [(1, 1), (1, 4), (4, 1), (2, 3), (3, 2), (4, 6)], ids=lambda d: f"{d[0]}x{d[1]}"
)
def test_partial_transpose_is_the_reshape_transpose(dims, kind):
    # the one gather index equals the plain reshape, axis swap and reshape back
    rng = np.random.default_rng(12)
    n = dims[0] * dims[1]
    mat = rng.standard_normal((n, n))
    if kind == "complex":
        mat = mat + 1j * rng.standard_normal((n, n))
    da, db = dims
    expected = np.asarray(mat, dtype=complex).reshape(da, db, da, db).transpose(0, 3, 2, 1).reshape(n, n)
    assert np.array_equal(partial_transpose(mat, dims), expected)


def test_ppt_dims_are_read_as_integers():
    mat = np.eye(6) / 6
    assert np.array_equal(partial_transpose(mat, (2.0, 3)), partial_transpose(mat, (2, 3)))
    assert np.array_equal(project_ppt(mat, (2.0, 3))[0], project_ppt(mat, (2, 3))[0])
    for dims in ((2.5, 2), (True, 4), ("2", "2")):
        for call in (partial_transpose, project_ppt):
            with pytest.raises(ValueError, match="dims entry must be an integer"):
                call(np.eye(4) / 4, dims)


def test_project_ppt_fixes_ppt_states():
    rng = np.random.default_rng(9)
    ra = random_density_matrix(2, rng)
    rb = random_density_matrix(2, rng)
    sep = tensor(ra.mat, rb.mat)
    proj, converged = project_ppt(sep, (2, 2))
    assert converged
    assert np.allclose(proj, sep, atol=1e-8)


def test_project_ppt_output_is_ppt_density():
    bell = maximally_entangled(2).to_density()
    proj, converged = project_ppt(bell.mat, (2, 2))
    assert converged
    assert np.isclose(np.trace(proj).real, 1.0, atol=1e-8)
    assert np.linalg.eigvalsh(proj).min() >= -1e-8
    assert np.linalg.eigvalsh(partial_transpose(proj, (2, 2))).min() >= -1e-8


def _reference_project_ppt(mat, dims, budget=200):
    """The plain Dykstra loop of at most ``budget`` sweeps: (density-side
    iterate, sweeps, whether the stop test fired). Sorted-spectrum simplex
    projection and partial transposes around the cone projection, every eigh
    behind the 1e-8 guard."""

    def eigh(m):
        assert herm_defect(m) <= 1e-8
        return np.linalg.eigh(hermitize(m))

    def simplex(w):
        u = np.sort(w)[::-1]
        css = np.cumsum(u) - 1.0
        idx = np.arange(1, len(u) + 1)
        k = idx[u - css / idx > 0][-1]
        return np.maximum(w - css[k - 1] / k, 0.0)

    def density(m):
        w, u = eigh(m)
        return (u * simplex(w)) @ u.conj().T

    def pt_psd(m):
        w, u = eigh(partial_transpose(m, dims))
        return partial_transpose((u * np.maximum(w, 0.0)) @ u.conj().T, dims)

    x = y = hermitize(np.asarray(mat, dtype=complex))
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    sweeps = 0
    for sweeps in range(1, budget + 1):
        y = density(x + p)
        p = x + p - y
        x = pt_psd(y + q)
        q = y + q - x
        if np.linalg.norm(y - x) < 1e-10:
            return hermitize(y), sweeps, True
    return hermitize(y), sweeps, False


def _random_hermitian(rng, n, scale):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (g + g.conj().T)


def _ppt_cases():
    rng = np.random.default_rng(21)
    for dims in [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2)]:
        n = dims[0] * dims[1]
        rho = random_density_matrix(n, rng, rank=2).mat
        near = rho + _random_hermitian(rng, n, 0.01)
        yield pytest.param(near, dims, id=f"{dims[0]}x{dims[1]}-near-a-state")
        yield pytest.param(_random_hermitian(rng, n, 1.0), dims, id=f"{dims[0]}x{dims[1]}-hermitian")
    product = tensor(random_density_matrix(2, rng).mat, random_density_matrix(3, rng).mat)
    yield pytest.param(product, (2, 3), id="already-ppt")
    for scale in (1e6, 1e9):
        yield pytest.param(_random_hermitian(rng, 6, scale), (2, 3), id=f"2x3-hermitian-{scale:.0e}")
    yield pytest.param(100.0 * maximally_entangled(2).to_density().mat, (2, 2), id="sweep-cap")
    # a random g + g^dag at 2x3 runs into the 200-sweep cap
    yield pytest.param(_random_hermitian(rng, 6, 1.0), (2, 3), id="2x3-hermitian-sweep-cap")


@pytest.mark.parametrize("mat, dims", list(_ppt_cases()))
def test_project_ppt_matches_the_reference_loop_bit_for_bit(monkeypatch, request, mat, dims):
    expected, sweeps, converged = _reference_project_ppt(mat, dims)
    sweep_calls, eigh_calls = [], []
    density, eigh = optimize._project_density, optimize._eigh
    monkeypatch.setattr(optimize, "_project_density", lambda *a: sweep_calls.append(1) or density(*a))
    monkeypatch.setattr(optimize, "_eigh", lambda a: eigh_calls.append(1) or eigh(a))
    got, flag = project_ppt(mat, dims)
    assert np.array_equal(got, expected)
    assert flag is converged
    assert len(sweep_calls) == sweeps
    # a sweep is two bare eigendecompositions; the reference loop checks each
    # iterate it decomposes for Hermiticity within 1e-8
    assert len(eigh_calls) == 2 * sweeps
    case = request.node.callspec.id
    if case == "already-ppt":
        assert sweeps == 1
    if case in ("sweep-cap", "2x3-hermitian-sweep-cap"):
        assert sweeps == optimize._DYKSTRA_MAX_ITERS == 200
        assert not converged
    # with a sweep budget: the default call's bits and True when the stop test
    # fires within it, the iterate after the whole budget and False otherwise
    for budget in (sweeps - 1, sweeps, optimize._TRIAL_SWEEPS):
        sweep_calls.clear()
        got, flag = project_ppt(mat, dims, budget)
        assert flag is (converged and budget >= sweeps)
        if flag:
            assert np.array_equal(got, expected)
        else:
            assert np.array_equal(got, _reference_project_ppt(mat, dims, budget)[0])
        assert len(sweep_calls) == min(budget, sweeps)


def _earlier_project_ppt(mat, dims):
    """``project_ppt`` as written before its partial transpose became one gather
    and its stop test an inlined norm: (projection, sweeps). Each step is the
    one the fast loop must reproduce bit for bit."""

    def checked_eigh(a):
        ah = a.conj().swapaxes(-1, -2)
        assert np.max(np.abs(a - ah), initial=0.0) <= 1e-8
        return np.linalg.eigh(0.5 * (a + ah))

    x = hermitize(np.asarray(mat, dtype=complex))
    p = q = np.zeros_like(x)
    ranks = np.arange(1.0, len(x) + 1)
    for sweeps in range(1, 201):
        s = x + p
        w, u = checked_eigh(s)
        css = np.cumsum(w[::-1]) - 1.0
        k = np.flatnonzero(w[::-1] - css / ranks > 0)[-1]  # the last index where the test is positive
        y = (u * np.maximum(w - css[k] / (k + 1), 0.0)) @ u.conj().T
        p = s - y
        s = y + q
        w, u = checked_eigh(partial_transpose(s, dims))
        x = partial_transpose((u * np.maximum(w, 0.0)) @ u.conj().T, dims)
        q = s - x
        if np.linalg.norm(y - x) < 1e-10:
            break
    return hermitize(y), sweeps


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)], ids=lambda d: f"{d[0]}x{d[1]}")
def test_project_ppt_matches_the_earlier_sweep_bit_for_bit(dims):
    rng = np.random.default_rng(10)
    n = dims[0] * dims[1]
    sweeps = []
    for scale in (0.05, 0.1, 0.2, 0.5, 1.0, 2.0):
        mat = _random_hermitian(rng, n, scale)
        expected, used = _earlier_project_ppt(mat, dims)
        assert np.array_equal(project_ppt(mat, dims)[0], expected)
        sweeps.append(used)
    # inputs that stop on the 1e-10 test and inputs that run into the 200-sweep cap
    assert min(sweeps) < optimize._DYKSTRA_MAX_ITERS == max(sweeps) == 200


def test_project_ppt_wrong_dims_message():
    with pytest.raises(ValueError, match=re.escape("shape (4, 4) incompatible with dims (2, 3)")):
        project_ppt(np.eye(4) / 4, (2, 3))


def test_project_ppt_rejects_a_spectrum_beyond_double_precision():
    # at 1e16 no eigenvalue passes the simplex test; 1e15 still projects to I/4
    with pytest.raises(ValueError, match="too large to project onto density matrices"):
        project_ppt(1e16 * np.eye(4), (2, 2))
    assert np.allclose(project_ppt(1e15 * np.eye(4), (2, 2))[0], np.eye(4) / 4, atol=1e-12)
    # at 5e307 the running sum passes the largest float: the caller gets the
    # ValueError alone, no overflow warning before it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=re.escape("spectrum up to 5e+307 too large to project")):
            project_ppt(5e307 * np.eye(4), (2, 2))
    assert caught == []


def _numpy_threshold_projection(a):
    """``_project_density`` with the simplex threshold in numpy, as it was
    before the float loop: reverse, running sum, test, last index from
    ``nonzero``. (spectrum, projection), the projection None where no index
    passes the test."""
    w, u = optimize._eigh(hermitize(a))
    wr = w[::-1]
    css = wr.cumsum() - 1.0
    passing = (wr - css / np.arange(1.0, len(w) + 1) > 0).nonzero()[0]
    if not passing.size:
        return w, None
    k = passing[-1]
    return w, (u * np.maximum(w - css[k] / (k + 1), 0.0)) @ u.conj().T


_EIGENVALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 0.5, 1.0, -1.0, 1e15, -1e15]),
    st.floats(min_value=-1e15, max_value=1e15),
)
_SPECTRA = st.one_of(
    st.lists(_EIGENVALUES, min_size=1, max_size=36),
    # ties: every eigenvalue one of a few values
    st.lists(_EIGENVALUES, min_size=1, max_size=4).flatmap(
        lambda values: st.lists(st.sampled_from(values), min_size=1, max_size=36)
    ),
    st.lists(st.floats(min_value=-1e15, max_value=0.0, exclude_max=True), min_size=1, max_size=36),
    st.lists(st.floats(min_value=-1e-300, max_value=1e-300), min_size=1, max_size=36),  # subnormals
)


@given(_SPECTRA, st.booleans())
@example([1e16], False)  # near 1e16, w_max - (w_max - 1) rounds to 0: no index passes
@example([1e16] * 4, True)
@example([1e16] * 36, False)
@settings(max_examples=400, deadline=None)
def test_project_density_matches_the_numpy_threshold_bit_for_bit(spectrum, rotate):
    a = np.diag(np.array(spectrum, dtype=complex))
    if rotate:  # the same spectrum in another basis, where eigh no longer returns the diagonal
        q = np.linalg.qr(np.arange(1.0, a.size + 1).reshape(a.shape) + 1j * np.eye(len(a)))[0]
        a = q @ a @ q.conj().T
    w, want = _numpy_threshold_projection(a)
    if want is None:
        message = f"spectrum up to {w[-1]:.3g} too large to project onto density matrices"
        with pytest.raises(ValueError, match=re.escape(message)):
            optimize._project_density(a)
    else:
        assert optimize._project_density(a).tobytes() == want.tobytes()


def test_project_ppt_rejects_non_finite_input_once():
    # checked on entry: the sweeps decompose without a guard, so a NaN or an
    # infinity must not reach LAPACK (LinAlgError) or the hermitization
    # (a RuntimeWarning, an error under this suite's warning filter)
    nan = np.full((4, 4), np.nan)
    inf_off = np.eye(4) / 4
    inf_off[0, 1] = np.inf
    inf_diag = np.eye(4) / 4
    inf_diag[2, 2] = -np.inf
    for mat in (nan, inf_off, inf_diag):
        with pytest.raises(ValueError, match="non-finite") as err:
            project_ppt(mat, (2, 2))
        assert not isinstance(err.value, np.linalg.LinAlgError)
    with pytest.raises(ValueError, match=re.escape("shape (4, 4) incompatible with dims (2, 3)")):
        project_ppt(nan, (2, 3))


@pytest.mark.parametrize("dims", [(0, 0), (0, 3), (2, 0)])
def test_project_ppt_rejects_an_empty_factor(dims):
    with pytest.raises(ValueError, match=re.escape(f"dims {dims} must both be at least 1")):
        project_ppt(np.zeros((0, 0)), dims)
    with pytest.raises(ValueError, match="must both be at least 1"):
        partial_transpose(np.zeros((0, 0)), dims)


def test_ree_lower_bell_state():
    bell = maximally_entangled(2).to_density()
    cert = ree_ppt_lower(bell, _FAST)
    assert cert.kind == "ER_lower"
    assert abs(cert.value - 1.0) <= 5e-3
    # The certificate never exceeds the achieved objective.
    assert cert.value <= cert.objective + 1e-6
    # Re-evaluating the dual certificate at the stored witness is exact.
    assert ree_dual_certificate(bell, cert.witness) == cert.value


def test_ree_lower_base_e():
    bell = maximally_entangled(2).to_density()
    cert = ree_ppt_lower(bell, _FAST, base=math.e)
    assert abs(cert.value - math.log(2)) <= 5e-3


def test_ree_lower_product_state_is_zero():
    rng = np.random.default_rng(10)
    ra = random_density_matrix(2, rng)
    rb = random_density_matrix(2, rng)
    rho = DensityMatrix(tensor(ra.mat, rb.mat), dims=(2, 2))
    cert = ree_ppt_lower(rho, _FAST)
    assert cert.value <= 1e-6


def test_ree_lower_separable_mixture_is_small():
    rng = np.random.default_rng(11)
    mats = []
    for _ in range(4):
        ra = random_density_matrix(2, rng, rank=1)
        rb = random_density_matrix(2, rng, rank=1)
        mats.append(tensor(ra.mat, rb.mat))
    weights = rng.dirichlet(np.ones(4))
    rho = DensityMatrix(sum(w * m for w, m in zip(weights, mats)), dims=(2, 2))
    cert = ree_ppt_lower(rho, _FAST)
    assert cert.value <= 1e-4


def test_ree_lower_never_exceeds_true_relative_entropy():
    # For the Bell state the relative entropy to the closest PPT state is
    # exactly 1 bit (attained by the Werner state at the boundary); the
    # certified lower bound must respect it.
    bell = maximally_entangled(2).to_density()
    cert = ree_ppt_lower(bell, _FAST)
    assert cert.value <= 1.0 + 1e-9


def _reference_ree_ppt_lower(rho, max_iters):
    """``ree_ppt_lower`` with every line-search trial scored by the full
    ``_ree_terms``: (value, objective, history, iterations, converged,
    witness matrix, how it stopped). A trial whose projection needs more
    than ``_TRIAL_SWEEPS`` sweeps is rejected, as in ``ree_ppt_lower``."""
    lb = math.log(2.0)
    rho_t, tr_log, dims = optimize._regularized(rho)

    def full_terms(sigma):
        return optimize._ree_terms(optimize._ree_objective(rho_t, tr_log, sigma, lb), dims, lb)

    best_sigma, _ = project_ppt(rho_t, dims)
    f, grad, cert, sig = full_terms(best_sigma)
    best_cert, history, eta, gains = cert, [cert], _STEP, []

    def step(_):
        nonlocal f, grad, sig, best_cert, best_sigma, eta
        for e in optimize._halvings(eta, 40):
            trial, converged = project_ppt(sig - e * grad, dims, optimize._TRIAL_SWEEPS)
            if not converged:  # not converged within the trial budget: rejected
                continue
            terms = full_terms(trial)
            if terms[0] < f - 1e-15:
                break
        else:
            gains.append(None)
            return {0: None}
        gains.append(f - terms[0])
        f, grad, cert, sig = terms
        history.append(cert)
        if cert > best_cert:
            best_cert, best_sigma = cert, trial
        eta = min(e * 2.0, 10.0 * _STEP)
        return {0: gains[-1]}

    [(converged, iters)] = _drive(step, 1, max_iters)
    stop = "max_iters" if not converged else "exhausted" if gains[-1] is None else "stall"
    witness = DensityMatrix(best_sigma, dims).mat
    return best_cert, f, tuple(history), iters, converged, witness, stop


@pytest.mark.parametrize(
    "dims, seed, max_iters, stop",
    [
        ((2, 2), 17, 500, "stall"),
        ((2, 2), 0, 500, "exhausted"),  # the 2x2 state of the benchmark's panel
        ((2, 3), 0, 60, "max_iters"),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_ree_scores_trials_by_the_objective_alone_bit_for_bit(dims, seed, max_iters, stop):
    rho = random_density_matrix(dims[0] * dims[1], np.random.default_rng(seed), rank=2, dims=dims)
    *expected, witness, how = _reference_ree_ppt_lower(rho, max_iters)
    assert how == stop
    cert = ree_ppt_lower(rho, OptimizerConfig(max_iters=max_iters))
    assert [cert.value, cert.objective, cert.history, cert.iterations, cert.converged] == expected
    assert np.array_equal(cert.witness.mat, witness)


@pytest.mark.parametrize(
    "dims, seed, max_iters",
    [((2, 2), 0, 500), ((2, 2), 17, 500), ((2, 2), 3, 200), ((2, 3), 0, 60), ((3, 2), 5, 60)],
)
def test_ree_accepts_only_converged_projections(monkeypatch, dims, seed, max_iters):
    # (2, 2) seed 0 is the benchmark panel's 2x2 state: without a trial budget
    # it accepts a trial whose projection ran into the 200-sweep cap unconverged
    rho = random_density_matrix(dims[0] * dims[1], np.random.default_rng(seed), rank=2, dims=dims)
    calls, scored = [], []
    project, terms = optimize.project_ppt, optimize._ree_terms

    def recording_project(mat, dims, sweeps=optimize._DYKSTRA_MAX_ITERS):
        # every projection runs here: the start first, then each trial
        out = project(mat, dims, sweeps)
        calls.append((mat, sweeps, out[1]))
        return out

    def recording_terms(*args):
        # the projection scored here is the last one made: the start
        # projection first, then each accepted trial; last comes the
        # certificate at the witness, which makes no projection
        scored.append(calls[-1])
        return terms(*args)

    monkeypatch.setattr(optimize, "project_ppt", recording_project)
    monkeypatch.setattr(optimize, "_ree_terms", recording_terms)
    cert = ree_ppt_lower(rho, OptimizerConfig(max_iters=max_iters))
    assert scored[0] is calls[0] and calls[0][1] == optimize._DYKSTRA_MAX_ITERS
    assert [sweeps for _, sweeps, _ in calls[1:]] == [optimize._TRIAL_SWEEPS] * (len(calls) - 1)
    accepted = scored[1:-1]
    assert len(accepted) == len(cert.history) - 1 > 0
    for mat, _, flag in accepted:
        assert flag
        assert _reference_project_ppt(mat, dims)[2]


def test_ree_candidate_is_exactly_hermitian_and_decomposes_as_the_gate_would():
    # _ree_objective decomposes its floored candidate with the bare _eigh, not
    # through hermitian_eigen: the candidate, hermitize(sigma) times a real
    # scalar plus a real diagonal, is Hermitian entry for entry, so the gate
    # would pass it and decompose the same bits
    rng = np.random.default_rng(26)
    lb = math.log(2.0)
    for dims in ((2, 2), (2, 3), (3, 3)):
        n = dims[0] * dims[1]
        rho_t, tr_log, _ = optimize._regularized(random_density_matrix(n, rng, rank=2, dims=dims))
        signed_zeros = np.full((n, n), complex(-0.0, -0.0))  # a diagonal candidate with -0 parts elsewhere
        signed_zeros[np.diag_indices(n)] = rng.random(n)
        candidates = [signed_zeros]
        for _ in range(20):
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            candidates += [project_ppt(g, dims)[0], hermitize(g), g]
        for sigma in candidates:
            _, (sig, ws, us, _) = optimize._ree_objective(rho_t, tr_log, sigma, lb)
            assert np.array_equal(sig, sig.conj().T)
            w, u = hermitian_eigen(sig)
            assert np.maximum(w, _LOG_FLOOR).tobytes() == ws.tobytes()
            assert u.tobytes() == us.tobytes()


def test_ree_needs_dims():
    with pytest.raises(ValueError, match="dims"):
        ree_ppt_lower(DensityMatrix(np.eye(4) / 4))


def test_trace_dist_to_ppt_vanishes_on_ppt_input():
    rng = np.random.default_rng(12)
    ra = random_density_matrix(2, rng)
    rb = random_density_matrix(2, rng)
    rho = DensityMatrix(tensor(ra.mat, rb.mat), dims=(2, 2))
    cert = trace_dist_to_ppt(rho, _FAST)
    assert cert.value <= 1e-6


def test_trace_dist_to_ppt_bell_reference():
    bell = maximally_entangled(2).to_density()
    cert = trace_dist_to_ppt(bell, _FAST)
    assert cert.kind == "Ds_oracle"
    assert abs(cert.value - 1.0) <= 1e-3
    # The estimate is an upper bound style oracle: it cannot undercut the
    # distance to any particular PPT state by more than solver noise.
    sig = DensityMatrix(project_ppt(bell.mat, (2, 2))[0], dims=(2, 2))
    assert cert.value <= trace_norm(bell.mat - sig.mat) + 1e-9


def _is_ppt(sigma, dims) -> bool:
    return linalg._eigvalsh(sigma)[0] >= 0 and linalg._eigvalsh(partial_transpose(sigma, dims))[0] >= 0


# 36 seeded states: dims 2x2, 2x3 and 3x2; ranks 1, 2 and full; 4 states each
_ORACLE_PANEL = [
    random_density_matrix(a * b, rng, rank=rank, dims=(a, b))
    for rng in [np.random.default_rng(5)]
    for a, b in ((2, 2), (2, 3), (3, 2))
    for rank in (1, 2, a * b)
    for _ in range(4)
]


@pytest.mark.parametrize("k", range(len(_ORACLE_PANEL)))
def test_oracle_converges_to_a_ppt_upper_value(k):
    rho = _ORACLE_PANEL[k]
    cert = trace_dist_to_ppt(rho)
    assert cert.converged and cert.iterations <= 150
    assert len(cert.history) == cert.iterations + 1 and cert.value == min(cert.history)
    sigma = cert.witness.mat
    assert cert.value == trace_norm(rho.mat - sigma)
    assert _is_ppt(sigma, rho.dims)
    # Dykstra's Frobenius projection is PPT only to its 1e-10 stop test, so where it is
    # also closest in trace norm (six of the pure states here) it reads about 2e-10 to
    # 3e-10 below the true distance; the solve itself stops once its gap bound is 1e-9
    assert cert.value <= trace_norm(rho.mat - project_ppt(rho.mat, rho.dims)[0]) + optimize._GAP_TOL
    # the report's Eq5 and Eq6 entries: lower bounds from the REE and coherent-information certificates
    d = min(rho.dims)
    gaps = (ree_ppt_lower(rho, OptimizerConfig(max_iters=40)).value, max_coherent_information(rho))
    assert all(cert.value >= separable_distance_lower(gap, d) for gap in gaps if gap > 0)


def test_oracle_start_is_a_ppt_upper_value():
    # the start, rho mixed with I/n just past the PPT boundary, is the witness of a run
    # of no Newton step; here also for a state mixed to just short of that boundary
    rho = _ORACLE_PANEL[6]
    low = linalg._eigvalsh(partial_transpose(rho.mat, rho.dims))[0]
    mix = -4 * low / (1 - 4 * low) * (1 - 1e-6)  # (1 - mix) * low + mix / 4 < 0, just
    edge = DensityMatrix((1 - mix) * rho.mat + mix * np.eye(4) / 4, rho.dims)
    assert linalg._eigvalsh(partial_transpose(edge.mat, edge.dims))[0] < 0
    for state in [*_ORACLE_PANEL, edge]:
        cert = trace_dist_to_ppt(state, OptimizerConfig(max_iters=0))
        assert (cert.iterations, cert.history) == (0, (cert.value,))
        assert cert.value == trace_norm(state.mat - cert.witness.mat)
        assert _is_ppt(cert.witness.mat, state.dims)
    assert cert.value < 1e-6 and not cert.converged


def test_oracle_starts_at_a_strictly_ppt_input():
    # a state with positive definite partial transpose is its own start, up to the
    # rounding of its coordinates
    rng = np.random.default_rng(12)
    rho = DensityMatrix(tensor(random_density_matrix(2, rng).mat, random_density_matrix(3, rng).mat), (2, 3))
    cert = trace_dist_to_ppt(rho)
    assert cert.history[0] < 1e-15 and cert.converged
    assert np.allclose(cert.witness.mat, rho.mat, rtol=0.0, atol=1e-15)


def test_oracle_runs_without_projection_or_sign_matrix(monkeypatch):
    for name in ("project_ppt", "_sign_matrix"):
        monkeypatch.setattr(optimize, name, lambda *a, **k: pytest.fail("called"))
    cert = trace_dist_to_ppt(_ORACLE_PANEL[4])
    assert cert.converged


def _stuck_oracle_state():
    """A full-rank 2x2 state whose oracle solve once ran into the 500-step cap mid-centering: at
    t = 3.45e10 the squared decrement sticks near 2.1e-10, above its 1e-10 test, while every
    step is accepted, although nu / t is already below 1e-9 there."""
    rng = np.random.default_rng(5)
    for rank in (1, 1, 1, 2, 2, 2, 4):
        rho = random_density_matrix(4, rng, rank=rank, dims=(2, 2))
    return rho


def test_oracle_ends_a_centering_whose_decrement_stops_falling(monkeypatch):
    rho = _stuck_oracle_state()
    decrements = []
    solve = np.linalg.solve

    def recording_solve(a, b):  # -grad . dz is the squared decrement; b is -grad, scaled
        dz = solve(a, b)
        decrements.append(float(b @ dz))
        return dz

    monkeypatch.setattr(optimize.np.linalg, "solve", recording_solve)
    cert = trace_dist_to_ppt(rho)
    assert cert.converged and cert.iterations <= 150
    assert cert.value == min(cert.history) == trace_norm(rho.mat - cert.witness.mat)
    assert _is_ppt(cert.witness.mat, rho.dims)
    # the last centering ends with _STALL_LIMIT + 1 decrements stuck near 2.1e-10, none a new low
    tail = decrements[-optimize._STALL_LIMIT - 1 :]
    assert all(optimize._CENTER_TOL < d < 3e-10 for d in tail)
    assert min(tail[1:]) >= tail[0]


def test_oracle_is_unconverged_when_the_step_cap_ends_its_last_centering():
    rho = _stuck_oracle_state()
    steps = trace_dist_to_ppt(rho).iterations
    for cap in (steps - 1, steps - optimize._STALL_LIMIT):
        cert = trace_dist_to_ppt(rho, OptimizerConfig(max_iters=cap))
        assert (cert.iterations, cert.converged) == (cap, False)
        assert cert.value == min(cert.history) == trace_norm(rho.mat - cert.witness.mat)
        assert _is_ppt(cert.witness.mat, rho.dims)


def test_ree_reports_no_objective_from_an_unconverged_start():
    # the benchmark's unrotated rank-2 3x3 and 4x4 states, drawn in that order from the
    # panel seed 0: the 4x4 start projection stops unconverged at 200 Dykstra sweeps, so
    # a search that accepts no step reports no objective; the 3x3 start converges (3x3
    # states run on the barrier engine, so the descent is called directly there)
    panel = np.random.default_rng(0)
    rho33, rho44 = (random_density_matrix(a * a, panel, rank=2, dims=(a, a)) for a in (3, 4))
    assert ree_ppt_lower(rho44, OptimizerConfig(max_iters=0)).objective is None
    assert ree_ppt_lower(rho44, OptimizerConfig(max_iters=1)).objective is not None
    rho_t, tr_log, dims = optimize._regularized(rho33)
    cert = optimize._ree_descent(rho_t, tr_log, dims, math.log(2.0), 0)
    start, converged = project_ppt(rho_t, dims, 200)
    assert converged
    assert cert.objective == optimize._ree_objective(rho_t, tr_log, start, math.log(2.0))[0]


# ----- the REE on the barrier engine -----


# random states at the barrier's sizes: 3x3, 2x4 and 4x2, ranks 1, 2 and full
_BARRIER_PANEL = [
    random_density_matrix(a * b, rng, rank=rank, dims=(a, b))
    for rng in [np.random.default_rng(11)]
    for a, b in ((3, 3), (2, 4), (4, 2))
    for rank in (1, 2, a * b)
]


@functools.cache
def _barrier_certificate(k):
    return ree_ppt_lower(_BARRIER_PANEL[k])


def _rel_entropy_bits(rho_t, tau):
    """D(rho_t || tau) in bits for a positive definite rho_t (inf if tau is singular on it)."""
    w, u = np.linalg.eigh(rho_t)
    wt, ut = np.linalg.eigh(tau)
    log_tau = (ut * np.log(np.maximum(wt, 1e-300))) @ ut.conj().T
    return float(np.real(w @ np.log(w) - np.trace(rho_t @ log_tau))) / math.log(2.0)


def _separable_mixture(rng, dims, terms):
    weights = rng.dirichlet(np.ones(terms))
    products = (tensor(*(random_density_matrix(d, rng).mat for d in dims)) for _ in range(terms))
    return sum(p * m for p, m in zip(weights, products))


@pytest.mark.parametrize("k", range(len(_BARRIER_PANEL)))
def test_barrier_certificate_is_below_every_ppt_candidate(k):
    rho = _BARRIER_PANEL[k]
    cert = _barrier_certificate(k)
    assert cert.converged and cert.iterations <= 150
    assert ree_dual_certificate(rho, cert.witness) == cert.value
    sigma = cert.witness.mat
    assert linalg._eigvalsh(sigma)[0] > 0 and linalg._eigvalsh(partial_transpose(sigma, rho.dims))[0] > 0
    rho_t, _, dims = optimize._regularized(rho)
    assert math.isclose(cert.objective, _rel_entropy_bits(rho_t, sigma), rel_tol=0.0, abs_tol=1e-9)
    rng = np.random.default_rng(k)
    n = rho.dim
    candidates = [project_ppt(rho.mat, dims)[0], project_ppt(rho_t, dims)[0]]
    for _ in range(10):
        mixture = _separable_mixture(rng, dims, 2 * n)
        candidates += [mixture, 0.5 * (sigma + mixture), 0.99 * sigma + 0.01 * mixture]
        candidates.append(project_ppt(random_density_matrix(n, rng, rank=2).mat, dims)[0])
    for tau in candidates:
        # a projection is PPT to its 1e-10 stop test: its relative entropy may read that much low
        assert _rel_entropy_bits(rho_t, tau) >= cert.value - 1e-9
    # the witness itself is a PPT candidate, and the split leaves little between the two
    assert cert.objective - 1e-4 <= cert.value <= cert.objective


@pytest.mark.parametrize("k", range(len(_BARRIER_PANEL)))
def test_barrier_certificate_is_at_least_the_descents(k):
    rho = _BARRIER_PANEL[k]
    descent = optimize._ree_descent(*optimize._regularized(rho), math.log(2.0), OptimizerConfig().max_iters)
    assert _barrier_certificate(k).value >= descent.value


def _bench_states(sizes, seed):
    """The benchmark's rank-2 states at ``sizes`` for ``seed``: drawn in that order from the panel
    seed 0 and each turned by a local unitary U_A (x) U_B drawn from ``seed`` (QR of a complex
    Gaussian with its phases fixed), as the benchmark's workloads draw them."""
    panel, rng = np.random.default_rng(0), np.random.default_rng(seed)

    def unitary(d):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        q, r = np.linalg.qr(g)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    states = []
    for a, b in sizes:
        rho = random_density_matrix(a * b, panel, rank=2, dims=(a, b))
        u = np.kron(unitary(a), unitary(b))
        m = u @ rho.mat @ u.conj().T
        states.append(DensityMatrix(0.5 * (m + m.conj().T), (a, b)))
    return states


def test_descent_witnesses_keep_their_corner_certificate():
    # the seed-7 benchmark states the descent still runs on, and the certificates (bits) their
    # reports printed before the interior split: a Dykstra witness is PPT only to its stop test,
    # so the split never applies and ree_dual_certificate returns the corner split's bits
    small = _bench_states([(2, 2), (2, 3)], 7)
    large = _bench_states([(3, 3), (4, 4), (4, 6)], 7)[1:]
    printed = [0.0, 0.3887643514011574, 0.6119469777511176, 0.9985907424033]
    lb = math.log(2.0)
    for rho, value in zip(small + large, printed):
        cert = ree_ppt_lower(rho)
        rho_t, tr_log, dims = optimize._regularized(rho)
        sigma = cert.witness.mat
        corner = optimize._ree_terms(optimize._ree_objective(rho_t, tr_log, sigma, lb), dims, lb)[2]
        assert optimize._interior_split(rho_t, tr_log, sigma, dims, lb) == -math.inf
        assert ree_dual_certificate(rho, cert.witness) == cert.value == corner
        assert abs(cert.value - value) <= 1e-9


def test_interior_split_holds_for_every_s_and_beats_the_corner_at_the_barrier_witness():
    rho = _BARRIER_PANEL[1]
    cert = _barrier_certificate(1)
    rho_t, tr_log, dims = optimize._regularized(rho)
    lb = math.log(2.0)
    sigma = cert.witness.mat
    split = optimize._interior_split(rho_t, tr_log, sigma, dims, lb)
    corner = optimize._ree_terms(optimize._ree_objective(rho_t, tr_log, sigma, lb), dims, lb)[2]
    assert cert.value == split > corner
    # the bisection's value is lambda_min(G - s C) at one s >= 0: no s on a grid does better by
    # more than rounding, and every s gives a bound no PPT candidate beats
    f, point = optimize._ree_point(rho_t, tr_log, *np.linalg.eigh(sigma), lb)
    grad, _ = optimize._ree_gradient(point, lb)
    inv = np.linalg.inv(sigma) + partial_transpose(np.linalg.inv(partial_transpose(sigma, dims)), dims)
    base = f - float(np.real(np.trace(grad @ sigma)))
    grid = [base + np.linalg.eigvalsh(grad - s * inv)[0] for s in np.geomspace(1e-14, 1.0, 400)]
    assert max(grid) <= split + 1e-9
    assert min(grid) < split
    assert split <= cert.objective


def test_barrier_ree_honours_the_step_cap():
    rho = _BARRIER_PANEL[1]
    for cap in (0, 1, 10):
        cert = ree_ppt_lower(rho, OptimizerConfig(max_iters=cap))
        assert (cert.iterations, cert.converged) == (cap, False)
        assert len(cert.history) == cap + 1 and cert.objective == cert.history[-1]
        assert ree_dual_certificate(rho, cert.witness) == cert.value >= 0.0
    assert np.array_equal(ree_ppt_lower(rho, OptimizerConfig(max_iters=0)).witness.mat, np.eye(9) / 9)


def test_barrier_ree_runs_from_7_to_9_without_projection(monkeypatch):
    assert list(optimize._BARRIER_DIMS) == [7, 8, 9]
    for name in ("project_ppt", "_ree_descent"):
        monkeypatch.setattr(optimize, name, lambda *a, **k: pytest.fail("called"))
    assert ree_ppt_lower(_BARRIER_PANEL[4], OptimizerConfig(max_iters=5)).iterations == 5


def test_log_divided_differences_match_their_definitions():
    rng = np.random.default_rng(4)
    w = np.sort(np.concatenate([rng.random(5), [1e-11, 1e-11 * (1 + 1e-12), 0.3, 0.3 + 1e-15]]))
    first = optimize._log_first(w)
    second = optimize._log_second(w, first)
    for i, a in enumerate(w):
        for j, b in enumerate(w):
            # 1 / log[a, b] is the logarithmic mean, between the geometric and the arithmetic mean
            assert 2.0 / (a + b) * (1 - 1e-15) <= first[i, j] <= 1.0 / math.sqrt(a * b) * (1 + 1e-15)
            if abs(a - b) > 1e-3 * max(a, b):  # well separated: the plain quotient is accurate
                assert math.isclose(first[i, j], (math.log(a) - math.log(b)) / (a - b), rel_tol=1e-13)
            for k, c in enumerate(w):
                hi, lo = max(a, b, c), min(a, b, c)
                got = second[i, k, j]
                # symmetric, and minus the integral over s >= 0 of 1 / ((a + s)(b + s)(c + s))
                assert got == second[j, i, k] == second[k, j, i] < 0
                assert -0.5 / lo**2 <= got <= -0.5 / hi**2
                if hi - lo > 1e-3 * hi:
                    mid = a + b + c - hi - lo
                    plain = (math.log(hi) - math.log(mid)) / (hi - mid) if hi - mid > 1e-3 * hi else 1 / mid
                    plain -= (math.log(mid) - math.log(lo)) / (mid - lo) if mid - lo > 1e-3 * mid else 1 / mid
                    assert math.isclose(got, plain / (hi - lo), rel_tol=1e-3)
    assert math.isclose(second[0, 1, 0], -0.5e22, rel_tol=1e-9)
    at = int(np.flatnonzero(w == 0.3)[0])
    assert math.isclose(second[at, at + 1, at], -0.5 / 0.09, rel_tol=1e-9)


def test_certificate_fields_and_config_defaults():
    assert OptimizerConfig() == OptimizerConfig(8, 500, 0)
    assert (_TOL, _STEP) == (1e-7, 0.1)
    cert = maximize_coherent_information(erasure(2, 0.2), OptimizerConfig(restarts=1, max_iters=30))
    assert isinstance(cert, Certificate)
    assert cert.iterations >= 0
    assert isinstance(cert.converged, bool)
    assert len(cert.history) >= 1


# ----- the search driver -----


def _scripted(gains):
    it = iter(gains)
    return lambda running: {0: next(it)}


def test_drive_stops_when_no_improving_move():
    assert _drive(_scripted([1.0, 1.0, None]), 1, 50) == [(True, 3)]


def test_drive_stops_after_stall_limit():
    small = [_TOL / 2] * _STALL_LIMIT
    assert _drive(_scripted([1.0, *small]), 1, 50) == [(True, 1 + _STALL_LIMIT)]
    # a gain at or above the tolerance resets the count
    assert _drive(_scripted([*small[1:], _TOL, *small]), 1, 50) == [(True, 2 * _STALL_LIMIT)]


def test_drive_reports_exhausted_iterations():
    assert _drive(lambda running: {0: 1.0}, 1, 7) == [(False, 7)]
    assert _drive(_scripted([]), 1, 0) == [(False, 0)]


def test_drive_stops_each_seed_by_its_own_rule():
    mid = ...  # the seed is mid-step in this round: left out of the dict
    small = [_TOL / 2] * _STALL_LIMIT
    scripts = [
        [1.0, mid, mid, 1.0, None],  # no improving move at its third step
        [mid, 1.0, *small],  # stalls after 1 + _STALL_LIMIT steps
        [1.0, mid] * 20,  # runs out of its 15 steps
    ]
    rounds = []

    def step(running):
        rounds.append(list(running))
        return {s: g for s in running if (g := scripts[s][len(rounds) - 1]) is not mid}

    assert _drive(step, 3, 15) == [(True, 3), (True, 1 + _STALL_LIMIT), (False, 15)]
    # a seed leaves the rounds once it stops, and mid-step rounds do not count
    assert rounds[4] == [0, 1, 2] and rounds[5] == [1, 2]
    assert rounds[1 + _STALL_LIMIT] == [1, 2] and rounds[2 + _STALL_LIMIT] == [2]
    assert len(rounds) == 29
    assert _drive(step, 3, 0) == [(False, 0)] * 3 and len(rounds) == 29


@pytest.mark.parametrize("field", ["restarts", "max_iters", "seed"])
def test_config_rejects_negative_limits(field):
    with pytest.raises(ValueError, match=field):
        OptimizerConfig(**{field: -1})
    for bad in (2.5, float("nan"), "3", None, True, np.True_):
        with pytest.raises(ValueError, match=field):
            OptimizerConfig(**{field: bad})
    # an integral value of another numeric type is taken as that int
    assert getattr(OptimizerConfig(**{field: np.int64(2)}), field) == 2
    assert type(getattr(OptimizerConfig(**{field: 2.0}), field)) is int


def test_config_caps_restarts_at_max_dim():
    # every start state is drawn before a search runs, so the count is refused up front
    assert OptimizerConfig(restarts=1024).restarts == 1024
    for bad in (1025, 10**12):
        with pytest.raises(ValueError, match=f"restarts must be <= 1024, got {bad}"):
            OptimizerConfig(restarts=bad)


def test_zero_iterations_evaluate_start_points_only():
    cert = maximize_coherent_information(erasure(3, 0.2), OptimizerConfig(restarts=0, max_iters=0))
    assert (cert.iterations, cert.converged, cert.history) == (0, False, (cert.value,))
    assert np.isclose(cert.value, 0.6 * LOG2_3, atol=1e-12)


def test_ascent_counts_the_failed_step_only_when_nothing_improves():
    rho = np.eye(2, dtype=complex)[None] / 2

    def no_gradient(outputs, log_r):
        return np.zeros_like(log_r)

    def flat_value(r):
        return np.zeros(len(r)), (r,)  # (values, outputs): the identity channel's output

    flat = _single_ascent(_ascent_stack(flat_value, no_gradient, rho, _FAST.max_iters), 0)
    assert flat[2:] == ([0.0], True, 1)
    values = iter(range(1000))

    def creep(r):
        return 1e-9 * np.array([next(values) for _ in r]), (r,)

    creeping = _single_ascent(_ascent_stack(creep, no_gradient, rho, _FAST.max_iters), 0)
    assert creeping[3:] == (True, _STALL_LIMIT)
    assert len(creeping[2]) == _STALL_LIMIT + 1


def test_reverse_ascent_takes_each_log_of_rho_once(monkeypatch):
    # the mirror step and the gradient share one log of rho per step, taken by
    # _log_eigen; the gradient logs only the environment outputs (2x2 here, rho is 3x3)
    logged, output_sides = [], []
    log_eigen, log = optimize._log_eigen, optimize.hermitian_log
    monkeypatch.setattr(optimize, "_log_eigen", lambda m: logged.append(m.tobytes()) or log_eigen(m))
    monkeypatch.setattr(optimize, "hermitian_log", lambda m: output_sides.append(m.shape[-1]) or log(m))
    phi = random_channel(3, 2, 2, np.random.default_rng(5))
    maximize_reverse_coherent_information(phi, OptimizerConfig(restarts=2, max_iters=30))
    assert logged and len(logged) == len(set(logged))
    assert output_sides and set(output_sides) == {2}


@pytest.mark.parametrize(
    "search, channels",
    [(maximize_coherent_information, ("phi",)), (maximize_reverse_coherent_information, ("comp",))],
    ids=["max_ic", "max_rci"],
)
def test_ascent_applies_each_channel_once_per_scored_stack(monkeypatch, search, channels):
    # the gradient reads the outputs its seed carries from the stack that scored
    # its rho, and Ic reads Phi(rho) and comp(rho) from one Stinespring product
    phi = random_channel(2, 3, 2, np.random.default_rng(6))  # d_out and d_env both above 1
    name_of = {phi.kraus.tobytes(): "phi", complement(phi).kraus.tobytes(): "comp"}
    applied, trials = [], []
    products, step = channels_module._stinespring_products, optimize._mirror_step

    def counted_products(k, m):
        if (name := name_of.get(k.tobytes())) is not None:  # the adjoint's K^dag stacks are not counted
            applied.append((name, len(m)))
        return products(k, m)

    def counted_step(*args):
        trials.append(len(out := step(*args)))
        return out

    monkeypatch.setattr(channels_module, "_stinespring_products", counted_products)
    monkeypatch.setattr(optimize, "_mirror_step", counted_step)
    cert = search(phi, OptimizerConfig(restarts=2, max_iters=30))
    assert len(cert.history) > 1 and trials  # steps were accepted, so gradients were taken
    seeds = 1 + phi.d_in + 2  # I/d, the basis pointers, the random restarts
    assert applied == [(c, size) for size in (seeds, *trials) for c in channels]


# ----- lockstep multistart -----


_ASCENTS = {
    "max_ic": maximize_coherent_information,
    "min_ic": minimize_coherent_information,
    "max_rci": maximize_reverse_coherent_information,
}


def _captured_stack(monkeypatch, search, phi, cfg, base=2.0):
    """The (value_fn, grad_fn, seeds, max_iters, sign) that ``search`` hands ``_ascent_stack``."""
    stacks = []
    with monkeypatch.context() as m:
        m.setattr(optimize, "_ascent_stack", lambda *args: stacks.append(args) or _ascent_stack(*args))
        search(phi, cfg, base)
    return stacks[0]


def _stop_reason(run):
    _, _, history, converged, iterations = run
    if converged is None:
        return "retired"
    if not converged:
        return "max_iters"
    return "stall" if iterations == len(history) - 1 else "line search"


_LOCKSTEP_CHANNELS = {
    "2->3": lambda: random_channel(2, 3, 2, np.random.default_rng(2)),
    "3->2": lambda: random_channel(3, 2, 2, np.random.default_rng(3)),
    "1->3": lambda: random_channel(1, 3, 2, np.random.default_rng(4)),
}


def _lockstep_runs(value_fn, grad_fn, seeds, max_iters, sign):
    """The runs of one ``_ascent_stack``, each checked against its seed's single-seed run: a seed
    that is not retired follows that run bit for bit; a retired seed's history is a prefix of it, bit
    for bit, every step of it accepted, and its point is where that run stands after as many steps."""
    lockstep = _ascent_stack(value_fn, grad_fn, seeds, max_iters, sign)
    runs = [_single_ascent(lockstep, s) for s in range(len(seeds))]
    for s, (rho, val, history, converged, iterations) in enumerate(runs):
        alone = _single_ascent(_ascent_stack(value_fn, grad_fn, seeds[s : s + 1], max_iters, sign), 0)
        bits = [float(h).hex() for h in (val, *history)]
        if converged is None:
            assert bits == [float(h).hex() for h in (history[-1], *alone[2][: len(history)])]
            assert iterations == len(history) - 1 < alone[4]
            cut = _single_ascent(_ascent_stack(value_fn, grad_fn, seeds[s : s + 1], iterations, sign), 0)
            assert np.array_equal(rho, cut[0])
        else:
            assert np.array_equal(rho, alone[0])
            assert bits == [float(h).hex() for h in (alone[1], *alone[2])]
            assert (converged, iterations) == alone[3:]
    return runs


@pytest.mark.parametrize("max_iters", [0, 3, 120])
@pytest.mark.parametrize("base", [2.0, math.e], ids=["bits", "nats"])
@pytest.mark.parametrize("channel", list(_LOCKSTEP_CHANNELS))
@pytest.mark.parametrize(
    "search",
    [maximize_coherent_information, minimize_coherent_information, maximize_reverse_coherent_information],
    ids=["max_ic", "min_ic", "max_rci"],
)
def test_lockstep_seeds_follow_their_single_seed_paths(monkeypatch, search, channel, base, max_iters):
    cfg = OptimizerConfig(restarts=2, max_iters=max_iters)
    runs = _lockstep_runs(*_captured_stack(monkeypatch, search, _LOCKSTEP_CHANNELS[channel](), cfg, base))
    if max_iters == 0:
        assert all(run[2:] == ([run[1]], False, 0) for run in runs)


def test_one_stack_stops_seeds_for_each_of_the_four_reasons(monkeypatch):
    phi = random_channel(3, 2, 3, np.random.default_rng(7))
    cfg = OptimizerConfig(restarts=4, max_iters=120)
    runs = _lockstep_runs(*_captured_stack(monkeypatch, maximize_coherent_information, phi, cfg))
    assert {_stop_reason(run) for run in runs} == {"stall", "line search", "max_iters", "retired"}


# ----- retiring seeds that a better seed has reached -----


def _winner(runs, sign):
    """Index of the run ``_best_certificate`` certifies: the best value, the earliest on ties."""
    return min(range(len(runs)), key=lambda s: (-sign * runs[s][1], s))


@pytest.mark.parametrize("search", list(_ASCENTS))
def test_copies_of_one_seed_retire_and_certify_its_single_seed_run(monkeypatch, search):
    phi = random_channel(3, 2, 2, np.random.default_rng(8))
    seed = random_density_matrix(3, np.random.default_rng(9)).mat
    cfg = OptimizerConfig(max_iters=120)
    monkeypatch.setattr(optimize, "_ascent_seeds", lambda d, c: [seed])
    alone = _ASCENTS[search](phi, cfg)
    monkeypatch.setattr(optimize, "_ascent_seeds", lambda d, c: [seed] * 4)
    value_fn, grad_fn, seeds, limit, sign = _captured_stack(monkeypatch, _ASCENTS[search], phi, cfg)
    runs = _ascent_stack(value_fn, grad_fn, seeds, limit, sign)
    assert alone.iterations > 0
    assert [run[3:] for run in runs[1:]] == [(None, 0)] * 3  # retired at their first step start
    assert all(run[2] == [alone.history[0]] and np.array_equal(run[0], seed) for run in runs[1:])
    copies = _ASCENTS[search](phi, cfg)
    assert copies.value.hex() == alone.value.hex()
    assert copies.witness.mat.tobytes() == alone.witness.mat.tobytes()
    assert [h.hex() for h in copies.history] == [h.hex() for h in alone.history]
    assert (copies.iterations, copies.converged) == (alone.iterations, alone.converged)


# channels on which each of the three searches retires some seed
_RETIREMENT_CHANNELS = {
    "2->3": lambda: random_channel(2, 3, 2, np.random.default_rng(18)),
    "3->2": lambda: random_channel(3, 2, 3, np.random.default_rng(10)),
    "4->4": lambda: random_channel(4, 4, 3, np.random.default_rng(15)),
}


@pytest.mark.parametrize("channel", list(_RETIREMENT_CHANNELS))
@pytest.mark.parametrize("search", list(_ASCENTS))
def test_the_winner_is_never_retired_and_certifies_the_best_single_seed_run(monkeypatch, search, channel):
    phi, cfg = _RETIREMENT_CHANNELS[channel](), OptimizerConfig(restarts=4, max_iters=120)
    value_fn, grad_fn, seeds, limit, sign = _captured_stack(monkeypatch, _ASCENTS[search], phi, cfg)
    runs = _ascent_stack(value_fn, grad_fn, seeds, limit, sign)
    cert = _ASCENTS[search](phi, cfg)
    winner = runs[_winner(runs, sign)]
    assert winner[3] is not None and any(run[3] is None for run in runs)
    assert cert.value.hex() == float(winner[1]).hex()
    assert cert.witness.mat.tobytes() == DensityMatrix(winner[0]).mat.tobytes()
    alone = [
        _single_ascent(_ascent_stack(value_fn, grad_fn, seeds[s : s + 1], limit, sign), 0)[1]
        for s, run in enumerate(runs)
        if run[3] is not None
    ]
    assert cert.value == (max if sign > 0 else min)(alone)


@pytest.mark.parametrize("sign", [1, -1])
def test_a_tie_in_value_retires_the_higher_index(sign):
    rng = np.random.default_rng(15)
    a = random_density_matrix(3, rng).mat
    near = 0.999 * a + 0.001 * np.eye(3) / 3
    far = random_density_matrix(3, rng).mat
    assert np.linalg.norm(a - near) < optimize._COINCIDE
    assert min(np.linalg.norm(far - a), np.linalg.norm(far - near)) > optimize._COINCIDE

    def flat_value(r):
        return np.zeros(len(r)), (r,)

    def no_gradient(outputs, log_r):
        return np.zeros_like(log_r)

    for seeds in ([a, near, far], [near, a, far]):
        runs = _ascent_stack(flat_value, no_gradient, np.array(seeds), 10, sign)
        assert [run[3:] for run in runs] == [(True, 1), (None, 0), (True, 1)]

    def tilted(r):  # the seed built from ``near`` scores higher (sign 1) or lower (sign -1)
        return sign * np.array([float(np.array_equal(m, near)) for m in r]), (r,)

    runs = _ascent_stack(tilted, no_gradient, np.array([a, near, far]), 10, sign)
    assert [run[3:] for run in runs] == [(None, 0), (True, 1), (True, 1)]


@pytest.mark.parametrize("search", list(_ASCENTS))
def test_one_dimensional_inputs_certify_seed_zero(monkeypatch, search):
    # every 1x1 input is the state 1: the seeds tie, so seed 0 runs and the rest retire
    phi = _LOCKSTEP_CHANNELS["1->3"]()
    cfg = OptimizerConfig(restarts=3, max_iters=120)
    value_fn, grad_fn, seeds, limit, sign = _captured_stack(monkeypatch, _ASCENTS[search], phi, cfg)
    runs = _ascent_stack(value_fn, grad_fn, seeds, limit, sign)
    assert [run[3] for run in runs] == [True] + [None] * (len(seeds) - 1)
    cert = _ASCENTS[search](phi, cfg)
    alone = _single_ascent(_ascent_stack(value_fn, grad_fn, seeds[:1], limit, sign), 0)
    for run in (runs[0], alone):
        assert cert.value.hex() == float(run[1]).hex()
        assert cert.witness.mat.tobytes() == DensityMatrix(run[0]).mat.tobytes()
        assert (list(cert.history), cert.converged, cert.iterations) == (run[2], *run[3:])


_SEESAW_PAIRS = {
    "erasure": lambda: (erasure(2, 0.3), erasure(2, 0.6)),
    "depolarizing": lambda: (depolarizing(3, 0.2), depolarizing(3, 0.5)),
    "random": lambda: (
        random_channel(2, 2, 2, np.random.default_rng(4)),
        random_channel(2, 2, 3, np.random.default_rng(5)),
    ),
}


@pytest.mark.parametrize("pair", list(_SEESAW_PAIRS))
def test_seesaw_scores_each_input_once(monkeypatch, pair):
    """One output difference per seed, then one per candidate input: the sign
    matrix of an input reuses the difference that scored it."""
    phi, psi = _SEESAW_PAIRS[pair]()
    cfg = OptimizerConfig(restarts=3, max_iters=40, seed=0)
    calls = {"_output_gap": 0, "_sign_matrix": 0}
    for name in calls:
        def counted(*args, _fn=getattr(optimize, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(optimize, name, counted)
    seesaw_diamond_lower(phi, psi, cfg)
    assert calls["_sign_matrix"] > 0
    assert calls["_output_gap"] == len(optimize._seesaw_seeds(phi.d_in, cfg)) + calls["_sign_matrix"]


@pytest.mark.parametrize("max_iters", [0, 5, 40])
@pytest.mark.parametrize("pair", list(_SEESAW_PAIRS))
def test_seesaw_seeds_follow_their_single_seed_paths(monkeypatch, pair, max_iters):
    phi, psi = _SEESAW_PAIRS[pair]()
    cfg = OptimizerConfig(restarts=3, max_iters=max_iters, seed=0)
    seeds = optimize._seesaw_seeds(phi.d_in, cfg)
    captured = []
    best = optimize._best_certificate

    def spy(kind, runs, witness, sign=1):
        captured.append(runs := list(runs))
        return best(kind, runs, witness, sign)

    monkeypatch.setattr(optimize, "_best_certificate", spy)
    seesaw_diamond_lower(phi, psi, cfg)
    for seed in seeds:
        monkeypatch.setattr(optimize, "_seesaw_seeds", lambda d, c: [seed])
        seesaw_diamond_lower(phi, psi, cfg)
    lockstep, alone = captured[0], [runs[0] for runs in captured[1:]]
    assert len(lockstep) == len(alone) == 4
    for (v, val, history, *stop), (v1, val1, history1, *stop1) in zip(lockstep, alone):
        assert v.tobytes() == v1.tobytes()
        assert [float(h).hex() for h in (val, *history)] == [float(h).hex() for h in (val1, *history1)]
        assert stop == stop1
    if max_iters == 0:
        assert all(run[2:] == ([run[1]], False, 0) for run in lockstep)
    if (pair, max_iters) == ("erasure", 5):
        # seeds that stop for different reasons share the rounds
        assert {_stop_reason(run) for run in lockstep} == {"max_iters", "line search"}


def test_stack_kernels_act_slice_by_slice():
    rng = np.random.default_rng(5)
    phi = random_channel(3, 4, 3, rng)
    stack = np.array([random_density_matrix(3, rng).mat for _ in range(4)])
    out_stack = np.array([random_density_matrix(4, rng).mat for _ in range(4)])
    cases = [
        (lambda m: apply_mat(phi, m), stack),
        (lambda m: adjoint_apply_mat(phi, m), out_stack),
        (hermitize, stack + 0.1j * rng.standard_normal(stack.shape)),
        (hermitian_log, stack),
        (lambda m: _entropy_mat(m, 2.0), stack),
        (lambda m: _entropy_mat(m, math.e), stack),
    ]
    for kernel, ms in cases:
        assert np.array_equal(kernel(ms), np.array([kernel(m) for m in ms]))
    assert type(_entropy_mat(stack[0], 2.0)) is float


@pytest.mark.parametrize(
    "search",
    [maximize_coherent_information, minimize_coherent_information, maximize_reverse_coherent_information],
    ids=["max_ic", "min_ic", "max_rci"],
)
def test_every_mirror_step_argument_is_hermitian_within_1e_8(monkeypatch, search):
    # the mirror step symmetrizes its argument without checking it, so an
    # ascent must only ever hand it matrices the 1e-8 guard of hermitian_eigen passes
    defects = []

    def checked_step(log_rho, grad, eta):
        defects.append(herm_defect(log_rho + eta[:, None, None] * grad))
        return _mirror_step(log_rho, grad, eta)

    monkeypatch.setattr(optimize, "_mirror_step", checked_step)
    search(random_channel(3, 2, 2, np.random.default_rng(6)), OptimizerConfig(restarts=2, max_iters=30))
    assert defects and max(defects) <= 1e-8


# ----- where a mirror line search ends -----

@pytest.mark.parametrize("base", [2.0, math.e], ids=["bits", "nats"])
@pytest.mark.parametrize("search", list(_ASCENTS))
def test_mirror_slope_is_the_derivative_along_the_mirror_path(monkeypatch, search, base):
    rng = np.random.default_rng(11)
    for d_in, d_out, k in [(2, 3, 2), (3, 2, 2), (3, 3, 3)]:
        phi = random_channel(d_in, d_out, k, rng)
        value_fn, grad_fn, _, _, sign = _captured_stack(
            monkeypatch, _ASCENTS[search], phi, OptimizerConfig(restarts=0, max_iters=0), base
        )
        rho = np.array([random_density_matrix(d_in, rng).mat for _ in range(4)])
        log_r, w, v = _log_eigen(rho)
        grad = sign * grad_fn(value_fn(rho)[1], log_r)

        def signed_value(e):
            return sign * value_fn(_mirror_step(log_r, grad, np.full(len(rho), e)))[0]

        slope = _mirror_slope(w, v, grad)
        h = 1e-5
        assert np.all(slope >= 0.0)
        assert np.allclose(slope, (signed_value(h) - signed_value(-h)) / (2 * h), rtol=1e-6, atol=1e-9)


def test_mirror_slope_is_nonnegative_and_vanishes_on_multiples_of_the_identity():
    rng = np.random.default_rng(12)
    for d in (2, 3, 5, 8):
        # rank 1 and 2 leave eigenvalues at the 1e-300 floor, I/d a fully tied spectrum
        rho = np.array([*(random_density_matrix(d, rng, rank=r).mat for r in (1, 2, d)), np.eye(d) / d])
        _, w, v = _log_eigen(rho)
        for _ in range(5):
            noise = rng.standard_normal(rho.shape) + 1j * rng.standard_normal(rho.shape)
            assert np.all(_mirror_slope(w, v, hermitize(noise)) >= 0.0)
        for c in (1.0, -2.5):
            flat = _mirror_slope(w, v, c * np.broadcast_to(np.eye(d, dtype=complex), rho.shape).copy())
            assert np.all(flat >= 0.0) and np.all(flat <= 1e-28 * c * c)  # 0 up to rounding


def _spectral_starts(eta, history, fresh, moved, dgrad):
    """Sets eta[s] of each seed s of ``fresh`` that has taken a step to the Barzilai-Borwein step
    <S, S>_0 / -<S, Y>_0, capped at 4, where <S, Y>_0 < 0; S (``moved``) is the change of log rho
    and Y (``dgrad``) that of the signed gradient since the seed's last step start."""
    ss, sy = (optimize._traceless_inner(moved, x).tolist() for x in (moved, dgrad))
    for s, a, b in zip(fresh, ss, sy):
        if len(history[s]) > 1 and b < 0.0:
            eta[s] = min(a / -b, 4.0)


def _reference_ascent_stack(value_fn, grad_fn, seeds, max_iters: int, sign: int = 1) -> list:
    """``_ascent_stack`` before the slope stop rule: a line search that no step
    size improves runs all 50 trials, and a trial is accepted if it beats its
    seed's value by more than 1e-15. Steps start as ``_ascent_stack``'s do."""
    signed = operator.neg if sign < 0 else operator.pos
    rho = np.array(seeds, dtype=complex)
    vals, outs = value_fn(rho)
    history = [[v] for v in vals.tolist()]
    n = len(rho)
    etas, eta = [None] * n, [_STEP] * n
    log_rho, grad = np.zeros_like(rho), np.zeros_like(rho)

    def step(running):
        if fresh := [s for s in running if etas[s] is None]:
            new_log = hermitian_log(rho[fresh])
            g = signed(grad_fn(tuple(o[fresh] for o in outs), new_log))
            _spectral_starts(eta, history, fresh, new_log - log_rho[fresh], g - grad[fresh])
            log_rho[fresh], grad[fresh] = new_log, g
            for s in fresh:
                etas[s] = _halvings(eta[s], 50)
        gains, idx, steps = {}, [], []
        for s in running:
            if (e := next(etas[s], None)) is None:
                gains[s] = None
            else:
                idx.append(s)
                steps.append(e)
        if idx:
            trial = optimize._mirror_step(log_rho[idx], grad[idx], np.array(steps))
            trial_vals, trial_outs = value_fn(trial)
            for i, (s, e, v) in enumerate(zip(idx, steps, trial_vals.tolist())):
                if signed(v) > (cur := signed(history[s][-1])) + 1e-15:
                    gains[s], rho[s] = signed(v) - cur, trial[i]
                    for o, t in zip(outs, trial_outs):
                        o[s] = t[i]
                    history[s].append(v)
                    eta[s], etas[s] = min(e * 2.0, 4.0), None
        return gains

    stops = _drive(step, n, max_iters)
    return [(rho[s], history[s][-1], history[s], *stops[s]) for s in range(n)]


def _counted_ascent(monkeypatch, loop, value_fn, grad_fn, seeds, max_iters, sign):
    """Runs of ``loop`` with its trials, its mirror steps and gradient calls, and
    the ``_eigh`` calls it makes outside ``value_fn`` and ``grad_fn``."""
    counts = {"trials": 0, "steps": 0, "values": 0, "grads": 0, "eighs": 0}
    inside = []
    step, eigh = optimize._mirror_step, linalg._eigh

    def counted_step(log_rho, grad, eta):
        counts["trials"] += len(eta)
        counts["steps"] += 1
        return step(log_rho, grad, eta)

    def counted_eigh(a):
        counts["eighs"] += not inside
        return eigh(a)

    def scoring(fn, key):
        def scored(*args):
            counts[key] += 1
            inside.append(1)
            try:
                return fn(*args)
            finally:
                inside.pop()
        return scored

    with monkeypatch.context() as m:
        m.setattr(optimize, "_mirror_step", counted_step)
        m.setattr(optimize, "_eigh", counted_eigh)
        m.setattr(linalg, "_eigh", counted_eigh)
        runs = loop(scoring(value_fn, "values"), scoring(grad_fn, "grads"), seeds, max_iters, sign)
    return runs, counts


_STOP_PANEL = {
    "erasure(4,0.2)": lambda: erasure(4, 0.2),
    "erasure(8,0.3)": lambda: erasure(8, 0.3),
    "depolarizing(3,0.2)": lambda: depolarizing(3, 0.2),
    "random(3,2,2)": lambda: random_channel(3, 2, 2, np.random.default_rng(3)),
}


@pytest.mark.parametrize("channel", list(_STOP_PANEL))
def test_slope_rule_only_cuts_line_searches_short(monkeypatch, channel):
    # against the loop without the rule: each seed's path is a prefix of the
    # reference path, bit for bit, with its value within 1e-13; no more trials;
    # and one _eigh per mirror step and per log of rho, as before. Seeds do not
    # retire here: the slope rule shifts the rounds in which steps start, so the
    # two loops would compare their seeds against other seeds at other points
    monkeypatch.setattr(optimize, "_COINCIDE", 0.0)
    phi, cut = _STOP_PANEL[channel](), 0
    for search in _ASCENTS.values():
        args = _captured_stack(monkeypatch, search, phi, OptimizerConfig(restarts=2, max_iters=60))
        new, new_counts = _counted_ascent(monkeypatch, _ascent_stack, *args)
        ref, ref_counts = _counted_ascent(monkeypatch, _reference_ascent_stack, *args)
        for (_, val, history, _, its), (_, ref_val, ref_history, _, ref_its) in zip(new, ref):
            assert [h.hex() for h in history] == [h.hex() for h in ref_history[: len(history)]]
            assert abs(val - ref_val) <= 1e-13 and its <= ref_its
        assert new_counts["trials"] <= ref_counts["trials"]
        for counts in (new_counts, ref_counts):
            assert counts["eighs"] == counts["steps"] + counts["grads"]
        cut += ref_counts["trials"] - new_counts["trials"]
    assert cut > 0  # the rule ended at least one line search early


def _lazy_slope_ascent_stack(value_fn, grad_fn, seeds, max_iters: int, sign: int = 1) -> list:
    """``_ascent_stack`` with the slope taken lazily: a seed's first rejected
    trial of a step sets its slope, from eigenpairs kept since the step
    started, in one stacked ``_mirror_slope`` call per round; from then on a
    step size e with e * slope < ``_MARGIN`` ends the search. Steps start as
    ``_ascent_stack``'s do."""
    signed = operator.neg if sign < 0 else operator.pos
    rho = np.array(seeds, dtype=complex)
    vals, outs = value_fn(rho)
    history = [[v] for v in vals.tolist()]
    n = len(rho)
    etas, eta = [None] * n, [_STEP] * n
    slopes = [math.inf] * n  # inf until the seed's line search rejects a trial
    log_rho, grad, v_rho = np.zeros_like(rho), np.zeros_like(rho), np.empty_like(rho)
    w_rho = np.empty(rho.shape[:2])

    def step(running):
        if fresh := [s for s in running if etas[s] is None]:
            at = np.array(fresh)
            new_log, w_rho[at], v_rho[at] = _log_eigen(rho[at])
            g = signed(grad_fn(tuple(o[at] for o in outs), new_log))
            _spectral_starts(eta, history, fresh, new_log - log_rho[at], g - grad[at])
            log_rho[at], grad[at] = new_log, g
            for s in fresh:
                etas[s], slopes[s] = _halvings(eta[s], 50), math.inf
        gains, idx, steps = {}, [], []
        for s in running:
            if (e := next(etas[s], None)) is None or e * slopes[s] < _MARGIN:
                gains[s] = None
            else:
                idx.append(s)
                steps.append(e)
        if idx:
            at = np.array(idx)
            trial = optimize._mirror_step(log_rho[at], grad[at], np.array(steps))
            trial_vals, trial_outs = value_fn(trial)
            rejected = []
            for i, (s, e, v) in enumerate(zip(idx, steps, trial_vals.tolist())):
                if signed(v) > (cur := signed(history[s][-1])) + _MARGIN:
                    gains[s], rho[s] = signed(v) - cur, trial[i]
                    for o, t in zip(outs, trial_outs):
                        o[s] = t[i]
                    history[s].append(v)
                    eta[s], etas[s] = min(e * 2.0, 4.0), None
                elif slopes[s] == math.inf:
                    rejected.append(s)
            if rejected:
                at = np.array(rejected)
                for s, x in zip(rejected, _mirror_slope(w_rho[at], v_rho[at], grad[at]).tolist()):
                    slopes[s] = x
        return gains

    stops = _drive(step, n, max_iters)
    return [(rho[s], history[s][-1], history[s], *stops[s]) for s in range(n)]


@pytest.mark.parametrize("channel", list(_STOP_PANEL))
@pytest.mark.parametrize("search", list(_ASCENTS))
def test_slope_taken_when_the_step_starts_matches_the_lazy_slope_bit_for_bit(monkeypatch, search, channel):
    # the slope rule applies only from a step's second trial on, which runs only
    # after its first was rejected, so taking the slope early changes no decision;
    # seeds do not retire here, as the lazy loop knows no retirement
    monkeypatch.setattr(optimize, "_COINCIDE", 0.0)
    cfg = OptimizerConfig(restarts=2, max_iters=60)
    args = _captured_stack(monkeypatch, _ASCENTS[search], _STOP_PANEL[channel](), cfg)
    new, new_counts = _counted_ascent(monkeypatch, _ascent_stack, *args)
    lazy, lazy_counts = _counted_ascent(monkeypatch, _lazy_slope_ascent_stack, *args)
    for (rho, val, history, converged, its), (l_rho, l_val, l_history, l_converged, l_its) in zip(new, lazy):
        assert rho.tobytes() == l_rho.tobytes()
        assert [h.hex() for h in (val, *history)] == [h.hex() for h in (l_val, *l_history)]
        assert (converged, its) == (l_converged, l_its)
    assert new_counts["trials"] == lazy_counts["trials"]


@pytest.mark.parametrize("eta", [_STEP, 4.0, 3e-7])
def test_halvings_yield_eta_then_the_halvings_the_slope_allows(eta):
    sizes = [eta * 0.5**k for k in range(50)]
    assert list(_halvings(eta, 50)) == list(_halvings(eta, 50, math.inf)) == sizes
    assert list(_halvings(eta, 50, 0.0)) == [eta]
    for slope in (1e-14, 1e-12, 3.7e-9, 1.0, 1e3):
        allowed = [e for e in sizes[1:] if e * slope >= _MARGIN]
        assert allowed == sizes[1 : 1 + len(allowed)]  # the rule ends the schedule, never skips a size
        assert list(_halvings(eta, 50, slope)) == [eta, *allowed]
    assert list(_halvings(eta, 0, 1.0)) == []


@pytest.mark.parametrize("search", list(_ASCENTS))
def test_ascent_takes_one_slope_stack_per_log_of_rho(monkeypatch, search):
    logged, sloped = [], []
    log_eigen, slope = optimize._log_eigen, optimize._mirror_slope
    monkeypatch.setattr(optimize, "_log_eigen", lambda m: logged.append(len(m)) or log_eigen(m))
    monkeypatch.setattr(optimize, "_mirror_slope", lambda w, v, g: sloped.append(len(g)) or slope(w, v, g))
    _ASCENTS[search](random_channel(3, 2, 2, np.random.default_rng(3)), OptimizerConfig(restarts=2, max_iters=60))
    assert logged and sloped == logged


def test_traceless_inner_is_the_inner_product_of_the_traceless_parts():
    rng = np.random.default_rng(4)
    a, b = (np.array([_random_hermitian(rng, 3, 2.0) for _ in range(4)]) for _ in range(2))
    eye = np.eye(3)
    for x, y, got in zip(a, b, optimize._traceless_inner(a, b)):
        x0, y0 = (m - np.trace(m).real / 3 * eye for m in (x, y))
        assert got == pytest.approx(np.trace(x0.conj().T @ y0).real, abs=1e-12)
    shifted = optimize._traceless_inner(a + 2.5 * eye, b - 0.7 * eye)
    assert np.allclose(shifted, optimize._traceless_inner(a, b), rtol=0.0, atol=1e-12)


def test_spectral_starts_cut_the_erasure_max_ic_search(monkeypatch):
    # the I/d seed already holds the optimum; the basis-pointer seeds crossing the
    # simplex by doublings from _STEP took 231 summed iterations, spectral starts about 50
    args = _captured_stack(monkeypatch, maximize_coherent_information, erasure(8, 0.25), OptimizerConfig())
    runs = _ascent_stack(*args)
    assert sum(run[4] for run in runs) <= 80


def test_every_seed_starts_its_first_step_at_the_initial_step(monkeypatch):
    etas = []
    step = optimize._mirror_step
    monkeypatch.setattr(optimize, "_mirror_step", lambda log_r, grad, eta: etas.append(eta) or step(log_r, grad, eta))
    cfg = OptimizerConfig(restarts=3, max_iters=60)
    for search in _ASCENTS.values():
        etas.clear()
        search(random_channel(3, 2, 2, np.random.default_rng(3)), cfg)
        assert etas[0].tolist() == [_STEP] * (1 + 3 + cfg.restarts)  # I/d, the 3 basis pointers, the randoms


def _bell_like_state():
    rng = np.random.default_rng(9)
    g = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, dims=(2, 2))


@pytest.mark.parametrize(
    "search",
    [
        lambda cfg: maximize_coherent_information(erasure(3, 0.2), cfg),
        lambda cfg: minimize_coherent_information(erasure(3, 0.2), cfg),
        lambda cfg: maximize_reverse_coherent_information(random_channel(3, 2, 2, np.random.default_rng(8)), cfg),
        lambda cfg: seesaw_diamond_lower(erasure(2, 0.3), erasure(2, 0.6), cfg),
        lambda cfg: ree_ppt_lower(_bell_like_state(), cfg),
    ],
    ids=["max_ic", "min_ic", "max_rci", "seesaw", "ree"],
)
@pytest.mark.parametrize("max_iters", [3, 120])
def test_iterations_count_accepted_steps_plus_the_failed_one(search, max_iters):
    cert = search(OptimizerConfig(restarts=1, max_iters=max_iters, seed=0))
    extra = cert.iterations - (len(cert.history) - 1)
    assert extra in (0, 1)
    if extra == 1:
        assert cert.converged
    if not cert.converged:
        assert (cert.iterations, extra) == (max_iters, 0)
