"""Tests for the entropic optimizers and their certificates.

The erasure channel family supplies exact optima: its coherent information
is (1-2p) H(rho), maximized by the chaotic state, and the diamond distance
between two erasure channels is exactly 2|p - q|. Search results are also
cross-checked against brute random sampling, which any optimizer worth
keeping must beat.
"""

import math

import numpy as np
import pytest

from distcert import (
    Certificate,
    DensityMatrix,
    OptimizerConfig,
    channel_coherent_information,
    chaotic_state,
    coherent_information_gradient,
    erasure,
    identity_embedding,
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
    relative_entropy,
    reverse_coherent_information,
    reverse_coherent_information_gradient,
    seesaw_diamond_lower,
    seesaw_objective,
    tensor,
    trace_dist_to_ppt,
    trace_norm,
    binary_entropy,
)
from distcert.optimize import _STALL_LIMIT, _STEP, _TOL, _drive, _single_ascent

LOG2_3 = math.log2(3)

_FAST = OptimizerConfig(restarts=2, max_iters=120, seed=0)


def _traceless_hermitian(rng, d):
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (h + h.conj().T) / 2
    return h - np.trace(h).real * np.eye(d) / d


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

    _fd_check(value, lambda m: coherent_information_gradient(phi, m), rho, rng)


def test_reverse_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    phi = random_channel(3, 2, 3, rng)
    rho = random_density_matrix(3, rng).mat

    def value(m):
        m = m / np.trace(m).real
        return reverse_coherent_information(phi, DensityMatrix(m))

    _fd_check(
        value, lambda m: reverse_coherent_information_gradient(phi, m), rho, rng
    )


def test_gradient_base_e_scaling():
    rng = np.random.default_rng(3)
    phi = random_channel(2, 2, 2, rng)
    rho = random_density_matrix(2, rng).mat
    g2 = coherent_information_gradient(phi, rho, base=2.0)
    ge = coherent_information_gradient(phi, rho, base=math.e)
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


def test_project_ppt_fixes_ppt_states():
    rng = np.random.default_rng(9)
    ra = random_density_matrix(2, rng)
    rb = random_density_matrix(2, rng)
    sep = tensor(ra.mat, rb.mat)
    proj = project_ppt(sep, (2, 2))
    assert np.allclose(proj, sep, atol=1e-8)


def test_project_ppt_output_is_ppt_density():
    bell = maximally_entangled(2).to_density()
    proj = project_ppt(bell.mat, (2, 2))
    assert np.isclose(np.trace(proj).real, 1.0, atol=1e-8)
    assert np.linalg.eigvalsh(proj).min() >= -1e-8
    assert np.linalg.eigvalsh(partial_transpose(proj, (2, 2))).min() >= -1e-8


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
    boundary = DensityMatrix(
        0.5 * bell.mat + 0.5 * (np.eye(4) - bell.mat) / 3, dims=(2, 2)
    )
    assert cert.value <= relative_entropy(bell, boundary) + 1e-9


def test_ree_needs_dims():
    with pytest.raises(ValueError, match="dims"):
        ree_ppt_lower(chaotic_state(4))


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
    sig = DensityMatrix(project_ppt(bell.mat, (2, 2)), dims=(2, 2))
    assert cert.value <= trace_norm(bell.mat - sig.mat) + 1e-9


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
    return lambda: next(it)


def test_drive_stops_when_no_improving_move():
    assert _drive(_scripted([1.0, 1.0, None]), 50) == (True, 3)


def test_drive_stops_after_stall_limit():
    small = [_TOL / 2] * _STALL_LIMIT
    assert _drive(_scripted([1.0, *small]), 50) == (True, 1 + _STALL_LIMIT)
    # a gain at or above the tolerance resets the count
    assert _drive(_scripted([*small[1:], _TOL, *small]), 50) == (True, 2 * _STALL_LIMIT)


def test_drive_reports_exhausted_iterations():
    assert _drive(lambda: 1.0, 7) == (False, 7)
    assert _drive(_scripted([]), 0) == (False, 0)


@pytest.mark.parametrize("field", ["restarts", "max_iters"])
def test_config_rejects_negative_limits(field):
    with pytest.raises(ValueError, match=field):
        OptimizerConfig(**{field: -1})


def test_zero_iterations_evaluate_start_points_only():
    cert = maximize_coherent_information(erasure(3, 0.2), OptimizerConfig(restarts=0, max_iters=0))
    assert (cert.iterations, cert.converged, cert.history) == (0, False, (cert.value,))
    assert np.isclose(cert.value, 0.6 * LOG2_3, atol=1e-12)


def test_ascent_counts_the_failed_step_only_when_nothing_improves():
    rho = np.eye(2, dtype=complex) / 2
    flat = _single_ascent(lambda r: 0.0, np.zeros_like, rho, _FAST)
    assert flat[2:] == ([0.0], True, 1)
    values = iter(range(1000))
    creeping = _single_ascent(lambda r: 1e-9 * next(values), np.zeros_like, rho, _FAST)
    assert creeping[3:] == (True, _STALL_LIMIT)
    assert len(creeping[2]) == _STALL_LIMIT + 1


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
