"""Tests for entropies and the continuity-bound correction term.

Closed-form reference values were computed by hand from the defining
formulas (h2(x) = -x log2 x - (1-x) log2(1-x) and friends) and frozen
here as literals.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distcert import (
    DensityMatrix,
    PureState,
    binary_entropy,
    g_correction,
    max_coherent_information,
    maximally_entangled,
    mutual_information,
    random_density_matrix,
    partial_trace,
    tensor,
    von_neumann_entropy,
)
from distcert.entropy import _entropy_mat, _eta
from distcert.linalg import _eigvalsh, hermitian_log


def test_binary_entropy_reference_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert np.isclose(binary_entropy(1 / 3), math.log2(3) - 2 / 3, atol=1e-14)
    assert np.isclose(binary_entropy(0.3), 0.8812908992306927, atol=1e-15)
    assert np.isclose(binary_entropy(0.2), 0.7219280948873623, atol=1e-15)
    assert np.isclose(binary_entropy(1 / 6), 0.6500224216483541, atol=1e-15)


def test_binary_entropy_rejects_outside_unit_interval():
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


def test_nan_and_infinite_arguments_are_refused():
    with pytest.raises(ValueError, match="nan outside"):
        binary_entropy(math.nan)
    # an array names one offending entry, not the whole array
    with pytest.raises(ValueError, match=r"argument 1\.5 outside"):
        binary_entropy(np.array([0.2, 1.5, 2.5, math.nan]))
    for x in (math.nan, math.inf, np.array([0.5, math.inf])):
        with pytest.raises(ValueError, match="correction argument"):
            g_correction(x)
    assert g_correction(-math.inf) == 0.0


def _eta_scatter(p, base):
    """-p log p the way ``_eta`` once wrote it, the reference for its bits: a
    zero array with the positive entries gathered, mapped and scattered back."""
    p = np.asarray(p, dtype=float)
    out = np.zeros_like(p)
    pos = p > 0.0
    out[pos] = -p[pos] * (np.log2(p[pos]) if base == 2.0 else np.log(p[pos]))
    return out


def _h_reference(x, base):
    """h(x) as a scalar: clamp, then sum -p log p over the pair (x, 1-x)."""
    x = min(max(x, 0.0), 1.0)
    return float(_eta_scatter(np.array([x, 1.0 - x]), base).sum())


def _g_reference(x, base):
    return 0.0 if x <= 0.0 else float((1.0 + x) * _h_reference(x / (1.0 + x), base))


_UNIT_GRID = [0.0, 1.0, 5e-324, 1e-13, 1e-12, 0.3, 0.5, 1.0 - 1e-12, 1.0 - 1e-13,
              float(np.nextafter(1.0, 0.0)), -1e-13, -0.0, 1.0 + 1e-13]
_GAP_GRID = [-1e300, -3.0, -1e-13, -0.0, 0.0, 5e-324, 1e-12, 0.2, 1.0, 4.0, 1e6, 1e300]


@pytest.mark.parametrize("base", [2.0, math.e])
@pytest.mark.parametrize(
    "fn, reference, grid",
    [(binary_entropy, _h_reference, _UNIT_GRID), (g_correction, _g_reference, _GAP_GRID)],
    ids=["binary_entropy", "g_correction"],
)
def test_array_argument_gives_the_scalar_results_bit_for_bit(fn, reference, grid, base):
    scalars = [fn(x, base) for x in grid]
    assert all(type(v) is float for v in scalars)
    assert scalars == [reference(x, base) for x in grid]
    got = fn(np.array(grid), base)
    assert got.shape == (len(grid),)
    assert got.tolist() == scalars
    assert np.signbit(got).tolist() == np.signbit(scalars).tolist()
    one = fn(np.array(grid[-1:]), base)
    assert one.shape == (1,) and one[0] == scalars[-1]


def _g_scatter(x, base):
    """g the way ``g_correction`` once wrote it, with h built from ``_eta_scatter``."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0.0
    xp = x[pos]
    q = np.clip(xp / (1.0 + xp), 0.0, 1.0)
    out[pos] = (1.0 + xp) * (_eta_scatter(q, base) + _eta_scatter(1.0 - q, base))
    return out if out.ndim else float(out)


def _bits(a):
    """IEEE bit patterns: unlike ==, they tell -0.0 from +0.0."""
    return np.asarray(a, dtype=float).view(np.uint64).tolist()


_ETA_GRID = [0.0, -0.0, -5e-11, 5e-324, 1e-300, 0.5, 1.0, 1.0 + 1e-12]
_G_GRID = [0.0, -0.0, -1.0, 5e-324, 1e-300, 0.3, 1e300, 1.7e308]


@pytest.mark.parametrize("base", [2.0, math.e])
@pytest.mark.parametrize(
    "fn, reference, grid",
    [(_eta, _eta_scatter, _ETA_GRID), (g_correction, _g_scatter, _G_GRID)],
    ids=["eta", "g_correction"],
)
def test_masked_maps_give_the_scatter_forms_bits(fn, reference, grid, base):
    # each entry as a float, the grid as a 1-D array, and an (S, n) stack of it
    for arg in [*grid, np.array(grid), np.array([grid, grid[::-1], grid])]:
        assert _bits(fn(arg, base)) == _bits(reference(arg, base)), arg


def test_entropy_mat_counts_negative_dust_as_zero_bit_for_bit():
    # eigh's dust down to -1e-10 reaches _eta unclipped and adds +0.0, as a clipped 0 does
    dusty = np.diag([-5e-11, 0.25, 0.75 + 5e-11])
    clipped = np.diag([0.0, 0.25, 0.75 + 5e-11])
    assert _eigvalsh(dusty).tolist() == np.diag(dusty).tolist()
    for base in (2.0, math.e):
        want = _entropy_mat(clipped, base)
        assert _bits(want) == _bits(_eta_scatter(np.diag(clipped), base).sum())
        assert _bits(_entropy_mat(dusty, base)) == _bits(want)
        assert _bits(_entropy_mat(np.array([dusty, clipped]), base)) == _bits([want, want])
    with pytest.raises(ValueError, match="not PSD"):
        _entropy_mat(np.diag([-2e-6, 1.0]), 2.0)


def test_binary_entropy_base_e():
    want = -(0.3 * math.log(0.3) + 0.7 * math.log(0.7))
    assert np.isclose(binary_entropy(0.3, base=math.e), want, atol=1e-15)


def test_g_correction_reference_values():
    assert g_correction(0.0) == 0.0
    assert g_correction(-0.5) == 0.0
    assert np.isclose(g_correction(0.2), 0.7800269059780252, atol=1e-15)
    assert np.isclose(g_correction(0.5), 1.3774437510817343, atol=1e-15)
    assert g_correction(1.0) == 2.0
    assert np.isclose(g_correction(0.25), 0.9024101186092028, atol=1e-15)


def test_g_correction_algebraic_identity():
    # g(x) = (1+x) log2(1+x) - x log2(x) for x > 0.
    for x in (0.05, 0.3, 0.5, 1.2, 4.0):
        want = (1 + x) * math.log2(1 + x) - x * math.log2(x)
        assert np.isclose(g_correction(x), want, atol=1e-12)


@given(st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_binary_entropy_symmetric_and_bounded(x):
    h = binary_entropy(x)
    assert 0.0 <= h <= 1.0 + 1e-15
    assert np.isclose(h, binary_entropy(1.0 - x), atol=1e-12)


@given(st.floats(min_value=0.0, max_value=50.0), st.floats(min_value=0.0, max_value=50.0))
@settings(max_examples=200, deadline=None)
def test_g_correction_nondecreasing(x, y):
    lo, hi = sorted((x, y))
    assert g_correction(lo) <= g_correction(hi) + 1e-12


def test_spectrum_entropy_ignores_zeros():
    # 0 log 0 = 0: a zero eigenvalue adds nothing
    assert von_neumann_entropy(DensityMatrix(np.diag([0.5, 0.5, 0.0]))) == 1.0
    assert von_neumann_entropy(DensityMatrix(np.diag([1.0]))) == 0.0


def test_von_neumann_entropy_extremes():
    assert von_neumann_entropy(PureState(np.eye(4)[0]).to_density()) <= 1e-12
    assert np.isclose(von_neumann_entropy(DensityMatrix(np.eye(8) / 8)), 3.0, atol=1e-12)
    assert np.isclose(von_neumann_entropy(DensityMatrix(np.eye(3) / 3)), math.log2(3), atol=1e-12)


def test_entropy_base_covariance():
    rng = np.random.default_rng(5)
    rho = random_density_matrix(5, rng)
    s2 = von_neumann_entropy(rho, base=2.0)
    se = von_neumann_entropy(rho, base=math.e)
    assert np.isclose(se, s2 * math.log(2), atol=1e-12)
    with pytest.raises(ValueError, match="base"):
        von_neumann_entropy(rho, base=10.0)


def test_mutual_information_vanishes_on_products():
    rng = np.random.default_rng(9)
    ra = random_density_matrix(2, rng)
    rb = random_density_matrix(3, rng)
    joint = DensityMatrix(tensor(ra.mat, rb.mat), dims=(2, 3))
    assert abs(mutual_information(joint)) <= 1e-10


def test_mutual_information_of_maximally_entangled():
    rho = maximally_entangled(4).to_density()
    assert np.isclose(mutual_information(rho), 4.0, atol=1e-10)


def test_mutual_information_equals_divergence_to_marginals():
    rng = np.random.default_rng(10)
    for _ in range(5):
        rho = random_density_matrix(6, rng, dims=(2, 3))
        marginals = DensityMatrix(
            tensor(partial_trace(rho, "B").mat, partial_trace(rho, "A").mat), rho.dims
        )
        # both states are full rank, so the divergence is tr rho (log rho - log marginals)
        log_ratio = hermitian_log(rho.mat) - hermitian_log(marginals.mat)
        divergence = np.trace(rho.mat @ log_ratio).real / math.log(2)
        assert np.isclose(mutual_information(rho), divergence, atol=1e-8)


def test_coherent_information_directions():
    # I(A>B) = H(B) - H(AB) and I(B>A) = H(A) - H(AB)
    rho = maximally_entangled(3).to_density()
    h_ab = von_neumann_entropy(rho)
    assert np.isclose(von_neumann_entropy(partial_trace(rho, "A")) - h_ab, math.log2(3), atol=1e-10)
    assert np.isclose(von_neumann_entropy(partial_trace(rho, "B")) - h_ab, math.log2(3), atol=1e-10)
    assert np.isclose(max_coherent_information(rho), math.log2(3), atol=1e-10)


def test_coherent_information_nonpositive_on_separable():
    # For separable states both coherent informations are <= 0.
    rng = np.random.default_rng(12)
    for _ in range(5):
        ra = random_density_matrix(2, rng)
        rb = random_density_matrix(2, rng)
        joint = DensityMatrix(tensor(ra.mat, rb.mat), dims=(2, 2))
        assert max_coherent_information(joint) <= 1e-10


@pytest.mark.parametrize(
    "quantity",
    [mutual_information, pytest.param(max_coherent_information, id="coherent_information")],
)
def test_bipartite_quantities_in_an_unknown_base_are_a_value_error(quantity):
    # von_neumann_entropy, which both call, checks the base
    with pytest.raises(ValueError, match="base must be 2 or e"):
        quantity(maximally_entangled(2).to_density(), base=10.0)


def test_coherent_information_needs_dims():
    with pytest.raises(ValueError, match="dims"):
        max_coherent_information(DensityMatrix(np.eye(4) / 4))
