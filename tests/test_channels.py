"""Tests for Kraus channels, dilations, complements, and the Choi form.

The erasure channel doubles as the main oracle: its action, complement,
coherent information, and reverse coherent information all have closed
forms that the generic machinery must reproduce.
"""

import math

import numpy as np
import pytest

from distcert import (
    DensityMatrix,
    apply_channel,
    basis_state,
    binary_entropy,
    channel_coherent_information,
    channel_from_dict,
    channel_to_dict,
    chaotic_state,
    choi,
    coherent_information,
    complement,
    completely_depolarizing,
    depolarizing,
    erasure,
    identity_embedding,
    load_channel,
    mutual_information,
    partial_trace,
    purify,
    random_channel,
    random_density_matrix,
    reverse_coherent_information,
    save_channel,
    stinespring,
    tensor,
    tensor_with_identity,
    trace_norm,
    von_neumann_entropy,
)
from distcert.channels import KrausChannel, adjoint_apply_mat, apply_mat


def _random_state(d, seed):
    return random_density_matrix(d, np.random.default_rng(seed))


def test_erasure_block_action():
    rho = _random_state(3, 1)
    out = apply_channel(erasure(3, 0.3), rho)
    expected = np.zeros((4, 4), dtype=complex)
    expected[:3, :3] = 0.7 * rho.mat
    expected[3, 3] = 0.3
    assert np.allclose(out.mat, expected, atol=1e-12)


def test_erasure_zero_probability_is_identity_embedding():
    rho = _random_state(2, 2)
    a = apply_channel(erasure(2, 0.0), rho)
    b = apply_channel(identity_embedding(2, 3), rho)
    assert np.allclose(a.mat, b.mat, atol=1e-12)


def test_erasure_shape_and_validation():
    phi = erasure(2, 0.4)
    assert phi.d_in == 2
    assert phi.d_out == 3
    assert len(phi.kraus) == 3
    with pytest.raises(ValueError):
        erasure(1, 0.4)
    with pytest.raises(ValueError):
        erasure(2, 1.5)


def test_erasure_complement_swaps_probability():
    # The complement of the erasure channel acts like erasure with 1 - p:
    # output entropies agree on every input.
    rho = _random_state(3, 3)
    comp = complement(erasure(3, 0.3))
    swapped = erasure(3, 0.7)
    h_comp = von_neumann_entropy(apply_channel(comp, rho))
    h_swap = von_neumann_entropy(apply_channel(swapped, rho))
    assert np.isclose(h_comp, h_swap, atol=1e-8)


def test_double_complement_preserves_output_entropy():
    rng = np.random.default_rng(4)
    for _ in range(5):
        phi = random_channel(3, 2, 3, rng)
        rho = random_density_matrix(3, rng)
        back = complement(complement(phi))
        h1 = von_neumann_entropy(apply_channel(phi, rho))
        h2 = von_neumann_entropy(apply_channel(back, rho))
        assert np.isclose(h1, h2, atol=1e-8)


def test_complement_coherent_information_antisymmetry():
    rng = np.random.default_rng(5)
    for _ in range(5):
        phi = random_channel(3, 3, 2, rng)
        rho = random_density_matrix(3, rng)
        a = channel_coherent_information(phi, rho)
        b = channel_coherent_information(complement(phi), rho)
        assert np.isclose(a, -b, atol=1e-8)


def test_erasure_coherent_information_closed_form():
    for p in (0.1, 0.3, 0.5, 0.8):
        phi = erasure(3, p)
        for seed in (6, 7):
            rho = _random_state(3, seed)
            want = (1 - 2 * p) * von_neumann_entropy(rho)
            assert np.isclose(channel_coherent_information(phi, rho), want, atol=1e-10)


def test_erasure_reverse_coherent_information_closed_form():
    for p in (0.1, 0.3, 0.6):
        phi = erasure(3, p)
        rho = _random_state(3, 8)
        want = (1 - p) * von_neumann_entropy(rho) - binary_entropy(p)
        assert np.isclose(reverse_coherent_information(phi, rho), want, atol=1e-10)


def test_completely_depolarizing_never_has_positive_coherent_information():
    phi = completely_depolarizing(3)
    rng = np.random.default_rng(9)
    for _ in range(20):
        rho = random_density_matrix(3, rng)
        assert channel_coherent_information(phi, rho) <= 1e-12


def test_depolarizing_action_closed_form():
    rho = _random_state(3, 10)
    for lam in (0.0, 0.4, 1.0):
        out = apply_channel(depolarizing(3, lam), rho)
        want = (1 - lam) * rho.mat + lam * np.eye(3) / 3
        assert np.allclose(out.mat, want, atol=1e-12)


def test_coherent_information_equals_mutual_information_minus_entropy():
    # I_c(Phi, rho) = I(B:R) - H(rho) on any purification of the input.
    rng = np.random.default_rng(11)
    for _ in range(10):
        phi = random_channel(3, 3, 3, rng)
        rho = random_density_matrix(3, rng)
        ext = tensor_with_identity(phi, 3)
        out = apply_channel(ext, purify(rho).to_density()).with_dims((3, 3))
        want = mutual_information(out) - von_neumann_entropy(rho)
        assert np.isclose(channel_coherent_information(phi, rho), want, atol=1e-8)


def test_coherent_information_transfer_to_output_reference_state():
    # On the channel output joined with the purifying reference, the
    # coherent information toward the output equals I_c and the one toward
    # the reference equals the reverse coherent information.
    rng = np.random.default_rng(12)
    phi = random_channel(3, 2, 3, rng)
    rho = random_density_matrix(3, rng)
    ext = tensor_with_identity(phi, 3)
    out = apply_channel(ext, purify(rho).to_density()).with_dims((2, 3))
    assert np.isclose(
        coherent_information(out, "b->a"),
        channel_coherent_information(phi, rho),
        atol=1e-8,
    )
    assert np.isclose(
        coherent_information(out, "a->b"),
        reverse_coherent_information(phi, rho),
        atol=1e-8,
    )


def test_stinespring_dilation_reproduces_channel():
    rng = np.random.default_rng(13)
    phi = random_channel(3, 2, 2, rng)
    v = stinespring(phi)
    assert v.shape == (phi.d_out * phi.d_env, phi.d_in)
    assert np.allclose(v.conj().T @ v, np.eye(3), atol=1e-10)
    rho = random_density_matrix(3, rng)
    lifted = v @ rho.mat @ v.conj().T
    lifted = DensityMatrix(lifted, (phi.d_out, phi.d_env))
    kept = partial_trace(lifted, "B")
    assert np.allclose(kept.mat, apply_mat(phi, rho.mat), atol=1e-12)
    env = partial_trace(lifted, "A")
    assert np.allclose(env.mat, apply_mat(complement(phi), rho.mat), atol=1e-12)


def test_choi_matches_index_sum():
    rng = np.random.default_rng(14)
    phi = random_channel(2, 3, 2, rng)
    j = np.zeros((6, 6), dtype=complex)
    for i in range(2):
        for k in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[i, k] = 1.0
            j += tensor(apply_mat(phi, unit), unit)
    got = choi(phi)
    # the normalized Choi state J / d_in, output factor first
    assert np.allclose(2 * got.mat, j, atol=1e-12)
    assert np.isclose(np.trace(got.mat).real, 1.0, atol=1e-10)
    assert got.dims == (phi.d_out, phi.d_in) == (3, 2)


def test_choi_of_identity_is_scaled_entangled_projector():
    from distcert import maximally_entangled

    got = choi(identity_embedding(2, 2))
    want = 2.0 * maximally_entangled(2).to_density().mat
    assert np.allclose(2 * got.mat, want, atol=1e-12)
    assert np.isclose(np.trace(got.mat).real, 1.0, atol=1e-10)
    assert got.dims == (2, 2)


def test_tensor_with_identity_acts_locally():
    rng = np.random.default_rng(15)
    phi = random_channel(2, 3, 2, rng)
    rho_a = random_density_matrix(2, rng)
    rho_b = random_density_matrix(2, rng)
    joint = DensityMatrix(tensor(rho_a.mat, rho_b.mat), dims=(2, 2))
    out = apply_channel(tensor_with_identity(phi, 2), joint)
    want = tensor(apply_mat(phi, rho_a.mat), rho_b.mat)
    assert np.allclose(out.mat, want, atol=1e-12)


def test_channel_dict_round_trip():
    phi = erasure(2, 0.35)
    back = channel_from_dict(channel_to_dict(phi))
    assert back.d_in == phi.d_in
    assert back.d_out == phi.d_out
    for a, b in zip(phi.kraus, back.kraus):
        assert np.allclose(a, b, atol=0)


def test_channel_file_round_trip(tmp_path):
    rng = np.random.default_rng(16)
    phi = random_channel(3, 2, 2, rng)
    path = tmp_path / "chan.json"
    save_channel(phi, str(path))
    back = load_channel(str(path))
    rho = random_density_matrix(3, rng)
    a = apply_channel(phi, rho)
    b = apply_channel(back, rho)
    assert np.allclose(a.mat, b.mat, atol=1e-12)


def test_channel_loading_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="malformed"):
        load_channel(str(bad))
    with pytest.raises(ValueError, match="invalid channel description"):
        channel_from_dict({"kraus": []})


def test_kraus_completeness_enforced():
    half = np.eye(2) * 0.5
    with pytest.raises(ValueError, match="completeness"):
        KrausChannel((half,), 2, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_kraus_channel_rejects_non_finite_entries(bad):
    ops = np.array([np.eye(2), np.zeros((2, 2))], dtype=complex)
    ops[1, 0, 1] = bad
    with pytest.raises(ValueError, match="Kraus operators have a non-finite entry"):
        KrausChannel(ops, 2, 2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: KrausChannel([], 2, 2), "a channel needs at least one Kraus operator"),
        (lambda: tensor_with_identity(erasure(2, 0.5), 0), "reference dimension must be at least 1"),
        (lambda: depolarizing(1, 0.5), "depolarizing needs d >= 2"),
        (lambda: depolarizing(2, 1.5), r"depolarizing strength must lie in \[0, 1\]"),
        (
            lambda: random_channel(4, 1, 2, np.random.default_rng(0)),
            r"d_out \* d_env must be at least d_in for an isometry",
        ),
        (
            lambda: channel_from_dict({"d_in": 2, "d_out": 2, "kraus": []}),
            "invalid channel description: empty Kraus list",
        ),
        (lambda: trace_norm(np.ones((2, 3))), r"expected a square matrix, got shape \(2, 3\)"),
    ],
    ids=[
        "no-kraus",
        "reference-dim-0",
        "depolarizing-d1",
        "depolarizing-1.5",
        "random-no-isometry",
        "empty-kraus-dict",
        "trace-norm-2x3",
    ],
)
def test_malformed_arguments_are_value_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_apply_channel_dimension_check():
    with pytest.raises(ValueError, match="does not match"):
        apply_channel(erasure(3, 0.2), chaotic_state(2))


def test_identity_embedding_validation():
    with pytest.raises(ValueError):
        identity_embedding(3, 2)
    out = apply_channel(identity_embedding(2, 4), basis_state(2, 1).to_density())
    assert np.isclose(out.mat[1, 1].real, 1.0, atol=1e-12)


def test_random_channel_complement_is_valid():
    rng = np.random.default_rng(17)
    phi = random_channel(4, 3, 2, rng)
    comp = complement(phi)
    assert comp.d_in == 4
    assert comp.d_out == phi.d_env
    # Constructing the complement revalidates Kraus completeness.
    rho = random_density_matrix(4, rng)
    assert np.isclose(np.trace(apply_mat(comp, rho.mat)).real, 1.0, atol=1e-10)


# ----- the Kraus tensor -----


def test_kraus_channel_stores_one_read_only_tensor():
    ops = np.array(erasure(2, 0.3).kraus)
    phi = KrausChannel(ops, 2, 3)
    assert phi.kraus.shape == (3, 3, 2)
    assert phi.kraus.dtype == complex
    assert phi.d_env == 3
    assert not phi.kraus.flags.writeable
    with pytest.raises(ValueError):
        phi.kraus[0, 0, 0] = 1.0
    ragged = [np.eye(2) / math.sqrt(2), np.ones((3, 2)) / 2]
    with pytest.raises(ValueError, match=r"Kraus operator shape \(3, 2\) does not match \(2, 2\)"):
        KrausChannel(ragged, 2, 2)


@pytest.mark.parametrize("d_in,d_out,d_env", [(2, 4, 3), (4, 2, 3), (3, 3, 1)])
def test_kraus_tensor_operations_match_per_operator_sums(d_in, d_out, d_env):
    rng = np.random.default_rng(d_in * 100 + d_out * 10 + d_env)
    phi = random_channel(d_in, d_out, d_env, rng)
    ops = [np.array(k) for k in phi.kraus]
    m = rng.normal(size=(d_in, d_in)) + 1j * rng.normal(size=(d_in, d_in))
    w = rng.normal(size=(d_out, d_out)) + 1j * rng.normal(size=(d_out, d_out))

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    close(apply_mat(phi, m), sum(k @ m @ k.conj().T for k in ops))
    close(adjoint_apply_mat(phi, w), sum(k.conj().T @ w @ k for k in ops))
    v = sum(np.kron(k, np.eye(d_env)[:, [e]]) for e, k in enumerate(ops))
    close(stinespring(phi), v)
    comp = complement(phi)
    assert comp.kraus.shape == (d_out, d_env, d_in)
    close(comp.kraus, np.array([v[b * d_env : (b + 1) * d_env] for b in range(d_out)]))
    close(d_in * choi(phi).mat, sum(np.outer(k.reshape(-1), k.reshape(-1).conj()) for k in ops))


def test_channel_decoding_rejects_malformed_pairs():
    good = channel_to_dict(identity_embedding(2, 2))
    assert np.array_equal(channel_from_dict(good).kraus, np.eye(2)[None])
    one, zero = [1, 0], [0, 0]
    malformed = (
        [[[["1", "0"], zero], [zero, one]]],  # strings are not numbers
        [[[[1, 0, 0], zero], [zero, one]]],  # a triple is not an [re, im] pair
        [[[one, zero], [zero]]],  # ragged rows
    )
    for kraus in malformed:
        with pytest.raises(ValueError, match="malformed complex matrix encoding"):
            channel_from_dict({**good, "kraus": kraus})
    with pytest.raises(ValueError, match="does not match declared"):
        channel_from_dict({**good, "kraus": [[[one, zero]]]})
