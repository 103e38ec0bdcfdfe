"""Tests for Kraus channels, complements, and the Choi form.

The erasure channel doubles as the main oracle: its action, complement,
coherent information, and reverse coherent information all have closed
forms that the generic machinery must reproduce.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest

from distcert import (
    DensityMatrix,
    PureState,
    binary_entropy,
    channel_coherent_information,
    channel_from_dict,
    channel_to_dict,
    choi,
    complement,
    completely_depolarizing,
    depolarizing,
    erasure,
    identity_embedding,
    load_channel,
    mutual_information,
    partial_trace,
    random_channel,
    random_density_matrix,
    reverse_coherent_information,
    save_channel,
    tensor,
    tensor_with_identity,
    trace_norm,
    von_neumann_entropy,
)
from distcert import channels as channels_module
from distcert.channels import KrausChannel, _coherent_information_mat, adjoint_apply_mat, apply_mat
from distcert.linalg import hermitian_eigen


def _random_state(d, seed):
    return random_density_matrix(d, np.random.default_rng(seed))


def _output(phi, rho, dims=None):
    """The channel's output state on ``rho``, split by ``dims``."""
    return DensityMatrix(apply_mat(phi, rho.mat), dims)


def _purification(rho):
    """vec(sqrt(rho)) on input (x) reference: tracing out the reference gives rho."""
    w, u = hermitian_eigen(rho.mat)
    root = (u * np.sqrt(np.maximum(w, 0.0))) @ u.conj().T
    return PureState(root.reshape(-1), (rho.dim, rho.dim)).to_density()


def test_erasure_block_action():
    rho = _random_state(3, 1)
    out = apply_mat(erasure(3, 0.3), rho.mat)
    expected = np.zeros((4, 4), dtype=complex)
    expected[:3, :3] = 0.7 * rho.mat
    expected[3, 3] = 0.3
    assert np.allclose(out, expected, atol=1e-12)


def test_erasure_zero_probability_is_identity_embedding():
    rho = _random_state(2, 2)
    a = apply_mat(erasure(2, 0.0), rho.mat)
    b = apply_mat(identity_embedding(2, 3), rho.mat)
    assert np.allclose(a, b, atol=1e-12)


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
    h_comp = von_neumann_entropy(_output(comp, rho))
    h_swap = von_neumann_entropy(_output(swapped, rho))
    assert np.isclose(h_comp, h_swap, atol=1e-8)


def test_double_complement_preserves_output_entropy():
    rng = np.random.default_rng(4)
    for _ in range(5):
        phi = random_channel(3, 2, 3, rng)
        rho = random_density_matrix(3, rng)
        back = complement(complement(phi))
        h1 = von_neumann_entropy(_output(phi, rho))
        h2 = von_neumann_entropy(_output(back, rho))
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
        out = apply_mat(depolarizing(3, lam), rho.mat)
        want = (1 - lam) * rho.mat + lam * np.eye(3) / 3
        assert np.allclose(out, want, atol=1e-12)


def test_coherent_information_equals_mutual_information_minus_entropy():
    # I_c(Phi, rho) = I(B:R) - H(rho) on any purification of the input.
    rng = np.random.default_rng(11)
    for _ in range(10):
        phi = random_channel(3, 3, 3, rng)
        rho = random_density_matrix(3, rng)
        ext = tensor_with_identity(phi, 3)
        out = _output(ext, _purification(rho), (3, 3))
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
    out = _output(ext, _purification(rho), (2, 3))
    h_out = von_neumann_entropy(out)
    assert np.isclose(
        von_neumann_entropy(partial_trace(out, "B")) - h_out,
        channel_coherent_information(phi, rho),
        atol=1e-8,
    )
    assert np.isclose(
        von_neumann_entropy(partial_trace(out, "A")) - h_out,
        reverse_coherent_information(phi, rho),
        atol=1e-8,
    )


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
    out = apply_mat(tensor_with_identity(phi, 2), joint.mat)
    want = tensor(apply_mat(phi, rho_a.mat), rho_b.mat)
    assert np.allclose(out, want, atol=1e-12)
    # an integral float reference dimension is read as that int
    assert np.array_equal(tensor_with_identity(phi, 2.0).kraus, tensor_with_identity(phi, 2).kraus)


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
    a = apply_mat(phi, rho.mat)
    b = apply_mat(back, rho.mat)
    assert np.allclose(a, b, atol=1e-12)


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


@pytest.mark.parametrize("d_in", [2.5, True, "2"], ids=["float", "bool", "str"])
def test_kraus_channel_rejects_non_integer_dimensions(d_in):
    with pytest.raises(ValueError, match=re.escape(f"d_in must be an integer, got {d_in!r}")):
        KrausChannel(np.eye(2)[None], d_in, 2)
    with pytest.raises(ValueError, match=re.escape(f"d_out must be an integer, got {d_in!r}")):
        KrausChannel(np.eye(2)[None], 2, d_in)


def test_kraus_channel_stores_integral_dimensions_as_int():
    phi = KrausChannel(np.eye(2)[None], 2.0, np.int64(2))
    assert (phi.d_in, phi.d_out) == (2, 2)
    assert type(phi.d_in) is int and type(phi.d_out) is int


@pytest.mark.parametrize(
    "make, floats, ints",
    [
        (erasure, (2.0, 0.1), (2, 0.1)),
        (depolarizing, (4.0, 0.2), (4, 0.2)),
        (identity_embedding, (2.0, 3.0), (2, 3)),
    ],
    ids=["erasure", "depolarizing", "identity"],
)
def test_zoo_reads_integral_float_dimensions_as_int(make, floats, ints):
    phi, want = make(*floats), make(*ints)
    assert np.array_equal(phi.kraus, want.kraus)
    assert (phi.d_in, phi.d_out) == (want.d_in, want.d_out)
    assert type(phi.d_in) is int and type(phi.d_out) is int


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
        (lambda: erasure(2.5, 0.1), "d must be an integer, got 2.5"),
        (lambda: depolarizing(True, 0.2), "d must be an integer, got True"),
        (lambda: identity_embedding(2, 3.5), "d_out must be an integer, got 3.5"),
        (lambda: tensor_with_identity(erasure(2, 0.5), 2.5), "d_ref must be an integer, got 2.5"),
        (lambda: tensor_with_identity(erasure(2, 0.5), True), "d_ref must be an integer, got True"),
    ],
    ids=[
        "no-kraus",
        "reference-dim-0",
        "depolarizing-d1",
        "depolarizing-1.5",
        "random-no-isometry",
        "empty-kraus-dict",
        "trace-norm-2x3",
        "erasure-d2.5",
        "depolarizing-d-true",
        "identity-d_out3.5",
        "reference-dim-2.5",
        "reference-dim-true",
    ],
)
def test_malformed_arguments_are_value_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_apply_channel_dimension_check():
    # the public evaluators check the state against d_in before applying the channel
    for evaluate in (channel_coherent_information, reverse_coherent_information):
        with pytest.raises(ValueError, match="state dimension 2 does not match d_in 3"):
            evaluate(erasure(3, 0.2), DensityMatrix(np.eye(2) / 2))


def test_identity_embedding_validation():
    with pytest.raises(ValueError):
        identity_embedding(3, 2)
    out = apply_mat(identity_embedding(2, 4), PureState(np.eye(2)[1]).to_density().mat)
    assert np.isclose(out[1, 1].real, 1.0, atol=1e-12)


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
    # every K_j^dag is made once, read-only, in the values and layout of a fresh conjugate transpose
    fresh = phi.kraus.conj().transpose(0, 2, 1)
    assert np.array_equal(phi._kraus_dag, fresh) and phi._kraus_dag.strides == fresh.strides
    assert not phi._kraus_dag.flags.writeable
    m = np.arange(4.0).reshape(2, 2) + 1j
    assert np.array_equal(
        apply_mat(phi, m), channels_module._kraus_sum(channels_module._stinespring_products(phi.kraus, m), fresh)
    )
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
    comp = complement(phi)
    assert comp.kraus.shape == (d_out, d_env, d_in)
    close(comp.kraus, np.array([v[b * d_env : (b + 1) * d_env] for b in range(d_out)]))
    close(d_in * choi(phi).mat, sum(np.outer(k.reshape(-1), k.reshape(-1).conj()) for k in ops))


def _stacked_apply(kraus, m):
    """The Kraus sum as one stacked product summed over k: the reference order."""
    return (kraus @ m[..., None, :, :] @ kraus.conj().transpose(0, 2, 1)).sum(-3)


def _stacked_adjoint(kraus, m):
    return (kraus.conj().transpose(0, 2, 1) @ m[..., None, :, :] @ kraus).sum(-3)


def _per_operator_apply(kraus, m):
    """The Kraus sum one operator at a time, each product taken on its own."""
    acc = kraus[0] @ m @ kraus[0].conj().T
    for a in kraus[1:]:
        acc += a @ m @ a.conj().T
    return acc


def _per_operator_adjoint(kraus, m):
    acc = kraus[0].conj().T @ m @ kraus[0]
    for a in kraus[1:]:
        acc += a.conj().T @ m @ a
    return acc


def _random_psd(rng, stack, d):
    g = rng.normal(size=stack + (d, d)) + 1j * rng.normal(size=stack + (d, d))
    return g @ g.conj().swapaxes(-1, -2)


def test_kraus_sums_are_bit_identical_to_the_stacked_sum():
    # Every Kraus sum, Ic's two outputs from their shared first products
    # included, has the per-operator loop's bits. A one-row first product
    # (d_out 1 on phi, d_env 1 on the complement, d_in 1 on the adjoint)
    # rounds differently from a row of one larger product, so the sweep
    # covers every side of dimension 1.
    rng = np.random.default_rng(16)
    for d_in in range(1, 9):
        for d_out in range(1, 9):
            for d_env in range(-(-d_in // d_out), 20):  # d_out * d_env >= d_in
                phi = random_channel(d_in, d_out, d_env, rng)
                comp = complement(phi)
                for stack in ((), (1,), (3,), (17,)):
                    m, x = _random_psd(rng, stack, d_in), _random_psd(rng, stack, d_out)
                    out, env = _coherent_information_mat(phi, comp, m, 2.0)[1]
                    for got, loop, ch, y in (
                        (out, _per_operator_apply, phi, m),
                        (apply_mat(phi, m), _per_operator_apply, phi, m),
                        (env, _per_operator_apply, comp, m),
                        (apply_mat(comp, m), _per_operator_apply, comp, m),
                        (adjoint_apply_mat(phi, x), _per_operator_adjoint, phi, x),
                    ):
                        assert np.array_equal(got, loop(ch.kraus, y))
                    for f, ref, y, side in (
                        (apply_mat, _stacked_apply, m, d_out),
                        (adjoint_apply_mat, _stacked_adjoint, x, d_in),
                    ):
                        got, want = f(phi, y), ref(phi.kraus, y)
                        assert got.shape == want.shape
                        if side > 1:
                            assert np.array_equal(got, want)
                        else:
                            # A 1x1 output makes k the only axis of the stacked
                            # sum, which numpy then adds pairwise instead of in
                            # order; the inputs are PSD, so the terms do not cancel.
                            np.testing.assert_allclose(got, want, rtol=4e-15, atol=0)


def _extra_bytes(call):
    """Peak memory one ``call()`` allocates beyond what was live before it, and its result."""
    call()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - before, out


def test_kraus_sums_need_one_first_product_stack():
    # erasure(16, 0.1) has 17 Kraus operators and the mirror ascent passes a
    # stack of 17 inputs: the first products K_k m are one (17, 17, 17, 16)
    # stack, 16x the output; the second products, added one at a time, would
    # be another 17x as a stack.
    phi = erasure(16, 0.1)
    rng = np.random.default_rng(0)
    m = rng.normal(size=(17, 16, 16)) + 1j * rng.normal(size=(17, 16, 16))
    w = rng.normal(size=(17, 17, 17)) + 1j * rng.normal(size=(17, 17, 17))
    for f, ch, x in ((apply_mat, phi, m), (adjoint_apply_mat, complement(phi), w)):
        extra, out = _extra_bytes(lambda: f(ch, x))
        first_products = len(x) * ch.kraus.size * x.itemsize
        assert extra <= first_products + 4 * out.nbytes, (f.__name__, extra / out.nbytes)


def test_choi_needs_no_product_stack():
    # erasure(16, 0.1): 17 Kraus vectors of length 272, so a stack of their
    # outer products is 17x the 272 x 272 output; the scaling and the
    # DensityMatrix checks take about 3x on their own
    extra, rho = _extra_bytes(lambda: choi(erasure(16, 0.1)))
    assert extra <= 5 * rho.mat.nbytes, extra / rho.mat.nbytes


def test_choi_is_the_stacked_outer_product_sum_bit_for_bit():
    # the outer products are added in k order, as the stacked sum over its
    # first axis adds them; at 1x1 (a 1->1 channel) numpy sums pairwise
    rng = np.random.default_rng(25)
    for d_in in range(1, 7):
        for d_out in range(1, 7):
            for d_env in range(-(-d_in // d_out), 12):
                if d_in * d_out == 1:
                    continue
                phi = random_channel(d_in, d_out, d_env, rng)
                vecs = phi.kraus.reshape(d_env, -1)
                j = (vecs[:, :, None] * vecs.conj()[:, None, :]).sum(0)
                assert np.array_equal(choi(phi).mat, DensityMatrix(j / d_in, (d_out, d_in)).mat)


def test_channel_decoding_rejects_malformed_pairs():
    good = channel_to_dict(identity_embedding(2, 2))
    assert np.array_equal(channel_from_dict(good).kraus, np.eye(2)[None])
    one, zero = [1, 0], [0, 0]
    malformed = (
        [[[["1", "0"], zero], [zero, one]]],  # strings are not numbers
        [[[[1, 0, 0], zero], [zero, one]]],  # a triple is not an [re, im] pair
        [[[one, zero], [zero]]],  # ragged rows
        [[[[True, False], [False, False]], [[False, False], [True, False]]]],  # booleans
        [[[[True, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]],  # one boolean, read as 1.0 by numpy
    )
    for kraus in malformed:
        with pytest.raises(ValueError, match="malformed complex matrix encoding"):
            channel_from_dict({**good, "kraus": kraus})
    with pytest.raises(ValueError, match="does not match declared"):
        channel_from_dict({**good, "kraus": [[[one, zero]]]})
