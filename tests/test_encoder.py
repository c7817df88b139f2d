"""Encoder contracts: attention identities, spectral oracle, GNN symmetries."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from sparkpde import rng
from sparkpde.autodiff import Tensor, square, tensor_sum
from sparkpde.config import PretrainSection
from sparkpde.encoder import (
    GnnEncoderWeights,
    GnnLayer,
    MlpDecoderWeights,
    channel_attention,
    gnn_encode,
    init_channel_attention,
    init_encoder_stack,
    init_gnn_encoder,
    init_mlp_decoder,
    reconstruct,
)
from sparkpde.errors import ContractViolation
from sparkpde.grids import GridGraph, retained_mode_indices

from helpers import check_gradients, direct_spectral_mix


@pytest.fixture()
def grid():
    return GridGraph(8, 8)


def _weights(grid, d_obs=2, d_delta=1, hidden=4, k_max=2, seed=5):
    gen = rng.substream(seed, "test/attn")
    return init_channel_attention(gen, d_obs, d_delta, hidden, grid, k_max)


def test_zero_gates_give_residual_identity(grid):
    w = _weights(grid)
    w.w2_1.data[:] = 0.0
    w.w2_2.data[:] = 0.0
    x = rng.substream(1, "x").normal_array((grid.n_nodes, 2))
    out = channel_attention(x, np.array([0.3]), w, grid)
    np.testing.assert_array_equal(out.data, x)


def test_unit_gate_identity_g1_doubles_input(grid):
    w = _weights(grid)
    w.w2_1.data[:] = 0.0
    w.b2_1.data[:] = 1.0  # a_1 = ones
    w.w2_2.data[:] = 0.0  # a_2 = 0
    w.g1.data[:] = np.eye(2)
    w.g2_real.data[:] = 0.0
    w.g2_imag.data[:] = 0.0
    x = rng.substream(2, "x").normal_array((grid.n_nodes, 2))
    out = channel_attention(x, np.array([0.3]), w, grid)
    np.testing.assert_allclose(out.data, 2.0 * x, atol=1e-12)


def test_spectral_branch_matches_dense_dft_oracle(grid):
    # Isolate g2: a_2 = ones, a_1 = 0, then compare h - x against a direct
    # O(N^2) DFT implementation of the truncated spectral convolution.
    d, k_max = 2, 2
    w = _weights(grid, d_obs=d, k_max=k_max)
    w.w2_1.data[:] = 0.0
    w.b2_1.data[:] = 0.0
    w.w2_2.data[:] = 0.0
    w.b2_2.data[:] = 1.0
    x = rng.substream(3, "x").normal_array((grid.n_nodes, d))
    out = channel_attention(x, np.array([0.5]), w, grid).data - x

    weights = w.g2_real.data + 1j * w.g2_imag.data
    mode_idx = retained_mode_indices(grid.height, grid.width, k_max)
    expected = direct_spectral_mix(x, weights, mode_idx, grid.height, grid.width)
    np.testing.assert_allclose(out, expected, atol=1e-8)


def test_delta_sensitivity(grid):
    w = _weights(grid)
    x = rng.substream(4, "x").normal_array((grid.n_nodes, 2))
    out_a = channel_attention(x, np.array([0.2]), w, grid).data
    out_b = channel_attention(x, np.array([0.9]), w, grid).data
    assert np.max(np.abs(out_a - out_b)) > 1e-8


def test_batched_matches_per_sample(grid):
    w = _weights(grid)
    gen = rng.substream(6, "x")
    xs = gen.normal_array((3, grid.n_nodes, 2))
    deltas = gen.normal_array((3, 1))
    batched = channel_attention(xs, deltas, w, grid).data
    for i in range(3):
        single = channel_attention(xs[i], deltas[i], w, grid).data
        np.testing.assert_allclose(batched[i], single, atol=1e-12)


def test_channel_attention_shape_errors(grid):
    w = _weights(grid)
    with pytest.raises(ContractViolation):
        channel_attention(np.zeros((7, 2)), np.array([0.1]), w, grid)
    with pytest.raises(ContractViolation):
        channel_attention(np.zeros((grid.n_nodes, 2)), np.array([0.1, 0.2]), w, grid)


def test_channel_attention_gradients(grid):
    small = GridGraph(4, 4)
    gen = rng.substream(7, "grad")
    w = init_channel_attention(gen, 2, 1, 3, small, k_max=1)
    x0 = gen.normal_array((small.n_nodes, 2))
    d0 = np.array([0.4])
    values = {name: t.data.copy() for name, t in w.params().items()}
    values["x"] = x0

    def loss(p):
        weights = copy.copy(w)
        for name, tensor in p.items():
            if name != "x":
                setattr(weights, name.split(".")[-1], tensor)
        out = channel_attention(p["x"], Tensor(d0), weights, small)
        return tensor_sum(square(out))

    check_gradients(loss, values)


def test_gnn_translation_symmetry(grid):
    gen = rng.substream(8, "gnn")
    w = init_gnn_encoder(gen, 2, 5, 3, n_layers=2)
    x = np.tile(np.array([0.7, -0.2]), (grid.n_nodes, 1))
    out = gnn_encode(x, grid, w).data
    np.testing.assert_allclose(out - out[0], 0.0, atol=1e-12)


def test_gnn_aggregate_only_matches_dense_oracle(grid):
    d_in, d_out = 2, 3
    gen = rng.substream(9, "gnn2")
    proj = gen.normal_array((d_in, d_out))
    combine = np.zeros((2 * d_in, d_out))
    combine[d_in:, :] = proj  # use only the aggregated half
    layer = GnnLayer(
        combine_w=Tensor(combine, requires_grad=True, name="g.w"),
        combine_b=Tensor(np.zeros(d_out), requires_grad=True, name="g.b"),
        resid_w=Tensor(np.zeros((d_in, d_out)), requires_grad=True, name="g.r"),
    )
    w = GnnEncoderWeights(layers=[layer], activation="identity")
    x = gen.normal_array((grid.n_nodes, d_in))
    out = gnn_encode(x, grid, w).data
    expected = grid.adjacency.toarray() @ x @ proj
    np.testing.assert_allclose(out, expected, atol=1e-10)


def _permuted_grid(grid, perm):
    from scipy import sparse

    n = grid.n_nodes
    p_mat = np.zeros((n, n))
    p_mat[np.arange(n), perm] = 1.0
    permuted = copy.copy(grid)
    a_perm = sparse.csr_matrix(p_mat @ grid.adjacency.toarray() @ p_mat.T)
    permuted.adjacency = a_perm
    permuted.adjacency_t = a_perm.T.tocsr()
    return permuted


def test_gnn_permutation_equivariance_bit_exact_single_layer():
    # Dyadic inputs and weights make every pre-activation sum exact, so one
    # layer is equivariant bit-for-bit even though the permuted adjacency
    # sums neighbor terms in a different order.
    grid = GridGraph(4, 4)
    n = grid.n_nodes
    gen = rng.substream(10, "perm")
    quant = lambda a: np.round(a * 8.0) / 8.0
    w = init_gnn_encoder(gen, 2, 4, 3, n_layers=1)
    for t in w.params().values():
        t.data = quant(t.data)
    x = quant(gen.normal_array((n, 2)))

    perm_list = list(range(n))
    rng.substream(11, "shuffle-perm").shuffle(perm_list)
    perm = np.array(perm_list)

    out = gnn_encode(x, grid, w).data
    out_perm = gnn_encode(x[perm], _permuted_grid(grid, perm), w).data
    assert out_perm.tobytes() == out[perm].tobytes()


def test_gnn_permutation_equivariance_deep_stack():
    # Beyond one nonlinearity the reordered sums differ in the last ulp, so
    # the deep-stack check uses a tight float tolerance instead of bits.
    grid = GridGraph(4, 4)
    n = grid.n_nodes
    gen = rng.substream(20, "perm-deep")
    w = init_gnn_encoder(gen, 2, 4, 3, n_layers=3)
    x = gen.normal_array((n, 2))
    perm_list = list(range(n))
    rng.substream(21, "shuffle-deep").shuffle(perm_list)
    perm = np.array(perm_list)
    out = gnn_encode(x, grid, w).data
    out_perm = gnn_encode(x[perm], _permuted_grid(grid, perm), w).data
    np.testing.assert_allclose(out_perm, out[perm], atol=1e-12)


def test_gnn_gradients():
    small = GridGraph(4, 4)
    gen = rng.substream(12, "gnn-grad")
    w = init_gnn_encoder(gen, 2, 3, 2, n_layers=2)
    values = {name: t.data.copy() for name, t in w.params().items()}
    x0 = gen.normal_array((small.n_nodes, 2))

    def loss(p):
        layers = []
        for layer_idx, layer in enumerate(w.layers):
            layers.append(
                GnnLayer(
                    combine_w=p[f"encoder.gnn.{layer_idx}.combine_w"],
                    combine_b=p[f"encoder.gnn.{layer_idx}.combine_b"],
                    resid_w=(
                        p[f"encoder.gnn.{layer_idx}.resid_w"]
                        if layer.resid_w is not None
                        else None
                    ),
                )
            )
        weights = GnnEncoderWeights(layers=layers, activation=w.activation)
        out = gnn_encode(Tensor(x0), small, weights)
        return tensor_sum(square(out))

    check_gradients(loss, values)


def test_reconstruct_zero_weights_gives_zero():
    gen = rng.substream(13, "dec")
    w = init_mlp_decoder(gen, 3, 4, 2)
    for t in w.params().values():
        t.data[:] = 0.0
    z = gen.normal_array((10, 3))
    out = reconstruct(z, w).data
    np.testing.assert_array_equal(out, np.zeros((10, 2)))


def test_reconstruct_identity_configuration():
    w = MlpDecoderWeights(
        w_a=Tensor(np.eye(3), name="d.wa"),
        b_a=Tensor(np.zeros(3), name="d.ba"),
        w_b=Tensor(np.eye(3), name="d.wb"),
        b_b=Tensor(np.zeros(3), name="d.bb"),
        activation="identity",
    )
    z = rng.substream(14, "dec2").normal_array((6, 3))
    np.testing.assert_array_equal(reconstruct(z, w).data, z)


def test_reconstruct_gradients():
    gen = rng.substream(15, "dec-grad")
    w = init_mlp_decoder(gen, 3, 4, 2)
    values = {name: t.data.copy() for name, t in w.params().items()}
    z0 = gen.normal_array((5, 3))

    def loss(p):
        weights = MlpDecoderWeights(
            w_a=p["encoder.decoder.w_a"],
            b_a=p["encoder.decoder.b_a"],
            w_b=p["encoder.decoder.w_b"],
            b_b=p["encoder.decoder.b_b"],
        )
        return tensor_sum(square(reconstruct(Tensor(z0), weights)))

    check_gradients(loss, values)


def test_full_stack_finite_gradients():
    grid = GridGraph(4, 4)
    gen = rng.substream(16, "stack")
    cfg = PretrainSection(d_latent=4, hidden=6, attention_hidden=3, k_max=1)
    stack = init_encoder_stack(gen, cfg, grid, d_obs=1, d_delta=1)
    x = gen.normal_array((grid.n_nodes, 1))
    from sparkpde.autodiff import Tape, backward

    with Tape() as tape:
        z = stack.encode(x, np.array([0.1]), grid)
        xr = reconstruct(z, stack.decoder)
        loss = tensor_sum(square(xr - Tensor(x)))
    grads = backward(loss, tape, params=stack.params().values())
    for g in grads.values():
        assert np.all(np.isfinite(g))
