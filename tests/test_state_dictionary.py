"""Quantization contracts, pretraining loss routing, Algorithm-1 training."""

from __future__ import annotations

import weakref

import numpy as np
import pytest

from sparkpde import rng, state_dictionary
from sparkpde.autodiff import Tape, Tensor, backward, square, tensor_sum
from sparkpde.autodiff.tensor import _record
from sparkpde.config import PretrainSection
from sparkpde.datagen import EpisodeDataset
from sparkpde.datagen.dataset import Episode
from sparkpde.errors import ContractViolation, NumericError
from sparkpde.grids import GridGraph
from sparkpde.state_dictionary import (
    codebook_perplexity,
    kmeans_plusplus,
    nearest_indices,
    new_codebook,
    pretrain,
    pretrain_loss,
    quantize,
)

from helpers import finite_difference


def test_nearest_of_two_codes():
    cb = new_codebook(np.array([[0.0, 0.0], [1.0, 1.0]]))
    result = quantize(np.array([[0.9, 1.2]]), cb)
    # squared distances: 2.25 vs 0.05
    assert result.indices.tolist() == [1]
    np.testing.assert_array_equal(result.codes.data, np.array([[1.0, 1.0]]))


def test_exact_match_gives_zero_loss_terms():
    cb = new_codebook(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, -1.0]]))
    h = Tensor(np.array([[2.0, -1.0]]))
    result = quantize(h, cb)
    assert result.indices.tolist() == [2]
    np.testing.assert_array_equal(result.straight_through.data, h.data)
    commit = np.sum((h.data - result.codes.data) ** 2)
    assert commit == 0.0


def test_equidistant_tie_breaks_to_lowest_index():
    cb = new_codebook(np.array([[0.0, 0.0], [1.0, 1.0]]))
    result = quantize(np.array([[0.5, 0.5]]), cb)
    assert result.indices.tolist() == [0]


def test_matches_brute_force_nearest_neighbor():
    gen = rng.substream(31, "bf")
    entries = gen.normal_array((64, 8))
    cb = new_codebook(entries)
    queries = gen.normal_array((500, 8))
    got = nearest_indices(queries, entries)
    expected = np.array(
        [int(np.argmin(np.sum((entries - q) ** 2, axis=1))) for q in queries]
    )
    np.testing.assert_array_equal(got, expected)


def test_quantize_idempotent_on_codebook_entries():
    gen = rng.substream(33, "idem")
    entries = gen.normal_array((16, 4))
    cb = new_codebook(entries)
    result = quantize(entries, cb)
    np.testing.assert_array_equal(result.indices, np.arange(16))
    np.testing.assert_array_equal(result.codes.data, entries)


def test_quantization_error_non_increasing_for_nested_codebooks():
    gen = rng.substream(35, "nested")
    base = gen.normal_array((8, 4))
    extra = gen.normal_array((8, 4))
    small = new_codebook(base)
    big = new_codebook(np.concatenate([base, extra]))
    queries = gen.normal_array((200, 4))
    err_small = np.sum((queries - small.embeddings.data[nearest_indices(queries, base)]) ** 2)
    nested = np.concatenate([base, extra])
    err_big = np.sum((queries - nested[nearest_indices(queries, nested)]) ** 2)
    assert err_big <= err_small + 1e-12


def test_usage_counting():
    # Every call counts each assignment; reset_usage starts the count again.
    cb = new_codebook(np.array([[0.0, 0.0], [1.0, 1.0]]))
    quantize(np.zeros((5, 2)), cb)
    quantize(np.ones((2, 3, 2)), cb)
    np.testing.assert_array_equal(cb.usage, [5, 6])
    cb.reset_usage()
    np.testing.assert_array_equal(cb.usage, [0, 0])


def test_quantize_errors():
    cb = new_codebook(np.array([[0.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(NumericError):
        quantize(np.array([[np.nan, 0.0]]), cb)
    with pytest.raises(ContractViolation):
        new_codebook(np.zeros((1, 2)))
    with pytest.raises(ContractViolation):
        quantize(np.zeros((3, 5)), cb)


def test_straight_through_gradient_contract():
    # d(loss)/dh through quantization equals d(loss)/dz as if z == h.
    gen = rng.substream(37, "st")
    entries = gen.normal_array((6, 3))
    h0 = gen.normal_array((4, 3))
    target = gen.normal_array((4, 3))

    def ad_grad():
        cb = new_codebook(entries)
        h = Tensor(h0.copy(), requires_grad=True, name="h")
        with Tape() as tape:
            q = quantize(h, cb)
            loss = tensor_sum(square(q.straight_through - Tensor(target)))
        return backward(loss, tape, params=[h])["h"]

    # Oracle: the STE copies dL/dz (at the quantized forward value) onto h,
    # i.e. the quantization step is treated as identity. Differentiate the
    # downstream loss around z = codes by finite differences.
    codes0 = entries[nearest_indices(h0, entries)]

    def downstream(arrays):
        return float(np.sum((arrays["z"] - target) ** 2))

    fd = finite_difference(downstream, {"z": codes0.copy()})["z"]
    np.testing.assert_allclose(ad_grad(), fd, rtol=1e-6, atol=1e-8)


def test_quantize_tape_holds_no_node_the_stop_gradient_cuts():
    # The straight-through offset codes - h is taken on the arrays: a
    # recorded sub node would get no cotangent past the stop-gradient, yet
    # keep its (..., D) output on the tape.
    gen = rng.substream(37, "st/tape")
    cb = new_codebook(gen.normal_array((6, 3)))
    h = Tensor(gen.normal_array((2, 4, 3)), requires_grad=True, name="h")
    with Tape() as tape:
        q = quantize(h, cb)
    assert [node.op for node in tape._nodes] == ["gather_rows", "reshape", "add"]
    assert q.straight_through.data.tobytes() == (h.data + (q.codes.data - h.data)).tobytes()


def test_quantize_frees_the_straight_through_offset(monkeypatch):
    # The offset codes - h is a stop-gradient constant of the add node, which
    # keeps only shapes: once quantize returns under a recording tape,
    # nothing holds the (..., D) array.
    offsets = []
    real = state_dictionary.ad.stop_gradient

    def watched(a):
        offsets.append(weakref.ref(a))
        return real(a)

    monkeypatch.setattr(state_dictionary.ad, "stop_gradient", watched)
    gen = rng.substream(38, "st/offset")
    cb = new_codebook(gen.normal_array((6, 3)))
    h = Tensor(gen.normal_array((2, 4, 3)), requires_grad=True, name="h")
    with Tape() as tape:
        q = quantize(h, cb)
    assert len(offsets) == 1 and offsets[0]() is None
    assert [node.op for node in tape._nodes] == ["gather_rows", "reshape", "add"]
    assert q.straight_through.requires_grad


def test_pretrain_loss_examples():
    x = Tensor(np.zeros((5, 2)))
    h = Tensor(np.ones((5, 3)))
    # x_hat == x and h == codes -> 0
    loss = pretrain_loss(x, x, h, h, mu=0.25, gamma=1.0)
    assert loss.item() == 0.0
    # h - codes a unit vector per node -> mu + gamma
    codes = Tensor(np.ones((5, 3)))
    unit = np.zeros((5, 3))
    unit[:, 0] = 1.0
    h2 = Tensor(np.ones((5, 3)) + unit)
    loss = pretrain_loss(x, x, h2, codes, mu=0.25, gamma=1.0)
    assert loss.item() == pytest.approx(1.25)


def test_pretrain_loss_gradient_routing():
    gen = rng.substream(39, "route")
    entries = gen.normal_array((4, 3))
    h0 = gen.normal_array((6, 3))
    x0 = gen.normal_array((6, 2))

    def run(mu, gamma):
        cb = new_codebook(entries)
        h = Tensor(h0.copy(), requires_grad=True, name="h")
        with Tape() as tape:
            q = quantize(h, cb)
            # decoder stub: take first two latent dims as the reconstruction
            x_hat = q.straight_through.reshape(6, 3)
            x_hat = tensor_sum(square(x_hat), axis=-1, keepdims=True)
            x_hat = x_hat * Tensor(np.ones((6, 2)) * 0.1)
            loss = pretrain_loss(Tensor(x0), x_hat, h, q.codes, mu, gamma)
        return backward(loss, tape, params=[h, cb.embeddings])

    # with mu = gamma = 0 the codebook receives exactly zero gradient
    grads = run(0.0, 0.0)
    np.testing.assert_array_equal(grads["codebook.embeddings"], np.zeros((4, 3)))
    assert np.any(grads["h"] != 0.0)

    # gamma term alone drives the codebook; mu term alone adds to h only
    g_gamma = run(0.0, 1.0)
    assert np.any(g_gamma["codebook.embeddings"] != 0.0)
    g_mu = run(0.5, 0.0)
    np.testing.assert_array_equal(g_mu["codebook.embeddings"], np.zeros((4, 3)))
    assert not np.allclose(g_mu["h"], grads["h"])


def test_perplexity_values():
    assert codebook_perplexity(np.full(64, 10)) == pytest.approx(64.0)
    single = np.zeros(8)
    single[3] = 17
    assert codebook_perplexity(single) == pytest.approx(1.0)
    assert codebook_perplexity(np.array([3, 1, 0, 0])) == pytest.approx(
        np.exp(-(0.75 * np.log(0.75) + 0.25 * np.log(0.25)))
    )
    with pytest.raises(ContractViolation):
        codebook_perplexity(np.zeros(4))


def test_kmeans_plusplus_deterministic_and_spread():
    gen = rng.substream(41, "km")
    pts = np.concatenate([
        gen.normal_array((50, 2)) + np.array([5.0, 0.0]),
        gen.normal_array((50, 2)) - np.array([5.0, 0.0]),
    ])
    c1 = kmeans_plusplus(pts, 4, rng.substream(1, "seed"))
    c2 = kmeans_plusplus(pts, 4, rng.substream(1, "seed"))
    np.testing.assert_array_equal(c1, c2)
    # both clusters represented
    assert np.any(c1[:, 0] > 0) and np.any(c1[:, 0] < 0)


def _constant_dataset(value=0.7, episodes=1, t_total=8) -> EpisodeDataset:
    grid = GridGraph(8, 8)
    eps = [
        Episode(
            delta=np.array([1e-3]),
            x=np.full((t_total, grid.n_nodes, 1), value),
            seed=i,
        )
        for i in range(episodes)
    ]
    ds = EpisodeDataset(grid=grid, channel_names=["field"], episodes=eps)
    return ds


SEED = 11


def _tiny_config(**overrides) -> PretrainSection:
    base = dict(
        epochs=8,
        batch_size=8,
        lr=5e-3,
        codebook_size=8,
        d_latent=6,
        hidden=12,
        attention_hidden=6,
        gnn_layers=1,
        k_max=2,
    )
    base.update(overrides)
    return PretrainSection(**base)


def test_pretrain_constant_dataset_converges():
    ds = _constant_dataset()
    result = pretrain(ds, _tiny_config(epochs=30, lr=2e-3), seed=SEED)
    # reconstruction error on the (degenerate) training data
    from sparkpde.encoder import reconstruct

    x = ds.normalize(ds.episodes[0].x)
    delta = np.tile(ds.episodes[0].delta, (x.shape[0], 1))  # raw; encode embeds it
    z = result.encoder.encode(x, delta, ds.grid)
    # Quantize against a copy, so the trained usage counts stay as they are.
    throwaway = new_codebook(result.codebook.embeddings.data)
    x_hat = reconstruct(quantize(z, throwaway).straight_through, result.encoder.decoder)
    recon = float(np.mean(np.sum((x_hat.data - x) ** 2, axis=-1)))
    assert recon < 1e-6
    # a single code dominates usage on a degenerate dataset
    assert result.codebook.usage.max() >= 0.99 * result.codebook.usage.sum()


def test_pretrain_deterministic_across_runs():
    ds1 = _constant_dataset(episodes=2)
    ds2 = _constant_dataset(episodes=2)
    r1 = pretrain(ds1, _tiny_config(epochs=3), seed=SEED)
    r2 = pretrain(ds2, _tiny_config(epochs=3), seed=SEED)
    assert r1.loss_history == r2.loss_history
    assert (
        r1.codebook.embeddings.data.tobytes() == r2.codebook.embeddings.data.tobytes()
    )


def test_pretrain_frees_the_forward_outputs_before_backward(monkeypatch):
    # The GNN output h, the reshaped codes, the straight-through sum and the
    # reconstruction are read by no VJP: when backward starts, no node's
    # output but the loss's may still be alive.
    live_ops = []
    real = state_dictionary.backward

    def watched(loss, tape, params):
        live_ops.append([node.op for node in tape._nodes
                         if node.data.size and node is not loss._node])
        return real(loss, tape, params)

    monkeypatch.setattr(state_dictionary, "backward", watched)
    pretrain(_constant_dataset(), _tiny_config(epochs=1, gnn_layers=2), seed=SEED)
    assert live_ops == [[]]


def test_non_finite_gradient_is_chained_to_the_backward_error(monkeypatch):
    # backward's own error, naming the op, is the cause of the one that
    # names the epoch and the batch.
    real = state_dictionary.pretrain_loss

    def nan_gradient(*args):
        loss = real(*args)
        return _record(Tensor(loss.data.copy()), (loss,),
                       lambda g: (np.full(g.shape, np.nan),), "probe")

    monkeypatch.setattr(state_dictionary, "pretrain_loss", nan_gradient)
    with pytest.raises(NumericError) as err:
        pretrain(_constant_dataset(), _tiny_config(epochs=1), seed=SEED)
    cause = err.value.__cause__
    assert isinstance(cause, NumericError)
    assert str(cause) == "non-finite gradient in backward of 'probe'"
    assert str(err.value) == f"pretraining diverged at epoch 0, batch 0: {cause}"


def test_pretrain_requires_in_domain_episodes():
    ds = _constant_dataset()
    for ep in ds.episodes:
        ep.split = "out"
    with pytest.raises(ContractViolation):
        pretrain(ds, _tiny_config(), seed=SEED)
