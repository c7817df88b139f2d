"""Tape engine contracts: values, gradients vs finite differences, determinism."""

from __future__ import annotations

import threading
import weakref
from collections import Counter
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse

from sparkpde import rng, state_dictionary
from sparkpde.autodiff import (
    Tape,
    Tensor,
    backward,
    checkpoint,
    concat,
    gather_rows,
    gelu,
    graph_layer,
    matmul,
    parameter,
    parameters,
    spectral_channel_mix,
    spectral_plan,
    square,
    stop_gradient,
    tanh,
    tape_recording,
    tensor_mean,
    tensor_sum,
)
from sparkpde.autodiff.tensor import _INV_SQRT2PI, _gelu_cdf, _gelu_slope, _record, mul
from sparkpde.config import DynamicsSection, PretrainSection
from sparkpde.datagen import EpisodeDataset
from sparkpde.datagen.dataset import Episode
from sparkpde.dynamics import init_dynamics, integrate, ode_rhs, solver_step
from sparkpde.encoder import GnnLayer, gnn_encode, init_encoder_stack
from sparkpde.errors import ContractViolation, NumericError
from sparkpde.grids import GridGraph

from helpers import (
    check_gradients,
    embed_weights,
    full_modes,
    set_cores,
    sparse_matmul,
    tape_gradients,
)
from helpers import gelu as gelu_oracle


def _randn(stream, *shape):
    return rng.substream(7, stream).normal_array(shape)


def test_square_sum_gradient_is_2w():
    w = parameter(np.array([1.0, 2.0, 3.0]), "w")
    with Tape() as tape:
        loss = tensor_sum(square(w))
    grads = backward(loss, tape, params=[w])
    np.testing.assert_array_equal(grads["w"], np.array([2.0, 4.0, 6.0]))


def test_unreachable_parameter_gets_zero_gradient():
    w = parameter(np.array([1.0, 2.0, 3.0]), "w")
    c = Tensor(np.array(5.0))
    with Tape() as tape:
        loss = tensor_sum(square(c))
    grads = backward(loss, tape, params=[w])
    np.testing.assert_array_equal(grads["w"], np.zeros(3))


def test_mlp_norm_gradient_matches_finite_differences():
    gen = rng.substream(3, "mlp")
    values = {
        "W": gen.normal_array((4, 5)),
        "x": gen.normal_array((5, 1)),
    }

    def loss(p):
        return tensor_sum(square(gelu(matmul(p["W"], p["x"]))))

    worst = check_gradients(loss, values, rtol=1e-5)
    assert worst < 1e-5


def test_non_scalar_loss_rejected():
    w = parameter(np.ones(3), "w")
    with Tape() as tape:
        y = square(w)
    with pytest.raises(ContractViolation):
        backward(y, tape, params=[w])


def test_stop_gradient_blocks_flow():
    w = parameter(np.array([3.0]), "w")
    with Tape() as tape:
        loss = tensor_sum(stop_gradient(w))
    grads = backward(loss, tape, params=[w])
    np.testing.assert_array_equal(grads["w"], np.zeros(1))


def test_stop_gradient_product_rule():
    w = parameter(np.array([3.0]), "w")
    with Tape() as tape:
        loss = tensor_sum(w * stop_gradient(w))
    assert loss.item() == 9.0
    grads = backward(loss, tape, params=[w])
    np.testing.assert_array_equal(grads["w"], np.array([3.0]))


def test_vq_straight_through_loss_terms():
    # ||h - sg[e]||^2: gradient hits h only, and equals 2(h - e).
    h0 = np.array([0.5, -1.0, 2.0])
    e0 = np.array([1.0, 0.0, 1.5])
    h = parameter(h0.copy(), "h")
    e = parameter(e0.copy(), "e")
    with Tape() as tape:
        loss = tensor_sum(square(h - stop_gradient(e)))
    grads = backward(loss, tape, params=[h, e])
    np.testing.assert_allclose(grads["h"], 2.0 * (h0 - e0), rtol=0, atol=1e-12)
    np.testing.assert_array_equal(grads["e"], np.zeros(3))

    def loss_fd(p):
        return tensor_sum(square(p["h"] - stop_gradient(Tensor(e0))))

    check_gradients(loss_fd, {"h": h0.copy()})


def test_gradient_accumulates_over_reuse():
    w = parameter(np.array([2.0]), "w")
    with Tape() as tape:
        y = square(w)
        loss = tensor_sum(y + y)
    grads = backward(loss, tape, params=[w])
    np.testing.assert_array_equal(grads["w"], np.array([8.0]))


def test_broadcasting_gradients():
    gen = rng.substream(11, "broadcast")
    values = {
        "a": gen.normal_array((3, 1, 4)),
        "b": gen.normal_array((2, 4)),
        "c": gen.normal_array((1,)),
    }

    def loss(p):
        return tensor_mean(square(p["a"] * p["b"] + p["c"] * (p["b"] * p["b"] + 4.0)))

    check_gradients(loss, values)


def test_reduction_and_shape_gradients():
    gen = rng.substream(13, "shapes")
    values = {"x": gen.normal_array((3, 4, 2))}

    def loss(p):
        t = p["x"].reshape(2, 12)
        s = tensor_sum(t, axis=1, keepdims=True)
        m = tensor_mean(square(t - s), axis=0)
        return tensor_sum(tanh(m)) + tensor_sum(tensor_mean(p["x"], axis=(0, 2)))

    check_gradients(loss, values)


def test_concat_gather_scatter_gradients():
    gen = rng.substream(17, "gather")
    values = {"a": gen.normal_array((4, 3)), "b": gen.normal_array((2, 3))}
    idx = np.array([1, 1, 3, 0])
    # Scatter into rows 0, 2, 4, 5 of seven, as a constant placement matrix.
    placement = np.zeros((7, 4))
    placement[[0, 2, 4, 5], np.arange(4)] = 1.0

    def loss(p):
        joined = concat([p["a"], p["b"]], axis=0)
        picked = gather_rows(joined, idx)
        placed = matmul(Tensor(placement), picked)
        return tensor_sum(square(placed)) + tensor_mean(gelu(joined))

    check_gradients(loss, values)


def test_matmul_batched_gradients():
    gen = rng.substream(19, "batched")
    values = {"a": gen.normal_array((3, 2, 4)), "w": gen.normal_array((3, 4, 2))}

    def loss(p):
        return tensor_sum(square(matmul(p["a"], p["w"])))

    check_gradients(loss, values)


def test_spectral_channel_mix_gradient_small():
    plan = spectral_plan(4, 4, 1, GridGraph(4, 4).stencil)
    k = len(plan.mode_idx)
    gen = rng.substream(29, "mix")
    values = {
        "x": gen.normal_array((16, 2)),
        "wr": gen.normal_array((k, 2, 2)),
        "wi": gen.normal_array((k, 2, 2)),
    }

    def loss(p):
        y = spectral_channel_mix(p["x"], p["wr"], p["wi"], plan)
        return tensor_sum(square(y))

    check_gradients(loss, values)

    # Two calls give bit-identical outputs and VJPs.
    g = gen.normal_array((16, 2))
    runs = []
    for _ in range(2):
        params = [Tensor(values[k], requires_grad=True) for k in ("x", "wr", "wi")]
        with Tape():
            out = spectral_channel_mix(*params, plan)
        runs.append([out.data] + list(out._vjp(g)))
    for first, second in zip(*runs):
        assert first.tobytes() == second.tobytes()


def test_spectral_channel_mix_matches_composed_primitives():
    # A 4x4 grid with weights only on modes that fill no row x column product
    # set and no batch axis, and the production shape: 32x32, k_max 8, batch
    # 2; each with and without spectral adjacency.
    for h, k_max, batch, channels in [(4, None, None, 3), (32, 8, 2, 4)]:
        for adjacency in (False, True):
            _check_fused_against_composed(h, k_max, batch, channels, adjacency)


def _dense_dft(n):
    k = np.arange(n)
    return np.exp(-2j * np.pi * (np.outer(k, k) % n) / n)


def _composed_mix(x, wr, wi, idx, h, w, adjacency):
    """Plain-numpy route: dense complex DFT over the flat row-major grid, the
    adjacency rows (or the retained rows), the per-mode complex channel mix,
    then the real part of the dense inverse DFT of the retained modes."""
    n = h * w
    dft = np.kron(_dense_dft(h), _dense_dft(w))  # [kr*W + kc, r*W + c]
    rows = dft[idx] if adjacency is None else adjacency[idx] @ dft
    trunc = rows @ x.reshape(-1, n, x.shape[-1])  # (B, K, C_in)
    mixed = np.einsum("bki,kio->bko", trunc, wr + 1j * wi)
    field = (dft[idx].conj().T / n) @ mixed
    return field.real.reshape(x.shape[:-1] + (wr.shape[-1],))


def _check_fused_against_composed(h, k_max, batch, channels, adjacency):
    # Values against the numpy route; gradients by the adjoint identity
    # <op(v), g> = <v, vjp(g)>, since the op is linear in x and, separately,
    # in (w_real, w_imag). The left side is taken on the numpy route. A VJP
    # error d moves it by <v, d> ~ |d| for Gaussian v, so 1e-12 of the
    # Cauchy-Schwarz bound |v| |vjp(g)| catches |d| / |vjp(g)| above ~1e-10
    # at the production shape.
    # Without k_max, the plan keeps every column kc >= 0 and the weights are
    # zero off the modes [0, 2, 5, 9]. The numpy route runs the full
    # spectrum, with the plan's weights embedded (``embed_weights``, linear
    # in (w_real, w_imag), so the weights' adjoint identity holds through it).
    w = h
    n = h * w
    grid = GridGraph(h, w)
    plan = spectral_plan(h, w, h // 2 if k_max is None else k_max,
                         grid.stencil if adjacency else None)
    idx = plan.mode_idx
    k = len(idx)
    c = channels
    lead = () if batch is None else (batch,)
    gen = rng.substream(31, f"fused-vs-composed/{h}/{adjacency}")
    x0 = gen.normal_array(lead + (n, c))
    wr0 = gen.normal_array((k, c, c))
    wi0 = gen.normal_array((k, c, c))
    if k_max is None:
        off = ~np.isin(idx, [0, 2, 5, 9])
        wr0[off] = wi0[off] = 0.0
    g = gen.normal_array(lead + (n, c))
    v = gen.normal_array(lead + (n, c))
    ur, ui = gen.normal_array((k, c, c)), gen.normal_array((k, c, c))
    dense = grid.adjacency.toarray() if adjacency else None
    full = full_modes(plan)

    def composed(v, v_real, v_imag):
        weights = embed_weights(plan, v_real + 1j * v_imag)
        return _composed_mix(v, weights.real, weights.imag, full, h, w, dense)

    x = Tensor(x0, requires_grad=True)
    with Tape():
        out = spectral_channel_mix(x, wr0, wi0, plan)
    np.testing.assert_allclose(out.data, composed(x0, wr0, wi0), rtol=1e-12, atol=1e-12)

    g_x, g_wr, g_wi = out._vjp(g)
    lhs = np.vdot(composed(v, wr0, wi0), g)
    rhs = np.vdot(v, g_x)
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(v) * np.linalg.norm(g_x)
    lhs = np.vdot(composed(x0, ur, ui), g)
    rhs = np.vdot(ur, g_wr) + np.vdot(ui, g_wi)
    scale = np.hypot(np.linalg.norm(ur), np.linalg.norm(ui)) * np.hypot(
        np.linalg.norm(g_wr), np.linalg.norm(g_wi)
    )
    assert abs(lhs - rhs) <= 1e-12 * scale


def _composed_layer(base, x, a, w, b):
    """The graph layer as the separate ops it fuses."""
    spatial = matmul(sparse_matmul(a, x), w)
    return gelu(base + spatial + b)


def _uneven_adjacency():
    """Symmetrically normalized adjacency D^-1/2 B D^-1/2 of an 8-neighbour
    4x4 grid without wrap-around. Degrees vary (3 to 8), so the weights vary
    along each row, unlike the grid's neighbour mean; A equals A.T bit for
    bit, since each entry is one product of two commuting factors."""
    r, c = np.divmod(np.arange(16), 4)
    near = (np.abs(r[:, None] - r) <= 1) & (np.abs(c[:, None] - c) <= 1)
    np.fill_diagonal(near, False)
    scale = 1.0 / np.sqrt(near.sum(axis=1))
    a = sparse.csr_matrix(near * (scale[:, None] * scale[None, :]))
    assert (a != a.T).nnz == 0
    return a


# (lead, const, d_in, d_out). "self" is the GNN encoder's layer: the base is
# matmul(x, W_self). d_in 1 is the Navier-Stokes encoder's first layer, where
# OpenBLAS takes matrix-vector kernels, and 64 -> 32 its last.
_GRAPH_LAYER_CASES = [
    pytest.param(lead, const, 3, 2, id=f"{lead_id}-{const_id}")
    for lead_id, lead in (("N-D", ()), ("B-N-D", (2,)), ("T-B-N-D", (3, 2)))
    for const_id, const in (
        ("all-grad", None), ("x-const", "x"), ("spectral-const", "spectral"), ("self-base", "self")
    )
] + [
    pytest.param((2,), "self", d_in, d_out, id=f"B-N-D-self-base-{d_in}to{d_out}")
    for d_in, d_out in ((1, 64), (64, 32))
]


@pytest.mark.parametrize("lead,const,d_in,d_out", _GRAPH_LAYER_CASES)
def test_graph_layer_bit_equal_to_composed_ops(lead, const, d_in, d_out):
    # As in ode_rhs and gnn_encode: x feeds the base (the spectral op or the
    # self matmul) and the layer, so x's gradient accumulates across both;
    # values and every gradient must be the same bits. A's rows are uneven.
    a = _uneven_adjacency()
    gen = rng.substream(43, f"graph-layer/{len(lead)}/{d_in}")
    plan = spectral_plan(4, 4, 1, GridGraph(4, 4).stencil)
    x0 = gen.normal_array(lead + (16, d_in))
    base0 = gen.normal_array(lead + (16, d_out))
    weights = {
        "wr": gen.normal_array((len(plan.mode_idx), d_in, d_out)),
        "wi": gen.normal_array((len(plan.mode_idx), d_in, d_out)),
        "ws": gen.normal_array((d_in, d_out)),
        "w": gen.normal_array((d_in, d_out)),
        "b": gen.normal_array((d_out,)),
    }
    cotangent = gen.normal_array(lead + (16, d_out))

    def run(layer):
        params = {k: parameter(v.copy(), k) for k, v in weights.items()}
        x = Tensor(x0.copy(), requires_grad=const != "x", name="x")
        wrt = [*params.values()] + ([x] if x.requires_grad else [])
        with Tape() as tape:
            if const == "spectral":
                base = Tensor(base0)
            elif const == "self":
                base = matmul(x, params["ws"])
            else:
                base = spectral_channel_mix(x, params["wr"], params["wi"], plan)
            y = layer(base, x, a, params["w"], params["b"])
            loss = tensor_sum(mul(y, cotangent))
        return y.data, backward(loss, tape, params=wrt)

    fused_y, fused = run(graph_layer)
    composed_y, composed = run(_composed_layer)
    assert fused_y.tobytes() == composed_y.tobytes()
    if const in ("spectral", "self"):
        # The value itself: gelu(base + (A x) W + b) with a dense A.
        base = base0 if const == "spectral" else x0 @ weights["ws"]
        pre = base + (a.toarray() @ x0) @ weights["w"] + weights["b"]
        np.testing.assert_allclose(fused_y, gelu_oracle(pre), rtol=1e-12, atol=1e-15)
    assert fused.keys() == composed.keys()
    for name in composed:
        assert fused[name].tobytes() == composed[name].tobytes(), name


def test_graph_layer_gradient_matches_finite_differences():
    # The ODE layer on the periodic grid, then the GNN encoder's layer (the
    # base is matmul(x, W_self)) on an uneven symmetric A at each leading
    # rank and at d_in 1.
    grid = GridGraph(3, 4)
    gen = rng.substream(47, "graph-layer-fd/gelu")
    values = {
        "spectral": gen.normal_array((2, grid.n_nodes, 2)),
        "x": gen.normal_array((2, grid.n_nodes, 3)),
        "w": gen.normal_array((3, 2)),
        "b": gen.normal_array((2,)),
    }

    def loss(p):
        y = graph_layer(p["spectral"], p["x"], grid.adjacency, p["w"], p["b"])
        return tensor_sum(square(y))

    check_gradients(loss, values)

    a = _uneven_adjacency()
    for lead, d_in in (((), 3), ((2,), 3), ((3, 2), 3), ((2,), 1)):
        values = {
            "x": gen.normal_array(lead + (16, d_in)),
            "ws": gen.normal_array((d_in, 2)),
            "w": gen.normal_array((d_in, 2)),
            "b": gen.normal_array((2,)),
        }

        def self_loss(p):
            y = graph_layer(matmul(p["x"], p["ws"]), p["x"], a, p["w"], p["b"])
            return tensor_sum(square(y))

        check_gradients(self_loss, values)


def _uneven_graph():
    """``_uneven_adjacency()`` as the graph ``gnn_encode`` reads."""
    return SimpleNamespace(n_nodes=16, adjacency=_uneven_adjacency())


def _gnn_layer(p):
    """The encoder's ``GnnLayer`` of the weights ``ws``, ``wn``, ``b`` and,
    when the width changes, ``r``."""
    return GnnLayer(self_w=p["ws"], neighbor_w=p["wn"], combine_b=p["b"], resid_w=p.get("r"))


def _composed_gnn_layer(h, graph, p):
    """The GNN-encoder layer as separate ops."""
    combined = _composed_layer(matmul(h, p["ws"]), h, graph.adjacency, p["wn"], p["b"])
    return (h if p.get("r") is None else matmul(h, p["r"])) + combined


def _assert_gnn_layer_is_composed_ops(h0, weights, cotangent, grad_h):
    """Asserts that one round of ``gnn_encode``'s value and every gradient
    are the bits of the composed ops'; returns the value."""
    graph = _uneven_graph()

    def run(layer):
        params = {k: parameter(v.copy(), k) for k, v in weights.items()}
        h = Tensor(h0.copy(), requires_grad=grad_h, name="h")
        wrt = [*params.values()] + ([h] if h.requires_grad else [])
        with Tape() as tape:
            before = tensor_sum(tanh(h))
            y = layer(h, graph, params)
            loss = tensor_sum(mul(y, cotangent)) + before
        return y.data, backward(loss, tape, params=wrt)

    fused_y, fused = run(lambda h, graph, p: gnn_encode(h, graph, [_gnn_layer(p)]))
    composed_y, composed = run(_composed_gnn_layer)
    assert fused_y.tobytes() == composed_y.tobytes()
    assert fused.keys() == composed.keys()
    for name in composed:
        assert fused[name].tobytes() == composed[name].tobytes(), name
    return fused_y


@pytest.mark.parametrize("const", [None, "h"], ids=["all-grad", "h-const"])
@pytest.mark.parametrize("lead", [(), (2,)], ids=["N-D", "B-N-D"])
@pytest.mark.parametrize("resid", [True, False], ids=["resid", "skip"])
def test_gnn_layer_bit_equal_to_composed_ops(resid, lead, const):
    # One encoder layer (matmul, graph_layer, then the skip) on an uneven
    # symmetric A. h also feeds an op recorded before the layer, as the
    # encoder input feeds channel attention, so h's gradient accumulates
    # across both; values and every gradient must be the same bits.
    gen = rng.substream(59, f"gnn-layer/{resid}/{len(lead)}")
    d_out = 2 if resid else 3
    h0 = gen.normal_array(lead + (16, 3))
    weights = {
        "ws": gen.normal_array((3, d_out)),
        "wn": gen.normal_array((3, d_out)),
        "b": gen.normal_array((d_out,)),
    }
    if resid:
        weights["r"] = gen.normal_array((3, d_out))
    cotangent = gen.normal_array(lead + (16, d_out))
    fused_y = _assert_gnn_layer_is_composed_ops(h0, weights, cotangent, const != "h")
    # The value itself, with a dense A.
    a = _uneven_adjacency()
    pre = h0 @ weights["ws"] + (a.toarray() @ h0) @ weights["wn"] + weights["b"]
    skip = h0 @ weights["r"] if resid else h0
    np.testing.assert_allclose(fused_y, skip + gelu_oracle(pre), rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("d_in", [1, 64])
@pytest.mark.parametrize("resid", [True, False], ids=["resid", "skip"])
def test_gnn_layer_bit_equal_to_composed_ops_at_encoder_widths(resid, d_in):
    # d_in 1 is the Navier-Stokes encoder's first layer, where OpenBLAS
    # takes matrix-vector kernels; 64 is a wide hidden layer.
    gen = rng.substream(83, f"gnn-layer-widths/{resid}/{d_in}")
    d_out = 32 if resid else d_in
    weights = {
        "ws": gen.normal_array((d_in, d_out)),
        "wn": gen.normal_array((d_in, d_out)),
        "b": gen.normal_array((d_out,)),
    }
    if resid:
        weights["r"] = gen.normal_array((d_in, d_out))
    h0 = gen.normal_array((2, 16, d_in))
    cotangent = gen.normal_array((2, 16, d_out))
    _assert_gnn_layer_is_composed_ops(h0, weights, cotangent, grad_h=True)


@pytest.mark.parametrize("lead", [(), (2,), (3, 2)], ids=["N-D", "B-N-D", "T-B-N-D"])
def test_gnn_layer_gradient_matches_finite_differences(lead):
    # One encoder layer on an uneven symmetric A, with a residual matrix and
    # then with the identity skip.
    graph = _uneven_graph()
    gen = rng.substream(23, "gnn-layer-fd")

    def loss(p):
        return tensor_sum(square(gnn_encode(p["h"], graph, [_gnn_layer(p)])))

    h0 = gen.normal_array(lead + (16, 3))
    for d_out, resid in ((2, True), (3, False)):
        values = {
            "h": h0,
            "ws": gen.normal_array((3, d_out)),
            "wn": gen.normal_array((3, d_out)),
            "b": gen.normal_array((d_out,)),
        }
        if resid:
            values["r"] = gen.normal_array((3, d_out))
        check_gradients(loss, values)


def test_graph_layer_unrecorded_keeps_nothing():
    # Outside a tape (the frozen encoder) and on a tape with only constant
    # operands, the layer is a plain value: no VJP closure holds A x or the
    # slope.
    a = _uneven_adjacency()
    gen = rng.substream(61, "graph-layer-unrecorded")
    x0 = gen.normal_array((2, 16, 3))
    base0 = gen.normal_array((2, 16, 2))
    w = parameter(gen.normal_array((3, 2)), "w")
    b = parameter(gen.normal_array((2,)), "b")
    with Tape() as tape:
        recorded = graph_layer(Tensor(base0), Tensor(x0), a, w, b)
        constant = graph_layer(Tensor(base0), Tensor(x0), a, Tensor(w.data), Tensor(b.data))
    free = graph_layer(Tensor(base0), Tensor(x0), a, w, b)
    assert recorded._vjp is not None and tape._nodes == [recorded._node]
    for out in (constant, free):
        assert out._vjp is None and out._node is None and not out.requires_grad
        assert out.data.tobytes() == recorded.data.tobytes()


def test_pretrain_step_tape_budget(monkeypatch):
    # One pretrain step with a 2-layer GNN (the first layer with a residual
    # matrix, the second with the identity skip) records one graph_layer node
    # per GNN layer, and none of the sparse products or concatenations it fuses.
    grid = GridGraph(4, 4)
    gen = rng.substream(67, "pretrain-tape-budget")
    episode = Episode(delta=np.array([1e-3, 2e-3]), x=gen.normal_array((4, 16, 2)), seed=0)
    ds = EpisodeDataset(grid=grid, channel_names=["u", "v"], episodes=[episode])
    cfg = PretrainSection(
        epochs=1, batch_size=4, codebook_size=4, d_latent=5, hidden=5,
        attention_hidden=3, gnn_layers=2, k_max=1,
    )
    tapes = []
    real_backward = state_dictionary.backward

    def counting_backward(loss, tape, params):
        tapes.append(Counter(node.op for node in tape._nodes))
        return real_backward(loss, tape, params)

    monkeypatch.setattr(state_dictionary, "backward", counting_backward)
    state_dictionary.pretrain(ds, cfg, seed=3)
    assert len(tapes) == 1
    ops = tapes[0]
    assert ops["graph_layer"] == 2
    assert ops["gnn_layer"] == ops["sparse_matmul"] == ops["concat"] == 0


def _out_of_place_backward(loss, tape, params):
    """Reference accumulation: every sum into a fresh array."""
    grads = {id(loss._node): np.ones_like(loss.data)}
    for node in reversed(tape._nodes):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        for parent, contrib in zip(node.parents, node.vjp(g)):
            if contrib is not None and parent is not None:
                key = id(parent)
                grads[key] = grads[key] + contrib if key in grads else contrib
    return {p.name: grads[id(p)] for p in params}


def test_backward_in_place_accumulation_keeps_shared_cotangents():
    # ``both = u + v`` is the last consumer of u and v, so its VJP runs first
    # and hands both of them one array, g itself. u and v then take more
    # contributions (views of one array from concat, then square and gelu),
    # and adding them into u's array in place would change v's.
    gen = rng.substream(53, "aliasing")
    x = parameter(gen.normal_array((3, 4)), "x")
    y = parameter(gen.normal_array((3, 4)), "y")
    c = gen.normal_array((3, 4))
    with Tape() as tape:
        u = x * y
        v = tanh(x) * c
        squares, smooth = square(u), gelu(v)
        pieces = concat([u, v], axis=0).reshape(4, 6)
        both = u + v
        loss = tensor_sum(square(both)) + tensor_sum(squares) + tensor_sum(smooth)
        loss = loss + tensor_sum(pieces * pieces)
    # The reference reads the tape before backward consumes it.
    want = _out_of_place_backward(loss, tape, [x, y])
    got = backward(loss, tape, params=[x, y])
    for name in ("x", "y"):
        assert got[name].tobytes() == want[name].tobytes(), name


def _vjp_arrays(node):
    """The float arrays a node's VJP closure captures (index arrays such as
    concat's offsets are left out); asserts that it captures no ``Tensor``."""
    cells = [cell.cell_contents for cell in node.vjp.__closure__ or ()]
    assert not any(isinstance(c, Tensor) for c in cells), node.op
    return [c for c in cells if isinstance(c, np.ndarray) and c.dtype == np.float64]


def _reference_gelu_slope(z, cdf):
    """The GeLU slope as one out-of-place expression."""
    return cdf + z * (_INV_SQRT2PI * np.exp(-0.5 * z * z))


def test_gelu_slope_in_place_is_the_expression_bit_for_bit():
    gen = rng.substream(89, "gelu-slope")
    tiny = np.finfo(np.float64).tiny
    special = [0.0, -0.0, 40.0, -40.0, 41.5, -41.5, 1e3, -1e3, 1e300, -1e300,
               5e-324, -5e-324, 1e-310, -1e-310, tiny / 2, -tiny / 2, tiny, -tiny]
    cases = [
        gen.normal_array((3, 257)),
        4.0 * gen.normal_array((64, 33)),
        np.array(special),
        gen.normal_array((8, 6)).T,  # strided
        np.array(1.25),
    ]
    for z in cases:
        cdf = _gelu_cdf(z)
        with np.errstate(over="ignore"):  # z * z overflows at |z| = 1e300
            got, want = _gelu_slope(z, cdf), _reference_gelu_slope(z, cdf)
        assert got.shape == z.shape and got.tobytes() == want.tobytes()


def test_recorded_gelu_keeps_only_its_slope():
    x0 = rng.substream(97, "gelu-keeps").normal_array((5, 7))
    x = parameter(x0.copy(), "x")
    with Tape() as tape:
        out = gelu(x)
        loss = tensor_sum(square(out))
    node = out._node
    assert node.op == "gelu" and tape._nodes[0] is node
    (kept,) = _vjp_arrays(node)
    assert kept.tobytes() == _reference_gelu_slope(x0, _gelu_cdf(x0)).tobytes()
    assert out.data.tobytes() == (x0 * _gelu_cdf(x0)).tobytes()
    free = gelu(Tensor(x0))
    assert free._node is None and free.data.tobytes() == out.data.tobytes()
    grads = backward(loss, tape, [x])
    assert grads["x"].tobytes() == ((2.0 * out.data) * kept).tobytes()


@pytest.mark.parametrize("cores", [1, 2])
def test_backward_frees_each_record_once_it_has_replayed_it(monkeypatch, cores):
    # While loss lives, its node's parents link every record. So only the
    # replay lets go of what a record keeps: by the time the first node
    # recorded is replayed (last), the arrays the later nodes' VJPs kept,
    # the decoder gelu's slope among them, and each checkpoint record's
    # input state are dead. So is the slope of a gelu the loss does not
    # read, whose node gets no cotangent.
    set_cores(monkeypatch, cores)
    grid = GridGraph(8, 8)
    cfg = DynamicsSection(ode_layers=1, k_max=2, decoder_hidden=4)
    w = init_dynamics(rng.substream(79, "replay-frees"), cfg, grid, d_latent=3, d_obs=1)
    gen = rng.substream(79, "replay-frees/h")
    h = parameter(gen.normal_array((2, 64, 3)), "h")
    w_dec = parameter(gen.normal_array((3, 4)), "w_dec")
    params = [h, w_dec, *parameters(*w.layers).values()]
    refs, dead_when_reached = [], []

    def watch(g):
        dead_when_reached.append([ref() is None for ref in refs])
        return (g,)

    with Tape() as tape:
        start = _record(Tensor(h.data.copy()), (h,), watch, "watch")
        unread = gelu(start)
        states = integrate(start, lambda s: ode_rhs(s, grid, w), 3, substeps=1)
        loss = tensor_sum(square(gelu(matmul(states, w_dec))))
    del start, unread, states
    weights = {id(p.data) for p in params}
    records = [node for node in tape._nodes if node.op == "checkpoint"]
    slopes = [_vjp_arrays(node)[0] for node in tape._nodes if node.op == "gelu"]
    kept = [a for node in tape._nodes if node.op not in ("checkpoint", "watch")
            for a in _vjp_arrays(node) if id(a) not in weights]
    assert len(slopes) == 2 and len(records) == 3
    assert all(any(a is slope for a in kept) for slope in slopes)
    refs += [weakref.ref(a) for a in kept]
    refs += [weakref.ref(r.input) for r in records] + [weakref.ref(r.input.data) for r in records]
    del slopes, kept
    assert not any(ref() is None for ref in refs)
    backward(loss, tape, params)
    assert dead_when_reached == [[True] * len(refs)]
    assert loss._node is not None and all(ref() is None for ref in refs)
    assert all(r.fn is None and r.input is None for r in records)


def test_backward_refuses_a_consumed_tape():
    x = parameter(np.array([1.0, 2.0]), "x")
    with Tape() as tape:
        loss = tensor_sum(square(x))
    assert backward(loss, tape, [x])["x"].tolist() == [2.0, 4.0]
    with pytest.raises(ContractViolation, match="already replayed.*replayed once"):
        backward(loss, tape, [x])
    # A backward that raised partway consumed its tape too.
    with Tape() as tape:
        loss = tensor_sum(square(_probe(x, np.array([np.inf, 1.0]))))
    with pytest.raises(NumericError, match="'probe'"):
        backward(loss, tape, [x])
    with pytest.raises(ContractViolation, match="already replayed.*replayed once"):
        backward(loss, tape, [x])


def test_ode_unroll_tape_keeps_only_what_its_vjps_read():
    # A recorded 2-layer RK4 unroll. The outer tape keeps one checkpoint
    # record per step, holding only that step's input state. A step's private
    # tape, recomputed in backward, keeps per step what the full tape kept:
    # besides the weights and the scalar step sizes, exactly each
    # graph_layer's A x and GeLU slope and each spectral op's truncated
    # coefficients, and no op output. Gradients are those of the out-of-place
    # reference on the hand-unrolled one-tape graph, bit for bit.
    grid = GridGraph(8, 8)
    cfg = DynamicsSection(ode_layers=2, k_max=2, decoder_hidden=4)
    w = init_dynamics(rng.substream(71, "unroll-retention"), cfg, grid, d_latent=3, d_obs=1)
    batch, d, horizon = 2, 3, 2
    h = parameter(rng.substream(72, "unroll-retention/h").normal_array((batch, 64, d)), "h")

    def rhs(s):
        return ode_rhs(s, grid, w)

    with Tape() as tape:
        states = integrate(h, rhs, horizon, substeps=1)
        loss = tensor_sum(square(states))
    del states
    assert Counter(node.op for node in tape._nodes) == {
        "checkpoint": horizon, "reshape": horizon, "concat": 1, "square": 1, "sum": 1,
    }
    records = [node for node in tape._nodes if node.op == "checkpoint"]
    assert records[0].input is h
    for before, record in zip(records, records[1:]):
        assert record.input._node is before and record.input.shape == (batch, 64, d)
    for record in records:
        cells = [cell.cell_contents for cell in record.fn.__closure__]
        assert not any(isinstance(c, (Tensor, np.ndarray)) for c in cells)
    for node in tape._nodes:
        if node.op == "checkpoint":
            continue
        arrays = [a for a in _vjp_arrays(node) if a.ndim > 0]
        # The loss reads the stacked states; nothing else keeps an array.
        assert [a.shape for a in arrays] == ([(horizon, batch, 64, d)] if node.op == "square"
                                             else []), node.op

    weights = {id(p.data) for p in parameters(w).values()}
    k = len(w.plan.mode_idx)
    for record in records:
        private, _ = record.recompute()
        assert all(node.data.nbytes == 0 for node in private._nodes)
        kept = Counter()
        for node in private._nodes:
            arrays = [a for a in _vjp_arrays(node) if id(a) not in weights and a.ndim > 0]
            if node.op == "graph_layer":
                assert [a.shape for a in arrays] == [(batch, 64, d)] * 2
            elif node.op == "spectral_channel_mix":
                assert [a.shape for a in arrays] == [(k, 2 * batch, d)]
            else:
                assert arrays == [], node.op
                continue
            kept[node.op] += len(arrays)
        n_rhs = 2 * 4  # layers x RK4 stages
        assert kept == {"graph_layer": 2 * n_rhs, "spectral_channel_mix": n_rhs}
        del private

    params = [h, *parameters(*w.layers).values()]
    got = backward(loss, tape, params)
    with Tape() as full:
        state, outputs = h, []
        for _ in range(horizon):
            state = solver_step(state, rhs, "rk4", 1.0)
            outputs.append(state.reshape(1, *state.shape))
        full_loss = tensor_sum(square(concat(outputs, axis=0)))
    want = _out_of_place_backward(full_loss, full, params)
    for p in params:
        assert got[p.name].tobytes() == want[p.name].tobytes(), p.name


def test_a_tape_records_only_its_own_threads_ops():
    x = parameter(np.array([1.0, 2.0]), "x")
    seen = {}

    def elsewhere():
        seen["recording"] = tape_recording()
        seen["out"] = square(x)

    with Tape() as tape:
        worker = threading.Thread(target=elsewhere)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive() and tape_recording()
    assert tape._nodes == [] and seen["recording"] is False and seen["out"]._node is None

    entered, release = threading.Event(), threading.Event()

    def record():
        with Tape() as theirs:
            seen["theirs"] = theirs
            entered.set()
            release.wait()

    worker = threading.Thread(target=record)
    worker.start()
    try:
        assert entered.wait(timeout=30)
        recording, out = tape_recording(), square(x)
    finally:
        release.set()
        worker.join(timeout=30)
    assert not worker.is_alive()
    assert recording is False and out._node is None and seen["theirs"]._nodes == []


def test_checkpoint_without_a_tape_is_the_call():
    x = parameter(np.array([1.0, -2.0]), "x")
    out = checkpoint(lambda t: square(t) * 3.0, x)
    assert out._node is None and out.data.tolist() == [3.0, 12.0]


def test_checkpoint_refuses_an_output_that_is_not_new():
    x = parameter(np.array([1.0]), "x")
    with Tape():
        y = square(x)
        for fn in (lambda t: y, lambda t: t):
            with pytest.raises(ContractViolation, match="new tensor"):
                checkpoint(fn, x)
    assert x._node is None


@pytest.mark.parametrize("cores", [1, 2])
def test_non_finite_gradient_in_a_recomputed_step_names_the_op(monkeypatch, cores):
    # The probe's VJP hands out inf in every step of the unroll; the first
    # step replayed raises while the worker recomputes the next one, and the
    # worker is gone when the error arrives.
    set_cores(monkeypatch, cores)
    threads = threading.active_count()
    h = parameter(np.array([[1.0, 2.0]]), "h")
    with Tape() as tape:
        states = integrate(h, lambda s: _probe(s, np.array([[np.inf, 1.0]])), 3, substeps=2)
        loss = tensor_sum(square(states))
    with pytest.raises(NumericError, match="'probe'"):
        backward(loss, tape, params=[h])
    assert threading.active_count() == threads


@pytest.mark.parametrize("cores", [1, 2])
def test_failed_recomputation_leaves_no_worker_thread(monkeypatch, cores):
    # A step that fails when it runs again in backward: the error reaches
    # the caller and no thread is left behind.
    set_cores(monkeypatch, cores)
    threads = threading.active_count()
    calls = []

    def step(s):
        calls.append(len(calls))
        if len(calls) > 3:
            raise ContractViolation("step failed on recomputation")
        return square(s)

    h = parameter(np.array([0.5, 0.25]), "h")
    with Tape() as tape:
        state = h
        for _ in range(3):
            state = checkpoint(step, state)
        loss = tensor_sum(state)
    with pytest.raises(ContractViolation, match="recomputation"):
        backward(loss, tape, params=[h])
    assert threading.active_count() == threads


def test_tape_surface_the_benchmark_tracer_reads():
    # The benchmark's tracer sums ``node.data.nbytes`` over ``tape._nodes``
    # and wraps the spectral op's VJP by reassigning ``out._vjp``.
    plan = spectral_plan(4, 4, 1)
    gen = rng.substream(73, "tracer-surface")
    k = len(plan.mode_idx)
    x = parameter(gen.normal_array((16, 2)), "x")
    wr = parameter(gen.normal_array((k, 2, 2)), "wr")
    wi = parameter(gen.normal_array((k, 2, 2)), "wi")
    with Tape() as tape:
        out = spectral_channel_mix(x, wr, wi, plan)
        loss = tensor_sum(square(out))
    assert all(isinstance(node.data, np.ndarray) for node in tape._nodes)
    assert tape._nodes[0].data is out.data

    calls = []
    vjp = out._vjp

    def wrapped(g):
        calls.append(g.shape)
        return vjp(g)

    out._vjp = wrapped
    assert out._vjp is wrapped
    want = tape_gradients(
        lambda p: tensor_sum(square(spectral_channel_mix(p["x"], p["wr"], p["wi"], plan))),
        {"x": x.data, "wr": wr.data, "wi": wi.data},
    )
    del out
    assert tape._nodes[0].data.nbytes == 0
    got = backward(loss, tape, [x, wr, wi])
    assert calls == [(16, 2)]
    for name in ("x", "wr", "wi"):
        assert got[name].tobytes() == want[name].tobytes(), name

    unrecorded = Tensor(np.ones(2))
    assert unrecorded._vjp is None
    with pytest.raises(ContractViolation, match="recorded"):
        unrecorded._vjp = wrapped


def _probe(x, contrib):
    """A recorded identity node on ``x`` whose VJP passes on ``contrib``."""
    return _record(Tensor(x.data.copy()), (x,), lambda g: (contrib,), "probe")


@pytest.mark.parametrize(
    "bad", [[np.inf, 1.0], [1.0, -np.inf], [np.nan, 1.0], [np.inf, -np.inf]],
    ids=["inf", "-inf", "nan", "inf-and-minus-inf"],
)
def test_backward_names_op_of_non_finite_gradient(bad):
    x = parameter(np.array([1.0, 2.0]), "x")
    with Tape() as tape:
        loss = tensor_sum(square(_probe(x, np.array(bad))))
    with pytest.raises(NumericError, match="'probe'"):
        backward(loss, tape, params=[x])


def test_backward_accepts_finite_gradients_whose_sum_overflows():
    x = parameter(np.array([1e-300, 2e-300, 3e-300]), "x")
    scale = np.array([1e308, 1.5e308, -1e308])
    with Tape() as tape:
        loss = tensor_sum(x * scale)
    grads = backward(loss, tape, params=[x])
    np.testing.assert_array_equal(grads["x"], scale)


def test_backward_deterministic_bit_identical():
    gen = rng.substream(37, "determinism")
    values = {"w": gen.normal_array((6, 6)), "x": gen.normal_array((6, 2))}

    def run():
        return tape_gradients(
            lambda p: tensor_sum(square(tanh(matmul(p["w"], p["x"])))), values
        )

    a, b = run(), run()
    for k in values:
        assert a[k].tobytes() == b[k].tobytes()


def test_primitive_gradients_random_inputs():
    # Every differentiable primitive against central differences at N(0,1).
    gen = rng.substream(41, "primitives")
    x0 = gen.normal_array((3, 4))
    y0 = gen.normal_array((3, 4))
    cases = {
        "add": lambda p: tensor_sum(square(p["x"] + p["y"])),
        "sub": lambda p: tensor_sum(square(p["x"] - p["y"])),
        "mul": lambda p: tensor_sum(square(p["x"] * p["y"])),
        "gelu": lambda p: tensor_sum(gelu(p["x"])),
        "tanh": lambda p: tensor_sum(tanh(p["x"])),
        "square": lambda p: tensor_sum(square(p["x"])),
        "mean": lambda p: tensor_mean(p["x"] * p["y"]),
    }
    for name, fn in cases.items():
        worst = check_gradients(fn, {"x": x0.copy(), "y": y0.copy()})
        assert worst < 1e-4, name


# -- parameter enumeration -------------------------------------------------------


@dataclass
class _Model:
    first: Tensor
    skipped: tuple
    counts: np.ndarray
    missing: Tensor | None
    rest: list


def test_parameters_walk_fields_and_lists_in_declaration_order():
    t = {name: parameter(np.zeros(1), name) for name in "abcd"}
    inner = _Model(t["c"], (), np.zeros(1), None, [])
    model = _Model(t["b"], (t["d"],), np.zeros(3), None, [inner, t["a"]])
    found = parameters(model)
    assert list(found) == ["b", "c", "a"]  # nothing inside a tuple
    assert all(found[name] is t[name] for name in found)
    assert list(parameters(t["d"], model)) == ["d", "b", "c", "a"]


def test_parameters_refuse_repeated_and_missing_names():
    first, second = parameter(np.zeros(2), "w"), parameter(np.ones(2), "w")
    with pytest.raises(ContractViolation, match="'w'"):
        parameters([first, second])
    with pytest.raises(ContractViolation, match="'w'"):
        parameters(first, first)
    with pytest.raises(ContractViolation, match="None"):
        parameters([Tensor(np.zeros(2))])


def _models():
    """An encoder stack whose middle GNN layer has no residual projection (its
    widths match), its codebook, and a two-layer forecaster."""
    grid = GridGraph(4, 4)
    cfg = PretrainSection(d_latent=4, hidden=6, attention_hidden=3, k_max=1, gnn_layers=3)
    stack = init_encoder_stack(rng.substream(3, "enum"), cfg, grid, d_obs=1, d_delta=1)
    codebook = state_dictionary.new_codebook(np.eye(4))
    dyn_cfg = DynamicsSection(ode_layers=2, k_max=1, decoder_hidden=3)
    weights = init_dynamics(rng.substream(4, "enum"), dyn_cfg, grid, d_latent=4, d_obs=1)
    return stack, codebook, weights


def test_parameters_of_the_models_in_pinned_order():
    # The dynamics order is part of the trained bytes: the weight decay sums
    # its terms in it.
    stack, codebook, weights = _models()
    attn = ["w1_1", "b1_1", "w2_1", "b2_1", "w1_2", "b1_2", "w2_2", "b2_2",
            "g1", "g2_real", "g2_imag"]
    assert list(parameters(stack, codebook)) == [
        *(f"encoder.attn.{name}" for name in attn),
        "encoder.gnn.0.self_w", "encoder.gnn.0.neighbor_w", "encoder.gnn.0.combine_b",
        "encoder.gnn.0.resid_w",
        "encoder.gnn.1.self_w", "encoder.gnn.1.neighbor_w", "encoder.gnn.1.combine_b",
        "encoder.gnn.2.self_w", "encoder.gnn.2.neighbor_w", "encoder.gnn.2.combine_b",
        "encoder.gnn.2.resid_w",
        "encoder.decoder.w_a", "encoder.decoder.b_a",
        "encoder.decoder.w_b", "encoder.decoder.b_b",
        "codebook.embeddings",
    ]
    assert list(parameters(weights)) == [
        "dynamics.w_alpha",
        "dynamics.0.wf_real", "dynamics.0.wf_imag", "dynamics.0.w", "dynamics.0.b",
        "dynamics.1.wf_real", "dynamics.1.wf_imag", "dynamics.1.w", "dynamics.1.b",
        "dynamics.decoder.w_a", "dynamics.decoder.b_a",
        "dynamics.decoder.w_b", "dynamics.decoder.b_b",
    ]


def _reachable_tensors(value):
    """Every Tensor reachable from ``value`` through attributes, lists, tuples
    and dicts: a wider walk than ``parameters`` takes."""
    if isinstance(value, Tensor):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _reachable_tensors(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _reachable_tensors(item)
    elif hasattr(value, "__dict__"):
        for item in vars(value).values():
            yield from _reachable_tensors(item)


def test_parameters_reach_every_tensor_of_the_models():
    for model in _models():
        reachable = list(_reachable_tensors(model))
        assert [id(t) for t in parameters(model).values()] == [id(t) for t in reachable]
    stack = _models()[0]
    assert [layer.resid_w is not None for layer in stack.gnn] == [True, False, True]
