"""Tape engine contracts: values, gradients vs finite differences, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from sparkpde import rng
from sparkpde.autodiff import (
    Tape,
    Tensor,
    backward,
    concat,
    gather_rows,
    gelu,
    matmul,
    parameter,
    scatter_rows,
    sparse_matmul,
    spectral_channel_mix,
    square,
    stop_gradient,
    tanh,
    tensor_mean,
    tensor_sum,
    transpose,
)
from sparkpde.errors import ContractViolation
from sparkpde.grids import GridGraph

from helpers import check_gradients, tape_gradients


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
        return tensor_mean(square(p["a"] * p["b"] + p["c"] / (p["b"] * p["b"] + 4.0)))

    check_gradients(loss, values)


def test_reduction_and_shape_gradients():
    gen = rng.substream(13, "shapes")
    values = {"x": gen.normal_array((3, 4, 2))}

    def loss(p):
        t = transpose(p["x"], (2, 0, 1)).reshape(2, 12)
        s = tensor_sum(t, axis=1, keepdims=True)
        m = tensor_mean(square(t - s), axis=0)
        return tensor_sum(tanh(m))

    check_gradients(loss, values)


def test_concat_gather_scatter_gradients():
    gen = rng.substream(17, "gather")
    values = {"a": gen.normal_array((4, 3)), "b": gen.normal_array((2, 3))}
    idx = np.array([1, 1, 3, 0])

    def loss(p):
        joined = concat([p["a"], p["b"]], axis=0)
        picked = gather_rows(joined, idx)
        placed = scatter_rows(picked, np.array([0, 2, 4, 5]), 7)
        return tensor_sum(square(placed)) + tensor_mean(gelu(joined))

    check_gradients(loss, values)


def test_matmul_batched_gradients():
    gen = rng.substream(19, "batched")
    values = {"a": gen.normal_array((3, 2, 4)), "w": gen.normal_array((3, 4, 2))}

    def loss(p):
        return tensor_sum(square(matmul(p["a"], p["w"])))

    check_gradients(loss, values)


@pytest.mark.parametrize("lead", [(), (2,), (3, 2)], ids=["N-D", "B-N-D", "T-B-N-D"])
def test_sparse_matmul_gradient(lead):
    # Degrees vary on a non-periodic 8-neighbour grid, so the row-normalized
    # A is not symmetric and a VJP applying A instead of A.T fails FD.
    grid = GridGraph(4, 4, normalization="row", connectivity=8, periodic=False)
    gen = rng.substream(23, "sparse")
    values = {"x": gen.normal_array(lead + (16, 3))}

    # The node-axis product equals A @ x on every leading slice, bit for bit.
    got = sparse_matmul(grid.adjacency, values["x"], grid.adjacency_t).data
    assert got.shape == values["x"].shape
    for idx in np.ndindex(*lead):
        assert np.array_equal(got[idx], grid.adjacency @ values["x"][idx])

    def loss(p):
        y = sparse_matmul(grid.adjacency, p["x"], grid.adjacency_t)
        return tensor_sum(square(y))

    check_gradients(loss, values)


def test_spectral_channel_mix_gradient_small():
    grid = GridGraph(4, 4, normalization="row")
    idx = np.array([0, 1, 4, 5, 12, 15])
    rows = grid.adjacency_row_slice(idx)
    gen = rng.substream(29, "mix")
    values = {
        "x": gen.normal_array((16, 2)),
        "wr": gen.normal_array((6, 2, 2)),
        "wi": gen.normal_array((6, 2, 2)),
    }

    def loss(p):
        y = spectral_channel_mix(p["x"], p["wr"], p["wi"], idx, 4, 4, adjacency_rows=rows)
        return tensor_sum(square(y))

    check_gradients(loss, values)

    # Two calls give bit-identical outputs and VJPs.
    g = gen.normal_array((16, 2))
    runs = []
    for _ in range(2):
        params = [Tensor(values[k], requires_grad=True) for k in ("x", "wr", "wi")]
        with Tape():
            out = spectral_channel_mix(*params, idx, 4, 4, adjacency_rows=rows)
        runs.append([out.data] + list(out._vjp(g)))
    for first, second in zip(*runs):
        assert first.tobytes() == second.tobytes()


def test_spectral_channel_mix_matches_composed_primitives():
    # A 4x4 grid with modes that fill no product set and no batch axis, and
    # the production shape: 32x32, k_max 8, spectral adjacency, batch 2.
    for h, k_max, batch, channels in [(4, None, None, 3), (32, 8, 2, 4)]:
        _check_fused_against_composed(h, k_max, batch, channels)


def _check_fused_against_composed(h, k_max, batch, channels):
    # Independent route: compose the generic fft2/gather/matmul/scatter/ifft2
    # primitives and compare against the fused node, values and gradients.
    from sparkpde.autodiff import fft2, ifft2, reshape, sub as t_sub
    from sparkpde.grids import retained_mode_indices

    w = h
    n = h * w
    idx = np.array([0, 2, 5, 9]) if k_max is None else retained_mode_indices(h, w, k_max)
    k = len(idx)
    b = 1 if batch is None else batch
    c = channels
    lead = () if batch is None else (batch,)
    gen = rng.substream(31, f"fused-vs-composed/{h}")
    x0 = gen.normal_array(lead + (n, c))
    wr0 = gen.normal_array((k, c, c))
    wi0 = gen.normal_array((k, c, c))
    grid = GridGraph(h, w, normalization="row")

    def composed(p):
        images = transpose(reshape(p["x"], (b, h, w, c)), (0, 3, 1, 2))
        sr, si = fft2(images, Tensor(np.zeros((b, c, h, w))))
        sr = transpose(reshape(sr, (b * c, n)), (1, 0))
        si = transpose(reshape(si, (b * c, n)), (1, 0))
        sr = sparse_matmul(grid.adjacency, sr, grid.adjacency_t)
        si = sparse_matmul(grid.adjacency, si, grid.adjacency_t)
        tr = reshape(gather_rows(sr, idx), (k, b, c))
        ti = reshape(gather_rows(si, idx), (k, b, c))
        yr = t_sub(matmul(tr, p["wr"]), matmul(ti, p["wi"]))
        yi = matmul(tr, p["wi"]) + matmul(ti, p["wr"])
        fr = scatter_rows(reshape(yr, (k, b * c)), idx, n)
        fi = scatter_rows(reshape(yi, (k, b * c)), idx, n)
        fr = reshape(transpose(fr, (1, 0)), (b, c, h, w))
        fi = reshape(transpose(fi, (1, 0)), (b, c, h, w))
        out_r, _ = ifft2(fr, fi)
        return reshape(transpose(out_r, (0, 2, 3, 1)), lead + (n, c))

    def fused(p):
        return spectral_channel_mix(
            p["x"], p["wr"], p["wi"], idx, h, w,
            adjacency_rows=grid.adjacency_row_slice(idx),
        )

    values = {"x": x0, "wr": wr0, "wi": wi0}
    params = {key: Tensor(v) for key, v in values.items()}
    np.testing.assert_allclose(
        fused(params).data, composed(params).data, rtol=1e-12, atol=1e-12
    )

    def loss_fused(p):
        return tensor_sum(square(fused(p)))

    def loss_composed(p):
        return tensor_sum(square(composed(p)))

    g1 = tape_gradients(loss_fused, values)
    g2 = tape_gradients(loss_composed, values)
    for key in values:
        np.testing.assert_allclose(g1[key], g2[key], rtol=1e-10, atol=1e-10)


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
        "div": lambda p: tensor_sum(square(p["x"] / (p["y"] * p["y"] + 2.0))),
        "gelu": lambda p: tensor_sum(gelu(p["x"])),
        "tanh": lambda p: tensor_sum(tanh(p["x"])),
        "square": lambda p: tensor_sum(square(p["x"])),
        "mean": lambda p: tensor_mean(p["x"] * p["y"]),
    }
    for name, fn in cases.items():
        worst = check_gradients(fn, {"x": x0.copy(), "y": y0.copy()})
        assert worst < 1e-4, name
