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
    sparse_matmul,
    spectral_channel_mix,
    square,
    stop_gradient,
    tanh,
    tensor_mean,
    tensor_sum,
)
from sparkpde.errors import ContractViolation
from sparkpde.grids import GridGraph, retained_mode_indices

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
    # the production shape: 32x32, k_max 8, batch 2; each with and without
    # spectral adjacency.
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
    w = h
    n = h * w
    idx = np.array([0, 2, 5, 9]) if k_max is None else retained_mode_indices(h, w, k_max)
    k = len(idx)
    c = channels
    lead = () if batch is None else (batch,)
    gen = rng.substream(31, f"fused-vs-composed/{h}/{adjacency}")
    x0 = gen.normal_array(lead + (n, c))
    wr0 = gen.normal_array((k, c, c))
    wi0 = gen.normal_array((k, c, c))
    g = gen.normal_array(lead + (n, c))
    v = gen.normal_array(lead + (n, c))
    ur, ui = gen.normal_array((k, c, c)), gen.normal_array((k, c, c))
    grid = GridGraph(h, w, normalization="row")
    rows = grid.adjacency_row_slice(idx) if adjacency else None
    dense = grid.adjacency.toarray() if adjacency else None

    x = Tensor(x0, requires_grad=True)
    with Tape():
        out = spectral_channel_mix(x, wr0, wi0, idx, h, w, adjacency_rows=rows)
    np.testing.assert_allclose(
        out.data, _composed_mix(x0, wr0, wi0, idx, h, w, dense), rtol=1e-12, atol=1e-12
    )

    g_x, g_wr, g_wi = out._vjp(g)
    lhs = np.vdot(_composed_mix(v, wr0, wi0, idx, h, w, dense), g)
    rhs = np.vdot(v, g_x)
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(v) * np.linalg.norm(g_x)
    lhs = np.vdot(_composed_mix(x0, ur, ui, idx, h, w, dense), g)
    rhs = np.vdot(ur, g_wr) + np.vdot(ui, g_wi)
    scale = np.hypot(np.linalg.norm(ur), np.linalg.norm(ui)) * np.hypot(
        np.linalg.norm(g_wr), np.linalg.norm(g_wi)
    )
    assert abs(lhs - rhs) <= 1e-12 * scale


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
