"""Spectral transform contracts of ``spectral_plan``, ``spectral_weights`` and
``spectral_channel_mix``, the one spectral op of the model: the retained
half of the mode set, the folded initial weights, the grid adjacency's
column order, the adjacency's Fourier symbol and its precondition, DFT
oracle, round trip, truncated Parseval, gradients and the DC mode's
imaginary weights. Most read the op as the projection P of
``helpers.spectral_projection``; the full-spectrum oracles read the plan's
weights through ``helpers.embed_weights``.
"""

from __future__ import annotations

import numpy as np
import pytest

from sparkpde import rng
from sparkpde.autodiff import (
    Tensor,
    spectral_channel_mix,
    spectral_plan,
    spectral_weights,
    square,
    tensor_sum,
)
from sparkpde.errors import ContractViolation
from sparkpde.grids import GridGraph

from helpers import (
    check_gradients,
    direct_spectral_mix,
    embed_weights,
    full_modes,
    reference_adjacency,
    spectral_projection,
    tape_gradients,
)


def _field(stream: str, n: int, c: int) -> np.ndarray:
    return rng.substream(2024, stream).normal_array((n, c))


def test_constant_field_dc_coefficient():
    # P_{0} x = X_0 / (H*W): the DC coefficient of a constant c is 16c and
    # real (weight i reads -Im(X_0)); every other mode of the plan is zero.
    c = 2.75
    x = np.full((16, 1), c)
    plan = spectral_plan(4, 4, 2)
    np.testing.assert_allclose(spectral_projection(x, plan, [0]), c, rtol=0, atol=1e-12)
    np.testing.assert_allclose(spectral_projection(x, plan, [0], weight=1j), 0.0, atol=1e-12)
    np.testing.assert_allclose(spectral_projection(x, plan, plan.mode_idx[1:]), 0.0, atol=1e-12)


@pytest.mark.parametrize(
    "h, w, k_max",
    [(6, 5, 0), (6, 5, 1), (6, 5, 2), (5, 8, 2), (4, 9, 1), (8, 8, 3), (7, 7, 3), (33, 33, 16)],
)
def test_plan_keeps_modes_within_k_max_per_axis(h, w, k_max):
    # |k| = min(k, n - k) in the DFT layout; the plan keeps the modes whose
    # row wavenumber is at most k_max and whose column kc is in [0, k_max],
    # in row-major order. With their conjugates (-kr, -kc) they are the
    # modes with both wavenumbers at most k_max.
    ky = np.minimum(np.arange(h), h - np.arange(h))
    kx = np.minimum(np.arange(w), w - np.arange(w))
    expected = np.flatnonzero((ky[:, None] <= k_max) & (np.arange(w)[None, :] <= k_max))
    full = np.flatnonzero((ky[:, None] <= k_max) & (kx[None, :] <= k_max))
    for stencil in (None, GridGraph(h, w).stencil):
        plan = spectral_plan(h, w, k_max, stencil)
        np.testing.assert_array_equal(plan.mode_idx, expected)
        kr, kc = np.divmod(plan.mode_idx, w)
        conj = (-kr % h) * w + (-kc % w)
        np.testing.assert_array_equal(np.union1d(plan.mode_idx, conj), full)
        assert (plan.height, plan.width) == (h, w)
        assert plan.dft_w.shape == (2 * (k_max + 1), 2 * w)
        assert plan.idft_w.shape == (2 * w, 2 * (k_max + 1))


# Every grid shape the tests build, and the degenerate periodic ones: a single
# row (no vertical neighbour) and two rows or columns (the two neighbours on
# that axis are one node).
GRIDS = [(1, 4), (1, 5), (2, 2), (2, 5), (3, 3), (3, 4), (4, 4), (4, 5), (4, 9), (5, 7),
         (5, 8), (6, 5), (7, 7), (8, 8), (16, 16), (32, 32), (33, 33)]


@pytest.mark.parametrize("h, w", GRIDS + [(1, 2), (2, 1), (7, 1)])
def test_adjacency_rows_fix_the_summation_order(h, w):
    # A sparse product sums each row in stored order, so the column order is
    # part of the bytes: descending in A, which every forward pass and every
    # VJP applies, equal to the node-by-node build of the oracle bit for bit.
    matrix, reference = GridGraph(h, w).adjacency, reference_adjacency(h, w)
    for i in range(matrix.shape[0]):
        row = matrix.indices[matrix.indptr[i]:matrix.indptr[i + 1]]
        assert np.all(np.diff(row) < 0), (i, row)
    for field in ("indptr", "indices", "data"):
        got, want = getattr(matrix, field), getattr(reference, field)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field
    assert type(matrix) is type(reference) and matrix.shape == reference.shape


@pytest.mark.parametrize("h, w", [(1, 2), (1, 5), (2, 2), (2, 3), (3, 3), (4, 4), (5, 8),
                                  (6, 5), (16, 16), (32, 32)])
def test_grid_adjacency_is_its_own_transpose(h, w):
    # graph_layer's precondition: its VJP applies A where A^T is meant, so A
    # must equal A^T bit for bit, in values and in sparsity.
    a = GridGraph(h, w).adjacency
    got, want = a.sorted_indices(), a.T.tocsr().sorted_indices()
    for field in ("indptr", "indices", "data"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field


@pytest.mark.parametrize("h, w, message", [(0, 4, "positive"), (3, 0, "positive"),
                                            (1, 1, "isolated")])
def test_grid_rejects_grids_without_neighbours(h, w, message):
    # On a 1 x 1 grid every offset wraps to the node itself.
    with pytest.raises(ContractViolation, match=message):
        GridGraph(h, w)


@pytest.mark.parametrize("h, w", GRIDS)
def test_grid_adjacency_is_one_stencil_at_every_node(h, w):
    # The symbol's precondition: row i of A is the grid's stencil shifted to
    # node i, A[i, j] = a[j - i] with grid offsets mod (H, W).
    grid = GridGraph(h, w)
    dense = grid.adjacency.toarray().reshape(h, w, h, w)
    for r in range(h):
        for c in range(w):
            np.testing.assert_array_equal(dense[r, c], np.roll(grid.stencil, (r, c), axis=(0, 1)))


@pytest.mark.parametrize("h, w", GRIDS)
def test_adjacency_is_its_symbol_in_fourier_space(h, w):
    # A @ DFT(x) = DFT(s * x) for the plan's symbol s, and fft2 of the
    # stencil is real to rounding, so s drops nothing.
    grid = GridGraph(h, w)
    adjacency = grid.adjacency
    plan = spectral_plan(h, w, min(h, w) // 2, grid.stencil)
    assert plan.symbol.shape == (h * w,)
    assert np.max(np.abs(np.fft.fft2(grid.stencil).imag)) < 1e-15
    x = _field(f"symbol/{h}x{w}", h * w, 2)
    dft = np.kron(*(np.exp(-2j * np.pi * (np.outer(np.arange(n), np.arange(n)) % n) / n)
                    for n in (h, w)))
    lhs = adjacency @ (dft @ x)
    rhs = dft @ (plan.symbol[:, None] * x)
    assert np.max(np.abs(lhs - rhs)) <= 1e-14 * np.max(np.abs(lhs))


@pytest.mark.parametrize("size", [4, 8, 16, 32, 33])
def test_round_trip_identity(size):
    x = _field(f"rt/{size}", size * size, 2)
    out = spectral_projection(x, spectral_plan(size, size, size // 2))
    np.testing.assert_allclose(out, x, rtol=0, atol=1e-10)


def test_single_sine_mode_locations():
    # sin(2*pi*c/W) = (e^{+} - e^{-}) / 2i: modes (0, 1) and (0, W-1) carry
    # all of it, each with |X| = H*W/2. The plan keeps (0, 1), which stands
    # for its conjugate (0, W-1) too, so weight 1 on it gives x, and weight
    # 1/2 (weight 1 on one of the two in the full spectrum) gives x/2.
    h = w = 8
    plan = spectral_plan(h, w, w // 2)
    assert w - 1 not in plan.mode_idx
    x = np.tile(np.sin(2 * np.pi * np.arange(w) / w), h).reshape(-1, 1)
    np.testing.assert_allclose(spectral_projection(x, plan, [1]), x, atol=1e-9)
    np.testing.assert_allclose(spectral_projection(x, plan, [1], weight=0.5), x / 2, atol=1e-9)
    rest = np.setdiff1d(plan.mode_idx, [1])
    np.testing.assert_allclose(spectral_projection(x, plan, rest), 0.0, atol=1e-9)


@pytest.mark.parametrize("size", [4, 8, 16, 33])
def test_matches_direct_dft_oracle(size):
    # Random complex per-mode weights on a truncated and on the full mode set,
    # against the full-spectrum oracle with the plan's weights embedded.
    gen = rng.substream(2024, f"oracle/{size}")
    x = gen.normal_array((size * size, 2))
    for k_max in (size // 4, size // 2):
        plan = spectral_plan(size, size, k_max)
        wr = gen.normal_array((len(plan.mode_idx), 2, 3))
        wi = gen.normal_array((len(plan.mode_idx), 2, 3))
        out = spectral_channel_mix(Tensor(x), wr, wi, plan).data
        ref = direct_spectral_mix(x, embed_weights(plan, wr + 1j * wi), full_modes(plan),
                                  size, size)
        scale = max(1.0, np.max(np.abs(ref)))
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-9 * scale)


@pytest.mark.parametrize("size", [4, 8, 16, 32, 33])
def test_parseval(size):
    # The plan's modes and their conjugates are the retained set K, closed
    # under k -> -k, and P x is its projection, so
    # ||P x||^2 = sum_{k in K} |X_k|^2 / (H*W).
    x = _field(f"parseval/{size}", size * size, 1)
    power = np.abs(np.fft.fft2(x[:, 0].reshape(size, size))).reshape(-1) ** 2
    for k_max in (1, size // 4, size // 2):
        plan = spectral_plan(size, size, k_max)
        space = np.sum(spectral_projection(x, plan) ** 2)
        freq = np.sum(power[full_modes(plan)]) / (size * size)
        assert abs(space - freq) / freq < 1e-10, k_max


@pytest.mark.parametrize("adjacency", [False, True], ids=["plain", "adjacency"])
def test_dc_mode_imaginary_weights_get_zero_gradient(adjacency):
    # The DC coefficient of a real field (times the real symbol) is real, so
    # i X_0 W_imag lands in the imaginary part that the inverse drops: the DC
    # mode's imaginary weights never reach the output (see spectral_plan).
    # Column 0's other modes are not self-conjugate, so theirs do.
    h = w = 8
    plan = spectral_plan(h, w, 3, GridGraph(h, w).stencil if adjacency else None)
    assert plan.mode_idx[0] == 0
    gen = rng.substream(2024, f"dc/{adjacency}")
    x = gen.normal_array((2, h * w, 2))
    values = {name: gen.normal_array((len(plan.mode_idx), 2, 3)) for name in ("wr", "wi")}
    grads = tape_gradients(
        lambda p: tensor_sum(square(spectral_channel_mix(x, p["wr"], p["wi"], plan))), values
    )
    assert np.all(grads["wi"][0] == 0.0)
    assert np.all(grads["wi"][1:] != 0.0) and np.all(grads["wr"] != 0.0)


@pytest.mark.parametrize("h, w, k_max", [(32, 32, 8), (8, 8, 4), (6, 5, 2), (5, 8, 2),
                                         (4, 9, 1), (2, 2, 1), (6, 5, 0)])
def test_spectral_weights_fold_the_full_spectrum_draws(h, w, k_max):
    # The real, then imaginary, std * N(0, 1) parts of every full-spectrum
    # mode (row-major), each of the plan's modes folded with its conjugate
    # partner when that is not in the plan: (W_k + conj(W_-k)) / 2. The
    # generator ends where those two draws leave it.
    plan = spectral_plan(h, w, k_max)
    std, c_in, c_out = 0.3, 2, 3
    gen = rng.substream(2024, f"fold/{h}x{w}/{k_max}")
    got = spectral_weights(gen, plan, c_in, c_out, std)
    full = full_modes(plan)
    ref = rng.substream(2024, f"fold/{h}x{w}/{k_max}")
    draws = [ref.normal_array((len(full), c_in, c_out)) * std for _ in range(2)]
    position = {mode: i for i, mode in enumerate(full)}
    want = [np.empty((len(plan.mode_idx), c_in, c_out)) for _ in range(2)]
    for i, mode in enumerate(plan.mode_idx):
        kr, kc = divmod(mode, w)
        conj = (-kr % h) * w + (-kc % w)
        for part, sign in ((0, 1.0), (1, -1.0)):
            own = draws[part][position[mode]]
            if conj not in plan.mode_idx:
                own = (own + sign * draws[part][position[conj]]) / 2
            want[part][i] = own
    for g, r in zip(got, want):
        assert g.shape == (len(plan.mode_idx), c_in, c_out)
        np.testing.assert_array_equal(g, r)
    np.testing.assert_array_equal(gen.normal_array((4,)), ref.normal_array((4,)))


@pytest.mark.parametrize("adjacency", [False, True], ids=["plain", "adjacency"])
def test_non_square_gradient_matches_finite_differences(adjacency):
    # H != W with W odd, and weights only on modes that fill no row x column
    # product set (zero on the plan's other modes).
    h, w = 6, 5
    plan = spectral_plan(h, w, 2, GridGraph(h, w).stencil if adjacency else None)
    off = ~np.isin(plan.mode_idx, [0, 1, 6, 13, 29])
    gen = rng.substream(2024, f"grad/{adjacency}")
    values = {
        "x": gen.normal_array((2, h * w, 2)),
        "wr": gen.normal_array((len(plan.mode_idx), 2, 3)),
        "wi": gen.normal_array((len(plan.mode_idx), 2, 3)),
    }
    values["wr"][off] = values["wi"][off] = 0.0

    def loss(p):
        y = spectral_channel_mix(p["x"], p["wr"], p["wi"], plan)
        return tensor_sum(square(y))

    check_gradients(loss, values)


def test_shape_mismatch_rejected():
    x = Tensor(np.zeros((16, 2)))
    plan = spectral_plan(4, 4, 1)
    wr = np.zeros((len(plan.mode_idx), 2, 2))
    with pytest.raises(ContractViolation):
        spectral_channel_mix(x, wr, np.zeros(wr.shape[:2] + (3,)), plan)
    with pytest.raises(ContractViolation):
        spectral_channel_mix(x, wr[:2], wr[:2], plan)
    with pytest.raises(ContractViolation):
        spectral_channel_mix(x, wr, wr, spectral_plan(4, 5, 1))


@pytest.mark.parametrize("h, w, k_max", [(4, 4, 3), (6, 5, 3), (8, 8, -1)])
def test_plan_rejects_k_max_out_of_range(h, w, k_max):
    with pytest.raises(ContractViolation, match="k_max"):
        spectral_plan(h, w, k_max)


def test_plan_rejects_stencil_of_another_grid():
    with pytest.raises(ContractViolation, match="stencil"):
        spectral_plan(4, 4, 1, GridGraph(4, 5).stencil)
