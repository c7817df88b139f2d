"""Spectral transform contracts of ``spectral_channel_mix``, the one spectral op
of the model: DFT oracle, round trip, truncated Parseval, gradients. Most
read the op as the projection P of ``helpers.spectral_projection``.
"""

from __future__ import annotations

import numpy as np
import pytest

from sparkpde import rng
from sparkpde.autodiff import Tensor, spectral_channel_mix, square, tensor_sum
from sparkpde.errors import ContractViolation
from sparkpde.grids import GridGraph, retained_mode_indices

from helpers import check_gradients, direct_spectral_mix, spectral_projection


def _field(stream: str, n: int, c: int) -> np.ndarray:
    return rng.substream(2024, stream).normal_array((n, c))


def test_constant_field_dc_coefficient():
    # P_{0} x = X_0 / (H*W): the DC coefficient of a constant c is 16c and
    # real (weight i reads -Im(X_0)); every other mode is zero.
    c = 2.75
    x = np.full((16, 1), c)
    np.testing.assert_allclose(spectral_projection(x, [0], 4, 4), c, rtol=0, atol=1e-12)
    np.testing.assert_allclose(spectral_projection(x, [0], 4, 4, weight=1j), 0.0, atol=1e-12)
    np.testing.assert_allclose(spectral_projection(x, np.arange(1, 16), 4, 4), 0.0, atol=1e-12)


@pytest.mark.parametrize("size", [4, 8, 16, 32, 33])
def test_round_trip_identity(size):
    x = _field(f"rt/{size}", size * size, 2)
    out = spectral_projection(x, np.arange(size * size), size, size)
    np.testing.assert_allclose(out, x, rtol=0, atol=1e-10)


def test_single_sine_mode_locations():
    # sin(2*pi*c/W) = (e^{+} - e^{-}) / 2i: modes (0, 1) and (0, W-1) carry
    # all of it, each with |X| = H*W/2, so either alone gives x/2.
    h = w = 8
    x = np.tile(np.sin(2 * np.pi * np.arange(w) / w), h).reshape(-1, 1)
    np.testing.assert_allclose(spectral_projection(x, [1, w - 1], h, w), x, atol=1e-9)
    np.testing.assert_allclose(spectral_projection(x, [1], h, w), x / 2, atol=1e-9)
    np.testing.assert_allclose(spectral_projection(x, [w - 1], h, w), x / 2, atol=1e-9)
    rest = np.setdiff1d(np.arange(h * w), [1, w - 1])
    np.testing.assert_allclose(spectral_projection(x, rest, h, w), 0.0, atol=1e-9)


@pytest.mark.parametrize("size", [4, 8, 16, 33])
def test_matches_direct_dft_oracle(size):
    # Random complex per-mode weights on a truncated and on the full mode set.
    gen = rng.substream(2024, f"oracle/{size}")
    x = gen.normal_array((size * size, 2))
    for k_max in (size // 4, size // 2):
        idx = retained_mode_indices(size, size, k_max)
        wr = gen.normal_array((len(idx), 2, 3))
        wi = gen.normal_array((len(idx), 2, 3))
        out = spectral_channel_mix(Tensor(x), wr, wi, idx, size, size).data
        ref = direct_spectral_mix(x, wr + 1j * wi, idx, size, size)
        scale = max(1.0, np.max(np.abs(ref)))
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-9 * scale)


@pytest.mark.parametrize("size", [4, 8, 16, 32, 33])
def test_parseval(size):
    # The retained set is closed under k -> -k, so P x is real and
    # ||P x||^2 = sum_{k in K} |X_k|^2 / (H*W).
    x = _field(f"parseval/{size}", size * size, 1)
    power = np.abs(np.fft.fft2(x[:, 0].reshape(size, size))).reshape(-1) ** 2
    for k_max in (1, size // 4, size // 2):
        idx = retained_mode_indices(size, size, k_max)
        space = np.sum(spectral_projection(x, idx, size, size) ** 2)
        freq = np.sum(power[idx]) / (size * size)
        assert abs(space - freq) / freq < 1e-10, k_max


@pytest.mark.parametrize("adjacency", [False, True], ids=["plain", "adjacency"])
def test_non_square_gradient_matches_finite_differences(adjacency):
    # H != W with W odd, and modes that fill no row x column product set.
    h, w = 6, 5
    idx = np.array([0, 1, 6, 13, 29])
    rows = GridGraph(h, w).adjacency_row_slice(idx) if adjacency else None
    gen = rng.substream(2024, f"grad/{adjacency}")
    values = {
        "x": gen.normal_array((2, h * w, 2)),
        "wr": gen.normal_array((len(idx), 2, 3)),
        "wi": gen.normal_array((len(idx), 2, 3)),
    }

    def loss(p):
        y = spectral_channel_mix(p["x"], p["wr"], p["wi"], idx, h, w, adjacency_rows=rows)
        return tensor_sum(square(y))

    check_gradients(loss, values)


def test_shape_mismatch_rejected():
    x = Tensor(np.zeros((16, 2)))
    wr = np.zeros((2, 2, 2))
    with pytest.raises(ContractViolation):
        spectral_channel_mix(x, wr, np.zeros((2, 2, 3)), np.array([0, 1]), 4, 4)
    with pytest.raises(ContractViolation):
        spectral_channel_mix(x, wr, wr, np.array([0, 1]), 4, 5)
    with pytest.raises(ContractViolation):
        spectral_channel_mix(x, wr, wr, np.array([0, 0]), 4, 4)
