"""Shared oracles for the test suite.

Finite differences and the direct O(N^2) DFT are defined here once and kept
independent of the implementation paths they check; ``spectral_projection``
is the one helper that runs the library's spectral op, for the oracles to
read.
"""

from __future__ import annotations

import numpy as np

from sparkpde.autodiff import Tape, Tensor, backward, spectral_channel_mix


def finite_difference(fn, values: dict[str, np.ndarray], step: float = 1e-6) -> dict[str, np.ndarray]:
    """Central finite differences of a scalar function of named arrays."""
    grads = {}
    for name, base in values.items():
        flat = base.reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            bumped = {k: v.copy() for k, v in values.items()}
            bumped[name].reshape(-1)[i] = flat[i] + step
            f_plus = fn(bumped)
            bumped[name].reshape(-1)[i] = flat[i] - step
            f_minus = fn(bumped)
            g[i] = (f_plus - f_minus) / (2.0 * step)
        grads[name] = g.reshape(base.shape)
    return grads


def tape_gradients(build_loss, values: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Gradients of ``build_loss`` (params dict -> scalar Tensor) via the tape."""
    params = {name: Tensor(v.copy(), requires_grad=True, name=name) for name, v in values.items()}
    with Tape() as tape:
        loss = build_loss(params)
    return backward(loss, tape, params=params.values())


def check_gradients(build_loss, values, step=1e-6, rtol=1e-4, fd_loss=None) -> float:
    """Assert tape gradients match finite differences; returns worst relative error.

    The finite differences are taken of ``fd_loss`` when given (a function
    whose derivative the tape is meant to compute, such as one with its
    stop-gradient operands frozen), else of ``build_loss`` itself.
    """
    reference = build_loss if fd_loss is None else fd_loss

    def scalar_fn(arrays):
        params = {name: Tensor(v) for name, v in arrays.items()}
        return reference(params).item()

    fd = finite_difference(scalar_fn, values, step=step)
    ad = tape_gradients(build_loss, values)
    worst = 0.0
    for name in values:
        denom = max(np.max(np.abs(fd[name])), 1e-8)
        err = np.max(np.abs(ad[name] - fd[name])) / denom
        worst = max(worst, err)
        assert err < rtol, f"gradient mismatch for '{name}': rel err {err:.3e}"
    return worst


def direct_dft2(real: np.ndarray, imag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """O(N^2) textbook 2-D DFT, unnormalized forward convention.

    Every coefficient is the full double sum over the grid of x[r, c] times
    exp(-2j*pi*(kr*r/H + kc*c/W)); no separable or fast factorization.
    """
    x = real + 1j * imag
    h, w = x.shape
    kr = np.arange(h)[:, None, None, None]
    kc = np.arange(w)[None, :, None, None]
    r = np.arange(h)[None, None, :, None]
    c = np.arange(w)[None, None, None, :]
    basis = np.exp(-2j * np.pi * (kr * r / h + kc * c / w))
    out = np.sum(basis * x, axis=(2, 3))
    return out.real, out.imag


def spectral_projection(x: np.ndarray, mode_idx, h: int, w: int, weight: complex = 1.0) -> np.ndarray:
    """``spectral_channel_mix`` with ``weight`` times the identity channel mix
    on every mode of ``mode_idx``; at weight 1 it is the projection
    P x = real(IDFT(mask * DFT(x))), so the transform conventions show in P.
    """
    k, c = len(mode_idx), x.shape[-1]
    eye = np.broadcast_to(np.eye(c), (k, c, c))
    return spectral_channel_mix(
        Tensor(x), weight.real * eye, weight.imag * eye, np.asarray(mode_idx), h, w
    ).data


def direct_spectral_mix(x: np.ndarray, weights: np.ndarray, mode_idx, h: int, w: int) -> np.ndarray:
    """real(IDFT(W * trunc(DFT(x)))) on a row-major (H*W, C_in) real field,
    built on ``direct_dft2``: the oracle of ``spectral_channel_mix`` without
    adjacency. ``weights`` is the complex (K, C_in, C_out) mix of the modes
    ``mode_idx``; the inverse is ifft2(z) = conj(fft2(conj(z))) / (H*W).
    """
    n = h * w
    spectra = np.empty((n, x.shape[1]), dtype=np.complex128)
    for ci in range(x.shape[1]):
        sr, si = direct_dft2(x[:, ci].reshape(h, w), np.zeros((h, w)))
        spectra[:, ci] = (sr + 1j * si).reshape(-1)
    mixed = np.zeros((n, weights.shape[-1]), dtype=np.complex128)
    mixed[mode_idx] = np.einsum("ki,kio->ko", spectra[mode_idx], weights)
    out = np.empty(mixed.shape)
    for co in range(mixed.shape[1]):
        z = mixed[:, co].reshape(h, w)
        fr, _ = direct_dft2(z.real, -z.imag)
        out[:, co] = fr.reshape(-1) / n
    return out
