"""Shared oracles for the test suite.

Finite differences and the direct O(N^2) DFT are defined here once and kept
independent of the implementation paths they check.
"""

from __future__ import annotations

import numpy as np

from sparkpde.autodiff import Tape, Tensor, backward


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
    """O(N^2) textbook 2-D DFT, unnormalized forward convention."""
    x = real + 1j * imag
    h, w = x.shape
    out = np.zeros((h, w), dtype=np.complex128)
    for kr in range(h):
        for kc in range(w):
            acc = 0.0 + 0.0j
            for r in range(h):
                for c in range(w):
                    acc += x[r, c] * np.exp(-2j * np.pi * (kr * r / h + kc * c / w))
            out[kr, kc] = acc
    return out.real, out.imag
