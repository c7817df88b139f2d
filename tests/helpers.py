"""Shared oracles for the test suite.

Finite differences, the direct O(N^2) DFT, the erf-form GeLU and the
one-word-at-a-time random draws are defined here once and kept independent
of the implementation paths they check; ``spectral_projection`` is the one
helper that runs the library's spectral op, for the oracles to read.
``full_modes`` lists the full-spectrum mode set a plan halves, and
``embed_weights`` places a plan's weights in it, so the full-spectrum
oracles check the half-spectrum op.
``sparse_matmul`` records a symmetric sparse adjacency's product as a
separate tape node, for the composed-op oracles of the fused graph layers,
and ``reference_adjacency`` builds the grid adjacency node by node, for the
oracle of ``GridGraph``'s closed form and its column order.
``recorded_twice`` runs a model call twice on a tape, with the spectral
plans it takes recorded. ``set_cores`` patches the CPU affinity the pools and
``backward`` read. ``with_table_shape`` crafts inconsistent
checkpoints and ``write_parameter_lengths`` inconsistent datasets for the
format tests.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np
from scipy import sparse

from sparkpde import autodiff
from sparkpde.autodiff import Tape, Tensor, backward, spectral_channel_mix, square, tensor_sum
from sparkpde.autodiff.tensor import _record
from sparkpde.container import pack_str, write_container


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


def sparse_matmul(matrix, x) -> Tensor:
    """A constant symmetric sparse (N, N) ``matrix`` applied to each (N, D)
    slice of an (..., N, D) tensor, ``matrix @ x[idx]``, as one recorded node
    whose VJP applies ``matrix`` too, its own transpose."""
    x = x if isinstance(x, Tensor) else Tensor(x)

    def along_nodes(m, a):
        out = np.empty(a.shape)
        for idx in np.ndindex(*a.shape[:-2]):
            out[idx] = m @ a[idx]
        return out

    return _record(
        Tensor(along_nodes(matrix, x.data)), (x,),
        lambda g: (along_nodes(matrix, g),), "sparse_matmul",
    )


def reference_adjacency(height: int, width: int):
    """A of the periodic H x W 4-neighbour mean, built node by node: a COO
    matrix of each node's distinct neighbours, its duplicates summed and
    reset to 1, row-normalized by ``diags(1 / degree) @ binary``. The CSR
    rows hold their columns in the order scipy's sparse product emits them,
    the order every forward pass summed in before ``GridGraph`` built A in
    closed form."""
    n = height * width
    rows, cols = [], []
    for r in range(height):
        for c in range(width):
            i = r * width + c
            for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                j = (r + dr) % height * width + (c + dc) % width
                if j != i:
                    rows.append(i)
                    cols.append(j)
    binary = sparse.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    binary.sum_duplicates()
    binary.data[:] = 1.0
    binary = binary.tocsr()
    degrees = np.asarray(binary.sum(axis=1)).reshape(-1)
    return (sparse.diags(1.0 / degrees) @ binary).tocsr()


_erf = np.vectorize(math.erf, otypes=[np.float64])


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact GeLU, x * Phi(x), with the standard library's erf elementwise."""
    return 0.5 * x * (1.0 + _erf(x / math.sqrt(2.0)))


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


def spectral_projection(x: np.ndarray, plan, modes=None, weight: complex = 1.0) -> np.ndarray:
    """``spectral_channel_mix`` with ``weight`` times the identity channel mix
    on every mode of ``plan``, or only on the flat indices ``modes`` (zero
    weights on the plan's other modes); at weight 1 it is the projection
    P x = real(IDFT(mask * DFT(x))), so the transform conventions show in P.
    """
    on = np.ones(len(plan.mode_idx), dtype=bool)
    if modes is not None:
        assert np.isin(modes, plan.mode_idx).all(), "modes outside the plan"
        on = np.isin(plan.mode_idx, modes)
    eye = on[:, None, None] * np.eye(x.shape[-1])
    return spectral_channel_mix(Tensor(x), weight.real * eye, weight.imag * eye, plan).data


def recorded_twice(call, params: dict, monkeypatch) -> tuple[list, list]:
    """Two recorded runs of ``call()``, each as [output, gradient of
    sum(output^2) for every entry of ``params``], and the plan of every
    ``spectral_channel_mix`` call; building a plan meanwhile fails the test."""
    plans = []

    def spy(x, w_real, w_imag, plan):
        plans.append(plan)
        return spectral_channel_mix(x, w_real, w_imag, plan)

    def no_plan(*args, **kwargs):
        raise AssertionError("a spectral plan was built by a model call")

    monkeypatch.setattr(autodiff, "spectral_channel_mix", spy)
    monkeypatch.setattr(autodiff, "spectral_plan", no_plan)
    runs = []
    for _ in range(2):
        with Tape() as tape:
            out = call()
            loss = tensor_sum(square(out))
        grads = backward(loss, tape, params=params.values())
        runs.append([out.data] + [grads[name] for name in params])
    return runs, plans


def full_modes(plan) -> np.ndarray:
    """Flat indices kr*W + kc of every mode with |k| <= k_max per axis, both
    column signs, row-major: the full-spectrum mode set whose
    non-negative-column half ``plan`` keeps."""
    k_max = plan.shape[1] - 1
    ky, kx = (np.minimum(np.arange(n), n - np.arange(n)) for n in (plan.height, plan.width))
    return np.flatnonzero((ky[:, None] <= k_max) & (kx[None, :] <= k_max))


def embed_weights(plan, weights: np.ndarray) -> np.ndarray:
    """``plan``'s complex (K, C_in, C_out) weights on ``full_modes(plan)``:
    c W on each of the plan's modes, with c = 2 where the mode's conjugate
    -k is not in the plan (the plan's mode stands for both) and c = 1 where
    it is, and zero on every other mode. The full-spectrum mix with these
    weights is the plan's op: real(c W X e) = real(W X e + conj(W X e))."""
    full = full_modes(plan)
    kr, kc = np.divmod(plan.mode_idx, plan.width)
    conj = (-kr % plan.height) * plan.width + (-kc % plan.width)
    c = np.where(np.isin(conj, plan.mode_idx), 1.0, 2.0)
    out = np.zeros((len(full),) + weights.shape[1:], dtype=np.complex128)
    out[np.searchsorted(full, plan.mode_idx)] = c[:, None, None] * weights
    return out


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


def scalar_uniform(gen, n: int) -> np.ndarray:
    """``n`` uniforms from ``n`` calls of ``gen.next_u64``: the reference for
    the lane-vectorized ``uniform(n)``."""
    out = np.empty(n, dtype=np.float64)
    for i in range(n):
        out[i] = (gen.next_u64() >> 11) * 2.0**-53
    return out


def scalar_normal(gen, n: int) -> np.ndarray:
    """Box-Muller one pair of ``gen.next_u64`` words at a time (cosine, then
    sine; an odd ``n`` drops the last sine): the reference for the
    lane-vectorized ``normal(n)``."""
    out = np.empty(n, dtype=np.float64)
    i = 0
    while i < n:
        # u1 in (0, 1] so log() is finite.
        u1 = 1.0 - ((gen.next_u64() >> 11) * 2.0**-53)
        u2 = (gen.next_u64() >> 11) * 2.0**-53
        r = math.sqrt(-2.0 * math.log(u1))
        out[i] = r * math.cos(2.0 * math.pi * u2)
        i += 1
        if i < n:
            out[i] = r * math.sin(2.0 * math.pi * u2)
            i += 1
    return out


def set_cores(monkeypatch, n: int) -> None:
    """Make ``os.sched_getaffinity`` report ``n`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def with_crc(body: bytes) -> bytes:
    """``body`` followed by its trailing CRC, as the container writer ends a file."""
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def with_table_shape(blob: bytes, name: str, old: tuple, new: tuple) -> bytes:
    """``blob`` with the tensor table's shape of ``name`` replaced (same rank)
    and the trailing CRC recomputed, so only the table is inconsistent."""
    entry = pack_str(name) + struct.pack("<BI", 0, len(old))
    at = blob.index(entry + struct.pack(f"<{len(old)}I", *old))
    return with_crc(
        blob[: at + len(entry)]
        + struct.pack(f"<{len(new)}I", *new)
        + blob[at + len(entry) + 4 * len(old) : -4]
    )


def write_parameter_lengths(source: str, target: str, lengths: list[int]) -> None:
    """Write to ``target`` the .spds file ``source`` with episode i's parameter
    vector replaced by ``lengths[i]`` values, spliced byte by byte, so the file
    holds parameter lengths that ``save_dataset`` refuses to write."""
    blob = Path(source).read_bytes()[:-4]
    height, width, channels, count = struct.unpack_from("<IIII", blob, 12)
    assert count == len(lengths)
    at = 28
    for _ in range(channels):
        at += 4 + struct.unpack_from("<I", blob, at)[0]
    at += 16 * channels
    parts = [blob[:at]]
    for n in lengths:
        parts.append(struct.pack("<I", n) + np.full(n, 1.0e-3).astype("<f8").tobytes())
        at += 4 + 8 * struct.unpack_from("<I", blob, at)[0]
        t_total = struct.unpack_from("<I", blob, at + 9)[0]
        end = at + 13 + 8 * t_total * height * width * channels
        parts.append(blob[at:end])
        at = end
    assert at == len(blob)
    write_container(target, b"".join(parts))
