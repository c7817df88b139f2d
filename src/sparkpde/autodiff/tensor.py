"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every differentiable operation in this package is built from the primitives
here. Recording is explicit: operations executed inside a ``with Tape():``
block append their node to that tape; outside a tape they are plain numpy
computations (used for frozen models and data generation). ``parameters``
enumerates a model's named tensors by walking its weight dataclasses.

``backward`` replays the tape once, in reverse recording order. Recording
order is a topological order by construction (an op can only consume already
created tensors), so each node's adjoint is complete when visited and every
node is visited exactly once. Gradients of parameters never touched by the
tape are exactly zero. ``backward`` adds a second contribution into a fresh
array it then owns, and later ones into that array in place; arrays a VJP
hands out (``add`` passes on g itself) are never written. VJPs return None
for operands that need no gradient.

``graph_layer`` is one Fourier-graph ODE layer, gelu(spectral + (A x) W + b),
and ``gnn_layer`` one GNN-encoder layer, h R + gelu(concat([h, A h]) W + b),
each as a single node that keeps only A x (or A h) and the GeLU's slope; their
values and gradients are bit-equal to those of the separate ops.

Complex spectral weights are represented as explicit real/imaginary tensor
pairs. The one spectral op, ``spectral_channel_mix``, takes its DFTs with
real GEMMs: unnormalized forward and 1/(H*W) inverse, as ``np.fft.fft2`` and
``np.fft.ifft2``. Which Fourier modes it keeps (|k| <= k_max per axis) and the
matrices it applies are one ``SpectralPlan``, which ``spectral_plan`` builds
once per spectral layer, with that layer's weights. The module keeps no state
besides the active tape.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np
from scipy import sparse as _sparse
from scipy.special import erf as _erf

from ..errors import ContractViolation, NumericError

Array = np.ndarray

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

_ACTIVE_TAPE: "Tape | None" = None


def _asarray(value) -> Array:
    arr = np.asarray(value, dtype=np.float64)
    return arr


class Tensor:
    """A float64 array, optionally recorded on the active tape.

    ``_vjp`` maps the output cotangent to a tuple of cotangents aligned with
    ``_parents``; entries may be None for non-differentiable parents.
    """

    __slots__ = ("data", "requires_grad", "name", "_parents", "_vjp", "_op")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = _asarray(data)
        self.requires_grad = requires_grad
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[Array], tuple] | None = None
        self._op: str = "leaf"

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, op={self._op}{label})"

    # -- arithmetic sugar ---------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractViolation("item() requires a scalar tensor")
        return float(self.data.reshape(()))


def parameter(data, name: str) -> Tensor:
    """A named trainable leaf tensor."""
    return Tensor(data, requires_grad=True, name=name)


def parameters(*models) -> dict[str, Tensor]:
    """Every tensor of ``models`` by its name, from dataclass fields and list
    items walked depth first in declaration order; anything else (None,
    arrays, tuples such as a ``SpectralPlan``) is skipped. The order is part of
    the trained bytes: the dynamics weight decay sums in it (w_alpha, each ODE
    layer's wf_real, wf_imag, w and b, then the decoder). A missing or repeated
    name is a ``ContractViolation``."""
    out: dict[str, Tensor] = {}

    def visit(value) -> None:
        if isinstance(value, Tensor):
            if value.name is None or value.name in out:
                raise ContractViolation(f"parameter names must be set and unique: {value.name!r}")
            out[value.name] = value
        elif isinstance(value, list):
            for item in value:
                visit(item)
        elif dataclasses.is_dataclass(value):
            for f in dataclasses.fields(value):
                visit(getattr(value, f.name))

    for model in models:
        visit(model)
    return out


class Tape:
    """Ordered record of primitive operations for one backward pass."""

    def __init__(self):
        self._nodes: list[Tensor] = []

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        self._previous = _ACTIVE_TAPE
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = self._previous


def tape_recording() -> bool:
    """Whether a ``Tape`` is recording. There is one active tape per process,
    shared by every thread."""
    return _ACTIVE_TAPE is not None


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _recording(parents: tuple[Tensor, ...]) -> bool:
    """Whether an op on ``parents`` would be recorded: a tape is active and
    some parent needs grads."""
    return _ACTIVE_TAPE is not None and any(p.requires_grad for p in parents)


def _record(out: Tensor, parents: tuple[Tensor, ...], vjp, op: str) -> Tensor:
    """Attach provenance to ``out`` if recording is on and any parent needs grads."""
    if _recording(parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
        out._op = op
        _ACTIVE_TAPE._nodes.append(out)
    return out


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# -- elementwise primitives ---------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data + b.data)

    def vjp(g):
        return (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(g, b.shape) if b.requires_grad else None,
        )

    return _record(out, (a, b), vjp, "add")


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data - b.data)

    def vjp(g):
        return (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(-g, b.shape) if b.requires_grad else None,
        )

    return _record(out, (a, b), vjp, "sub")


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data * b.data)

    def vjp(g):
        return (
            _unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.shape) if b.requires_grad else None,
        )

    return _record(out, (a, b), vjp, "mul")


def square(a) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(a.data * a.data)

    def vjp(g):
        return (2.0 * a.data * g,)

    return _record(out, (a,), vjp, "square")


def gelu(a) -> Tensor:
    """Exact (erf-form) GeLU."""
    a = _as_tensor(a)
    cdf = 0.5 * (1.0 + _erf(a.data * _INV_SQRT2))
    out = Tensor(a.data * cdf)

    def vjp(g):
        pdf = _INV_SQRT2PI * np.exp(-0.5 * a.data * a.data)
        return (g * (cdf + a.data * pdf),)

    return _record(out, (a,), vjp, "gelu")


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    y = np.tanh(a.data)
    out = Tensor(y)

    def vjp(g):
        return (g * (1.0 - y * y),)

    return _record(out, (a,), vjp, "tanh")


def stop_gradient(a) -> Tensor:
    """Identity forward; blocks all gradient flow backward."""
    a = _as_tensor(a)
    return Tensor(a.data)


# -- reductions and shape ops --------------------------------------------------


def tensor_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(np.sum(a.data, axis=axis, keepdims=keepdims))

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        axes = axis if isinstance(axis, tuple) else (axis,)
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _record(out, (a,), vjp, "sum")


def tensor_mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    if axis is None:
        count = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([a.shape[ax] for ax in axes]))
    return mul(tensor_sum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(a.data.reshape(shape))

    def vjp(g):
        return (g.reshape(a.shape),)

    return _record(out, (a,), vjp, "reshape")


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        pieces = []
        for i in range(len(tensors)):
            index = [slice(None)] * g.ndim
            index[axis] = slice(offsets[i], offsets[i + 1])
            pieces.append(g[tuple(index)])
        return tuple(pieces)

    return _record(out, tuple(tensors), vjp, "concat")


def gather_rows(a, indices: Array) -> Tensor:
    """Select rows along axis 0; repeated indices accumulate in backward."""
    a = _as_tensor(a)
    idx = np.asarray(indices, dtype=np.int64)
    out = Tensor(a.data[idx])

    def vjp(g):
        grad = np.zeros(a.shape, dtype=np.float64)
        np.add.at(grad, idx, g)
        return (grad,)

    return _record(out, (a,), vjp, "gather_rows")


# -- linear algebra -------------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ContractViolation("matmul requires tensors with ndim >= 2")
    out = Tensor(a.data @ b.data)

    def vjp(g):
        ga = _unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape) if a.requires_grad else None
        gb = _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape) if b.requires_grad else None
        return (ga, gb)

    return _record(out, (a, b), vjp, "matmul")


def _along_nodes(matrix: _sparse.csr_matrix, a: Array) -> Array:
    """``matrix`` applied to axis -2 of ``a``: nodes are the product's rows and
    every (leading, channel) pair a column; returns the (..., N, D) view."""
    moved = np.moveaxis(a, -2, 0)
    flat = matrix @ moved.reshape(moved.shape[0], -1)
    return np.moveaxis(flat.reshape(moved.shape), 0, -2)


# -- spectral channel mix ----------------------------------------------------------


def _cos_sin(freqs: Array, n: int) -> tuple[Array, Array]:
    """cos and sin of 2*pi*k*m/n for k in ``freqs`` (rows) and m < n (columns)."""
    phase = (2.0 * np.pi / n) * (np.outer(freqs, np.arange(n)) % n)
    return np.cos(phase), np.sin(phase)


class SpectralPlan(NamedTuple):
    """The retained Fourier modes of one H x W grid, and the index sets and
    real DFT matrices ``spectral_channel_mix`` applies for them.

    Matrix axes that pair a frequency with re/im are laid out (freq, re/im);
    ones that pair a sample with re/im are laid out (re/im, sample).
    """

    height: int
    width: int
    mode_idx: Array  # (K,) flat spectrum indices kr*W + kc, row-major
    in_shape: tuple[int, int]  # rows x columns of the spectrum that is read
    mix_in: _sparse.csr_matrix | None  # A[mode_idx, read nodes]
    mix_in_t: _sparse.csr_matrix | None
    out_shape: tuple[int, int]  # retained rows x retained columns
    dft_h: Array  # (2R, H): real field -> complex DFT along H
    dft_w: Array  # (2S, 2W): complex -> complex DFT along W
    idft_w: Array  # (2W, 2S'): complex inverse DFT along W
    idft_h: Array  # (H, 2R'): real part of the inverse along H, times 1/(H*W)


def spectral_plan(height: int, width: int, k_max: int,
                  adjacency: _sparse.csr_matrix | None = None) -> SpectralPlan:
    """The plan of the Fourier modes with |k| <= k_max per axis on an H x W grid.

    Wavenumbers follow the DFT layout (non-negative then negative), so the
    retained modes are the product of the retained rows and the retained
    columns: the four corner blocks of the spectrum, K modes in all. With the
    grid's (H*W, H*W) ``adjacency``, the plan mixes the spectral coefficients
    across grid nodes before the channel mix, keeping the retained rows of
    A @ DFT(x). Each spectral layer builds its plan once, with its weights.
    """
    if min(height, width) < 1 or not 0 <= k_max <= min(height, width) // 2:
        raise ContractViolation(
            f"k_max={k_max} is outside [0, floor(min(H,W)/2)] on a {height}x{width} grid"
        )
    n_nodes = height * width
    if adjacency is not None and adjacency.shape != (n_nodes, n_nodes):
        raise ContractViolation(
            f"spectral_plan: adjacency must be ({n_nodes}, {n_nodes}), got {adjacency.shape}"
        )
    out_rows, out_cols = (
        np.flatnonzero(np.minimum(np.arange(n), n - np.arange(n)) <= k_max)
        for n in (height, width)
    )
    mode_idx = (out_rows[:, None] * width + out_cols[None, :]).reshape(-1)
    mix_in = mix_in_t = None
    if adjacency is None:
        in_rows, in_cols = out_rows, out_cols
    else:
        adjacency_rows = adjacency[mode_idx, :]
        # The spectrum is read on the row x column product set that covers
        # every node the retained rows of A touch.
        in_rows, in_cols = (
            np.unique(axis) for axis in np.divmod(np.unique(adjacency_rows.indices), width)
        )
        read = (in_rows[:, None] * width + in_cols[None, :]).reshape(-1)
        position = np.zeros(n_nodes, dtype=adjacency_rows.indices.dtype)
        position[read] = np.arange(len(read))
        # Same entries in the same per-row order, columns renumbered to ``read``.
        mix_in = _sparse.csr_matrix(
            (adjacency_rows.data, position[adjacency_rows.indices], adjacency_rows.indptr),
            shape=(len(mode_idx), len(read)),
        )
        mix_in_t = mix_in.T.tocsr()

    cos, sin = _cos_sin(in_rows, height)
    dft_h = np.stack([cos, -sin], axis=1).reshape(-1, height)
    cos, sin = _cos_sin(in_cols, width)
    dft_w = np.stack(
        [np.concatenate([cos, sin], axis=1), np.concatenate([-sin, cos], axis=1)], axis=1
    ).reshape(-1, 2 * width)
    cos, sin = _cos_sin(out_cols, width)
    idft_w = np.concatenate(
        [
            np.stack([cos.T, -sin.T], axis=2).reshape(width, -1),
            np.stack([sin.T, cos.T], axis=2).reshape(width, -1),
        ]
    )
    cos, sin = _cos_sin(out_rows, height)
    idft_h = np.stack([cos.T, -sin.T], axis=2).reshape(height, -1) / n_nodes
    return SpectralPlan(
        height, width, mode_idx, (len(in_rows), len(in_cols)), mix_in, mix_in_t,
        (len(out_rows), len(out_cols)), dft_h, dft_w, idft_w, idft_h,
    )


def spectral_channel_mix(x, w_real, w_imag, plan: SpectralPlan) -> Tensor:
    """Fused spectral branch: real(IDFT(trunc(A @ DFT(x)) @ W)), on grid nodes.

    x: (..., H*W, C_in) in the row-major node layout (node r*W + c) that the
    graph layers hold; the output is (..., H*W, C_out) in the same layout.
    w_real/w_imag: (K, C_in, C_out), the complex channel mix of each of the
    K retained modes of ``plan`` (``plan.mode_idx`` order); every other mode
    is zeroed. A plan built with the adjacency mixes the spectral
    coefficients across grid nodes before the channel mix, giving the
    retained rows of A @ DFT(x).

    The transforms are truncated separable DFTs made of real GEMMs, never a
    full FFT. The forward DFT runs along H, then along W, only over the rows
    and columns of the spectrum that are read: the retained ones, or with
    the adjacency those its retained rows touch. The inverse runs from the
    retained rows x columns straight to the real field. DFTs are
    unnormalized forward and 1/(H*W) inverse, as ``np.fft.fft2`` and
    ``np.fft.ifft2``. The plan's matrices are built once, with the model.

    One tape node. The VJP applies the transposes of the same matrices and
    keeps only the truncated coefficients (K x 2 x B x C_in, real and
    imaginary parts) for the weight gradient, so the memory kept per
    evaluation is O(K), not O(H*W).
    """
    x, w_real, w_imag = _as_tensor(x), _as_tensor(w_real), _as_tensor(w_imag)
    height, width = plan.height, plan.width
    k = len(plan.mode_idx)
    n_nodes = height * width
    if x.ndim < 2 or x.shape[-2] != n_nodes:
        raise ContractViolation("spectral_channel_mix: node count does not match the grid")
    lead, c_in = x.shape[:-2], x.shape[-1]
    if w_real.ndim != 3 or w_real.shape[:2] != (k, c_in) or w_imag.shape != w_real.shape:
        raise ContractViolation("spectral_channel_mix: weight shape mismatch")
    c_out = w_real.shape[-1]
    batch = int(np.prod(lead)) if lead else 1
    (in_r, in_s), (out_r, out_s) = plan.in_shape, plan.out_shape
    wr, wi = w_real.data, w_imag.data

    # Grid axes are GEMM rows; (batch, channel) ride along as columns.
    xt = x.data.reshape(batch, height, width, c_in).transpose(1, 2, 0, 3)
    xt = xt.reshape(height, width * batch * c_in)
    part = (plan.dft_h @ xt).reshape(in_r, 2 * width, batch * c_in)
    spec = (plan.dft_w @ part).reshape(in_r * in_s, 2 * batch * c_in)
    if plan.mix_in is not None:
        spec = plan.mix_in @ spec
    trunc = spec.reshape(k, 2 * batch, c_in)  # rows (re/im, batch); saved for the VJP
    u, v = trunc @ wr, trunc @ wi
    mixed = np.empty((k, 2, batch, c_out))
    np.subtract(u[:, :batch], v[:, batch:], out=mixed[:, 0])
    np.add(v[:, :batch], u[:, batch:], out=mixed[:, 1])
    field = plan.idft_w @ mixed.reshape(out_r, 2 * out_s, batch * c_out)
    field = plan.idft_h @ field.reshape(2 * out_r, width * batch * c_out)
    field = field.reshape(height, width, batch, c_out).transpose(2, 0, 1, 3)
    out = Tensor(np.ascontiguousarray(field).reshape(lead + (n_nodes, c_out)))

    def vjp(g):
        gt = g.reshape(batch, height, width, c_out).transpose(1, 2, 0, 3)
        gt = gt.reshape(height, width * batch * c_out)
        g_field = (plan.idft_h.T @ gt).reshape(out_r, 2 * width, batch * c_out)
        g_mixed = (plan.idft_w.T @ g_field).reshape(k, 2, batch, c_out)
        g_u = g_mixed.reshape(k, 2 * batch, c_out)
        g_v = np.empty((k, 2, batch, c_out))
        g_v[:, 0] = g_mixed[:, 1]
        np.negative(g_mixed[:, 0], out=g_v[:, 1])
        g_v = g_v.reshape(k, 2 * batch, c_out)
        trunc_t = trunc.swapaxes(-1, -2)
        g_wr, g_wi = trunc_t @ g_u, trunc_t @ g_v
        if not x.requires_grad:
            return (None, g_wr, g_wi)
        g_spec = g_u @ wr.swapaxes(-1, -2) + g_v @ wi.swapaxes(-1, -2)
        g_spec = g_spec.reshape(k, 2 * batch * c_in)
        if plan.mix_in_t is not None:
            g_spec = plan.mix_in_t @ g_spec
        g_part = plan.dft_w.T @ g_spec.reshape(in_r, 2 * in_s, batch * c_in)
        g_xt = plan.dft_h.T @ g_part.reshape(2 * in_r, width * batch * c_in)
        g_x = g_xt.reshape(height, width, batch, c_in).transpose(2, 0, 1, 3)
        return (np.ascontiguousarray(g_x).reshape(x.shape), g_wr, g_wi)

    return _record(out, (x, w_real, w_imag), vjp, "spectral_channel_mix")


# -- fused graph layers ------------------------------------------------------------


def _gelu_in_place(z: Array, recording: bool) -> Array | None:
    """Overwrite ``z`` with its exact (erf-form) GeLU, as ``gelu`` computes it;
    returns the slope at the old ``z`` when recording, else None."""
    cdf = 0.5 * (1.0 + _erf(z * _INV_SQRT2))
    slope = cdf + z * (_INV_SQRT2PI * np.exp(-0.5 * z * z)) if recording else None
    z *= cdf
    return slope


def graph_layer(spectral, x, adjacency: _sparse.csr_matrix, adjacency_t: _sparse.csr_matrix,
                w, b) -> Tensor:
    """One Fourier-graph ODE layer, gelu(spectral + (A x) W + b), as one tape node.

    spectral: (..., N, D_out), the layer's spectral branch (its own node);
    x: (..., N, D_in); the constant sparse (N, N) ``adjacency`` applies along
    the node axis (-2), and ``adjacency_t`` is its transpose; w: (D_in, D_out);
    b: (D_out,).

    The pre-activation is summed in place in the order of the composed ops
    (the sparse product, matmul, add, add, gelu), so values and gradients are
    theirs bit for bit. A recorded node keeps only A x and the GeLU's slope
    for its VJP; an unrecorded one keeps neither.
    """
    spectral, x, w, b = _as_tensor(spectral), _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.ndim < 2:
        raise ContractViolation("graph_layer expects an (..., N, D) operand")
    parents = (spectral, x, w, b)
    recording = _recording(parents)
    adjacent = _along_nodes(adjacency, x.data)
    z = adjacent @ w.data
    if not recording:
        adjacent = None
    z += spectral.data
    z += b.data
    slope = _gelu_in_place(z, recording)
    out = Tensor(z)

    def vjp(g):
        gz = g * slope
        g_x = g_w = g_b = None
        if x.requires_grad:
            g_x = _along_nodes(adjacency_t, gz @ w.data.swapaxes(-1, -2))
        if w.requires_grad:
            g_w = _unbroadcast(adjacent.swapaxes(-1, -2) @ gz, w.shape)
        if b.requires_grad:
            g_b = _unbroadcast(gz, b.shape)
        return (gz if spectral.requires_grad else None, g_x, g_w, g_b)

    return _record(out, parents, vjp, "graph_layer")


def gnn_layer(h, adjacency: _sparse.csr_matrix, adjacency_t: _sparse.csr_matrix,
              w, b, r=None) -> Tensor:
    """One GNN-encoder layer, h R + gelu(concat([h, A h]) W + b), as one tape node.

    h: (..., N, D_in); the constant sparse (N, N) ``adjacency`` applies along
    the node axis (-2), and ``adjacency_t`` is its transpose; w: (2 D_in,
    D_out) over the self and aggregate features; b: (D_out,); r: (D_in,
    D_out), or None for the identity skip h + gelu(...).

    One GEMM of the concatenated features, the bias and the GeLU in place,
    then the residual, in the order of the composed ops (the sparse product,
    concat, matmul, add, gelu, matmul, add); the VJP sums h's skip, self and
    aggregate contributions in the order ``backward`` sums them for those
    ops, so values and gradients are theirs bit for bit. A recorded node
    keeps only A h and the GeLU's slope, and rebuilds the concatenation for
    the gradient of w; an unrecorded one keeps neither.
    """
    h, w, b = _as_tensor(h), _as_tensor(w), _as_tensor(b)
    if h.ndim < 2:
        raise ContractViolation("gnn_layer expects an (..., N, D) operand")
    r = None if r is None else _as_tensor(r)
    parents = (h, w, b) if r is None else (h, w, b, r)
    recording = _recording(parents)
    d_in = h.shape[-1]
    adjacent = _along_nodes(adjacency, h.data)
    z = np.concatenate([h.data, adjacent], axis=-1) @ w.data
    if not recording:
        adjacent = None
    z += b.data
    slope = _gelu_in_place(z, recording)
    if r is None:
        z += h.data
        out = Tensor(z)
    else:
        skip = h.data @ r.data
        skip += z
        out = Tensor(skip)

    def vjp(g):
        gz = g * slope
        g_h = g_w = g_b = None
        if h.requires_grad:
            g_cat = gz @ w.data.swapaxes(-1, -2)
            g_h = (g if r is None else g @ r.data.swapaxes(-1, -2)) + g_cat[..., :d_in]
            g_h += _along_nodes(adjacency_t, g_cat[..., d_in:])
        if w.requires_grad:
            cat = np.concatenate([h.data, adjacent], axis=-1)
            g_w = _unbroadcast(cat.swapaxes(-1, -2) @ gz, w.shape)
        if b.requires_grad:
            g_b = _unbroadcast(gz, b.shape)
        if r is None:
            return (g_h, g_w, g_b)
        g_r = _unbroadcast(h.data.swapaxes(-1, -2) @ g, r.shape) if r.requires_grad else None
        return (g_h, g_w, g_b, g_r)

    return _record(out, parents, vjp, "gnn_layer")


# -- backward pass ----------------------------------------------------------------


def backward(
    loss: Tensor,
    tape: Tape,
    params: Iterable[Tensor],
) -> dict[str, Array]:
    """Accumulate gradients of ``loss`` through ``tape``.

    Returns a map from parameter name to gradient for ``params`` (zeros for
    parameters the loss does not reach).
    """
    if loss.data.size != 1:
        raise ContractViolation(
            f"backward expects a scalar loss, got shape {loss.shape}"
        )
    if not np.isfinite(loss.data):
        raise NumericError("backward called on a non-finite loss")

    grads: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
    # Keys whose array backward allocated itself and may add into in place.
    # Any other array may be shared: VJPs such as add's hand out g itself.
    owned: set[int] = set()
    for node in reversed(tape._nodes):
        g = grads.pop(id(node), None)
        owned.discard(id(node))
        if g is None or node._vjp is None:
            continue
        contributions = node._vjp(g)
        for parent, contrib in zip(node._parents, contributions):
            if contrib is None or not parent.requires_grad:
                continue
            # A sum is non-finite whenever an element is; it can also
            # overflow on finite elements, so only then check them all.
            with np.errstate(over="ignore", invalid="ignore"):
                total = np.sum(contrib)
            if not np.isfinite(total) and not np.all(np.isfinite(contrib)):
                raise NumericError(f"non-finite gradient in backward of '{node._op}'")
            key = id(parent)
            if key in owned:
                np.add(grads[key], contrib, out=grads[key])
            elif key in grads:
                grads[key] = np.add(grads[key], contrib, out=np.empty(parent.shape))
                owned.add(key)
            else:
                grads[key] = contrib

    result = {}
    for p in params:
        if p.name is None:
            raise ContractViolation("parameters passed to backward must be named")
        result[p.name] = grads.get(id(p), np.zeros(p.shape, dtype=np.float64))
    return result
