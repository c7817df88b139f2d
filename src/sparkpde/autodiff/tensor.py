"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every differentiable operation in this package is built from the primitives
here. Recording is explicit: operations executed inside a ``with Tape():``
block append their node to that tape; outside a tape they are plain numpy
computations (used for frozen models and data generation). ``parameters``
enumerates a model's named tensors by walking its weight dataclasses.

A tape records a ``Node`` per op: the grad keys of its operands, its VJP
and its name. A node keeps the arrays its VJP reads, until backward replays
it, and never the op's output: the output ``Tensor`` points at its node, the
tape holds no reference to it, and no VJP closure captures a ``Tensor``. So
an output lives only as long as the forward's code holds it (``add``'s VJP
keeps shapes only, ``mul``'s the other operand's array).

``checkpoint(fn, x)`` records the one node that holds a ``Tensor``: its
input ``x``. Backward re-runs ``fn(x)`` on a private tape, and the nodes it
records there take ``x``'s own grad key as a parent, so their cotangents
flow straight into the outer graph. The record keeps nothing else ``fn``
computed; the ODE unroll wraps each solver step in one, so its tape keeps
only the step states.

``backward`` replays the tape once, in reverse recording order. Recording
order is a topological order by construction (an op can only consume already
created tensors), so each node's adjoint is complete when visited and every
node is visited exactly once. It consumes the tape: each record drops its
VJP, and with it its arrays, as soon as it is replayed (a checkpoint record
drops its input), so a tape can be replayed only once. Gradients of
parameters never touched by the tape are exactly zero. ``backward`` adds a
second contribution into a fresh array it then owns, and later ones into
that array in place; arrays a VJP hands out (``add`` passes on g itself)
are never written. VJPs return None for operands that need no gradient.

``graph_layer`` is the one graph layer, gelu(base + (A x) W + b) for a
symmetric A, which its VJP applies again, as a single node that keeps A x,
the GeLU's slope and W's array; its values and gradients are bit-equal to
those of the separate ops. The Fourier-graph ODE
layer passes its spectral branch as ``base``, and the GNN-encoder layer its
self term h W_self (then adds its skip, h or h R, outside the node).
``gelu`` itself keeps one array, its slope.

Complex spectral weights are represented as explicit real/imaginary tensor
pairs. The one spectral op, ``spectral_channel_mix``, takes its DFTs with
real GEMMs: unnormalized forward and 1/(H*W) inverse, as ``np.fft.fft2`` and
``np.fft.ifft2``. Which Fourier modes it keeps (|k| <= k_max per axis, as the
non-negative-column half of the spectrum, since the fields are real and
X(-k) = conj(X(k))), the matrices it applies and the adjacency's pointwise
Fourier symbol are one ``SpectralPlan``, which ``spectral_plan`` builds once
per spectral layer; ``spectral_weights`` draws that layer's weights. The
module keeps no state besides each thread's active tape: a thread records
only on a tape it entered itself.
"""

from __future__ import annotations

import dataclasses
import math
import os
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np
from scipy import sparse as _sparse
from scipy.special import erf as _erf

from ..errors import ContractViolation, NumericError

Array = np.ndarray

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


class _ThreadState(threading.local):
    """Each thread's active tape: a thread records only on a tape it entered."""

    tape: "Tape | None" = None


_STATE = _ThreadState()


def _asarray(value) -> Array:
    arr = np.asarray(value, dtype=np.float64)
    return arr


class Tensor:
    """A float64 array, optionally recorded on the active tape.

    A recorded tensor points at its tape ``Node``; ``_vjp`` reads and
    reassigns that node's VJP, which maps the output cotangent to a tuple of
    cotangents aligned with the node's parents (None for an operand that
    needs no gradient).
    """

    __slots__ = ("data", "requires_grad", "name", "_node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = _asarray(data)
        self.requires_grad = requires_grad
        self.name = name
        self._node: Node | None = None

    @property
    def _vjp(self) -> Callable[[Array], tuple] | None:
        return None if self._node is None else self._node.vjp

    @_vjp.setter
    def _vjp(self, vjp: Callable[[Array], tuple]) -> None:
        if self._node is None:
            raise ContractViolation("only a recorded tensor has a VJP")
        self._node.vjp = vjp

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        op = "leaf" if self._node is None else self._node.op
        return f"Tensor(shape={self.data.shape}, op={op}{label})"

    # -- arithmetic sugar ---------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

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


_NO_DATA = np.empty(0)


class Node:
    """One recorded op: its operands' grad keys, its VJP and its name.

    A parent's grad key is its own node, the leaf ``Tensor`` itself when it
    needs a gradient, or None when it needs none. The node holds its output
    only weakly: ``data`` is the output's array while something else keeps
    the output alive, and an empty array once it is gone.
    """

    __slots__ = ("parents", "vjp", "op", "_out")

    def __init__(self, parents: tuple, vjp: Callable[[Array], tuple], op: str, out: Tensor):
        self.parents = parents
        self.vjp = vjp
        self.op = op
        self._out = weakref.ref(out)

    @property
    def data(self) -> Array:
        out = self._out()
        return _NO_DATA if out is None else out.data


class Tape:
    """Ordered record of primitive operations for one backward pass."""

    def __init__(self):
        self._nodes: list[Node] = []
        self._replayed = False

    def __enter__(self) -> "Tape":
        self._previous = _STATE.tape
        _STATE.tape = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _STATE.tape = self._previous


def tape_recording() -> bool:
    """Whether a ``Tape`` is recording in the calling thread. Each thread has
    its own active tape: ops another thread runs are never recorded on it."""
    return _STATE.tape is not None


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _recording(parents: tuple[Tensor, ...]) -> bool:
    """Whether an op on ``parents`` would be recorded: a tape is active and
    some parent needs grads."""
    return _STATE.tape is not None and any(p.requires_grad for p in parents)


def _grad_key(t: Tensor) -> Node | Tensor | None:
    """Where ``backward`` sums ``t``'s cotangent: its node, or the leaf itself."""
    if t._node is not None:
        return t._node
    return t if t.requires_grad else None


def _record(out: Tensor, parents: tuple[Tensor, ...], vjp, op: str) -> Tensor:
    """Record ``out``'s node if recording is on and any parent needs grads.
    ``vjp`` must capture no ``Tensor``, only the shapes, flags and arrays it
    reads."""
    if _recording(parents):
        out.requires_grad = True
        out._node = Node(tuple(_grad_key(p) for p in parents), vjp, op, out)
        _STATE.tape._nodes.append(out._node)
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


def _grad_shape(t: Tensor) -> tuple[int, ...] | None:
    """``t``'s shape if it needs a gradient, else None: all that ``add`` and
    ``sub`` keep of an operand."""
    return t.shape if t.requires_grad else None


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data + b.data)
    shape_a, shape_b = _grad_shape(a), _grad_shape(b)

    def vjp(g):
        return (
            None if shape_a is None else _unbroadcast(g, shape_a),
            None if shape_b is None else _unbroadcast(g, shape_b),
        )

    return _record(out, (a, b), vjp, "add")


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data - b.data)
    shape_a, shape_b = _grad_shape(a), _grad_shape(b)

    def vjp(g):
        return (
            None if shape_a is None else _unbroadcast(g, shape_a),
            None if shape_b is None else _unbroadcast(-g, shape_b),
        )

    return _record(out, (a, b), vjp, "sub")


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data * b.data)
    # Each operand's gradient reads the other operand's array.
    shape_a, shape_b = a.shape, b.shape
    for_a = b.data if a.requires_grad else None
    for_b = a.data if b.requires_grad else None

    def vjp(g):
        return (
            None if for_a is None else _unbroadcast(g * for_a, shape_a),
            None if for_b is None else _unbroadcast(g * for_b, shape_b),
        )

    return _record(out, (a, b), vjp, "mul")


def square(a) -> Tensor:
    a = _as_tensor(a)
    x = a.data
    out = Tensor(x * x)

    def vjp(g):
        return (2.0 * x * g,)

    return _record(out, (a,), vjp, "square")


def _gelu_cdf(z: Array) -> Array:
    """Phi(z), the standard normal CDF: the exact GeLU is z Phi(z).

    Built in one array, in place, with the operations of
    ``0.5 * (1.0 + erf(z * _INV_SQRT2))`` (IEEE products and sums commute),
    so its bits are that expression's."""
    t = np.multiply(z, _INV_SQRT2, out=np.empty(z.shape))
    _erf(t, out=t)
    t += 1.0
    t *= 0.5
    return t


def _gelu_slope(z: Array, cdf: Array) -> Array:
    """The GeLU's derivative Phi(z) + z phi(z), given ``cdf`` = Phi(z).

    Built in one array, in place, with the operations of
    ``cdf + z * (_INV_SQRT2PI * np.exp(-0.5 * z * z))`` in that order (IEEE
    products and sums commute), so its bits are that expression's."""
    t = np.multiply(-0.5, z, out=np.empty(z.shape))
    t *= z
    np.exp(t, out=t)
    t *= _INV_SQRT2PI
    t *= z
    t += cdf
    return t


def gelu(a) -> Tensor:
    """Exact (erf-form) GeLU. A recorded node keeps one array, the slope at
    the input, taken in the forward; the CDF becomes the output in place."""
    a = _as_tensor(a)
    x = a.data
    cdf = _gelu_cdf(x)
    slope = _gelu_slope(x, cdf) if _recording((a,)) else None
    cdf *= x
    out = Tensor(cdf)

    def vjp(g):
        return (g * slope,)

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
    shape = a.shape

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        axes = axis if isinstance(axis, tuple) else (axis,)
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, shape).copy(),)

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
    shape_a = a.shape

    def vjp(g):
        return (g.reshape(shape_a),)

    return _record(out, (a,), vjp, "reshape")


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        pieces = []
        for i in range(len(sizes)):
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
    shape = a.shape

    def vjp(g):
        grad = np.zeros(shape, dtype=np.float64)
        np.add.at(grad, idx, g)
        return (grad,)

    return _record(out, (a,), vjp, "gather_rows")


# -- linear algebra -------------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ContractViolation("matmul requires tensors with ndim >= 2")
    out = Tensor(a.data @ b.data)
    # Each operand's gradient reads the other operand's array.
    shape_a, shape_b = a.shape, b.shape
    for_a = b.data if a.requires_grad else None
    for_b = a.data if b.requires_grad else None

    def vjp(g):
        ga = None if for_a is None else _unbroadcast(g @ for_a.swapaxes(-1, -2), shape_a)
        gb = None if for_b is None else _unbroadcast(for_b.swapaxes(-1, -2) @ g, shape_b)
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
    """The retained Fourier modes of one H x W grid, the real DFT matrices
    ``spectral_channel_mix`` applies for them, and the adjacency's Fourier
    symbol, if any.

    Matrix axes that pair a frequency with re/im are laid out (freq, re/im);
    ones that pair a sample with re/im are laid out (re/im, sample).
    """

    height: int
    width: int
    mode_idx: Array  # (K,) flat spectrum indices kr*W + kc, row-major, kc >= 0
    shape: tuple[int, int]  # retained rows x retained columns
    symbol: Array | None  # (H*W,) real DFT of the adjacency's stencil
    dft_h: Array  # (2R, H): real field -> complex DFT along H
    dft_w: Array  # (2S, 2W): complex -> complex DFT along W
    idft_w: Array  # (2W, 2S): complex inverse DFT along W, interior columns twice
    idft_h: Array  # (H, 2R): real part of the inverse along H, times 1/(H*W)


def spectral_plan(height: int, width: int, k_max: int,
                  stencil: Array | None = None) -> SpectralPlan:
    """The plan of the Fourier modes with |k| <= k_max per axis on an H x W
    grid, kept as their non-negative-column half.

    The field is real, so X(-k) = conj(X(k)), and the op keeps only the real
    part of its inverse: a mode pair (k, -k) reaches the output only through
    W(k) + conj(W(-k)). So the plan keeps the retained rows |kr| <= k_max
    (DFT layout, non-negative then negative) times the columns
    0 <= kc <= k_max: two blocks of non-negative columns, K = (2 k_max + 1)
    (k_max + 1) modes when 2 k_max < H, as ``rfft2`` lays out a spectrum.
    Each interior column (0 < kc < W/2) stands for itself and its conjugate
    -kc, so ``idft_w`` counts it twice; column 0 and a Nyquist column
    (kc = W/2 = -kc) count once. With the grid adjacency's (H, W)
    ``stencil``, the op keeps the retained rows of A @ DFT(x) instead. Each
    spectral layer builds its plan once, with its weights.

    Some weights stay redundant, because the modes must fill a row x column
    product set: in column 0 and a Nyquist column, the modes (kr, kc) and
    (-kr, kc) are conjugates, so only W(kr, kc) + conj(W(-kr, kc)) matters,
    and the imaginary weights of a self-conjugate mode (the DC mode (0, 0),
    and (H/2, 0), (0, W/2) or (H/2, W/2) where a Nyquist row or column is
    kept) never reach the output: their gradient is exactly 0.

    Precondition: A is the same stencil a at every node, A[i, j] = a[j - i]
    with grid offsets mod (H, W), as ``GridGraph``'s periodic neighbor mean
    is by construction (``GridGraph.stencil`` is a). Such an A is circulant,
    so diagonal in Fourier space: A @ DFT(x) = DFT(s * x), where the symbol
    s = fft2(a) is real because a[d] = a[-d]. The plan keeps s.
    """
    if min(height, width) < 1 or not 0 <= k_max <= min(height, width) // 2:
        raise ContractViolation(
            f"k_max={k_max} is outside [0, floor(min(H,W)/2)] on a {height}x{width} grid"
        )
    symbol = None
    if stencil is not None:
        if stencil.shape != (height, width):
            raise ContractViolation(
                f"spectral_plan: stencil must be ({height}, {width}), got {stencil.shape}"
            )
        symbol = np.fft.fft2(stencil).real.reshape(-1)
    rows = np.flatnonzero(np.minimum(np.arange(height), height - np.arange(height)) <= k_max)
    cols = np.arange(k_max + 1)
    mode_idx = (rows[:, None] * width + cols[None, :]).reshape(-1)

    cos, sin = _cos_sin(rows, height)
    dft_h = np.stack([cos, -sin], axis=1).reshape(-1, height)
    idft_h = np.stack([cos.T, -sin.T], axis=2).reshape(height, -1) / (height * width)
    cos, sin = _cos_sin(cols, width)
    dft_w = np.stack(
        [np.concatenate([cos, sin], axis=1), np.concatenate([-sin, cos], axis=1)], axis=1
    ).reshape(-1, 2 * width)
    twice = np.where((cols > 0) & (2 * cols != width), 2.0, 1.0).repeat(2)
    idft_w = np.concatenate(
        [
            np.stack([cos.T, -sin.T], axis=2).reshape(width, -1),
            np.stack([sin.T, cos.T], axis=2).reshape(width, -1),
        ]
    ) * twice
    return SpectralPlan(
        height, width, mode_idx, (len(rows), len(cols)), symbol, dft_h, dft_w, idft_w, idft_h,
    )


def spectral_weights(gen, plan: SpectralPlan, c_in: int, c_out: int,
                     std: float) -> tuple[Array, Array]:
    """Initial (K, c_in, c_out) real and imaginary weights of ``plan``, folded
    from full-spectrum draws.

    ``gen`` draws std * N(0, 1) real parts, then imaginary parts, for every
    mode with |k| <= k_max per axis, row-major: the retained rows times the
    columns 0..k_max, then -k_max..-1. Each interior column is folded onto
    its conjugate partner, W'(kr, kc) = (W(kr, kc) + conj(W(-kr, -kc))) / 2,
    so the op with W' is the full-spectrum op with W.
    """
    rows, cols = plan.shape
    inner = cols - 1 - (2 * (cols - 1) == plan.width)  # the columns 0 < kc < W/2
    w_real = gen.normal_array((rows, cols + inner, c_in, c_out)) * std
    w_imag = gen.normal_array((rows, cols + inner, c_in, c_out)) * std
    partner = (-np.arange(rows)) % rows  # the retained rows are closed under -kr
    fold = slice(1, 1 + inner)
    half_real, half_imag = w_real[:, :cols].copy(), w_imag[:, :cols].copy()
    half_real[:, fold] = (half_real[:, fold] + w_real[partner, cols:][:, ::-1]) / 2
    half_imag[:, fold] = (half_imag[:, fold] - w_imag[partner, cols:][:, ::-1]) / 2
    return half_real.reshape(-1, c_in, c_out), half_imag.reshape(-1, c_in, c_out)


def spectral_channel_mix(x, w_real, w_imag, plan: SpectralPlan) -> Tensor:
    """Fused spectral branch: real(IDFT(trunc(A @ DFT(x)) @ W)), on grid nodes.

    x: (..., H*W, C_in) in the row-major node layout (node r*W + c) that the
    graph layers hold; the output is (..., H*W, C_out) in the same layout.
    w_real/w_imag: (K, C_in, C_out), the complex channel mix W of each of the
    K retained modes of ``plan`` (``plan.mode_idx`` order, non-negative
    columns). Its conjugate mode -k, when not retained, is mixed by conj(W),
    as the real part of the inverse reads it (``spectral_plan``); every other
    mode is zeroed. A plan built with the adjacency gives the retained rows of
    A @ DFT(x) = DFT(s * x): the field is multiplied by the plan's real
    symbol s, the DFT of the adjacency's stencil (see ``spectral_plan``), first.

    The transforms are truncated separable DFTs made of real GEMMs, never a
    full FFT. The forward DFT runs along H, then along W, only over the
    retained rows and columns of the spectrum; the inverse runs from them
    straight to the real field. DFTs are unnormalized forward and 1/(H*W)
    inverse, as ``np.fft.fft2`` and ``np.fft.ifft2``. The plan's matrices
    are built once, with the model.

    One tape node. The VJP applies the transposes of the same matrices (and
    multiplies the field's gradient by the symbol in place) and keeps only
    the truncated coefficients (K x 2 x B x C_in, real and imaginary parts)
    for the weight gradient, and the weight arrays for the field's, so the
    memory kept per evaluation is O(K), not O(H*W); it never keeps x or the
    output.
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
    rows, cols = plan.shape
    wr, wi = w_real.data, w_imag.data

    # Grid axes are GEMM rows; (batch, channel) ride along as columns.
    xt = x.data.reshape(batch, height, width, c_in).transpose(1, 2, 0, 3)
    if plan.symbol is not None:  # A @ DFT(x) = DFT(s * x)
        xt = np.multiply(xt, plan.symbol.reshape(height, width, 1, 1), out=np.empty(xt.shape))
    xt = xt.reshape(height, width * batch * c_in)
    part = (plan.dft_h @ xt).reshape(rows, 2 * width, batch * c_in)
    trunc = (plan.dft_w @ part).reshape(k, 2 * batch, c_in)  # rows (re/im, batch); kept for the VJP
    u, v = trunc @ wr, trunc @ wi
    mixed = np.empty((k, 2, batch, c_out))
    np.subtract(u[:, :batch], v[:, batch:], out=mixed[:, 0])
    np.add(v[:, :batch], u[:, batch:], out=mixed[:, 1])
    field = plan.idft_w @ mixed.reshape(rows, 2 * cols, batch * c_out)
    field = plan.idft_h @ field.reshape(2 * rows, width * batch * c_out)
    field = field.reshape(height, width, batch, c_out).transpose(2, 0, 1, 3)
    out = Tensor(np.ascontiguousarray(field).reshape(lead + (n_nodes, c_out)))
    x_shape = _grad_shape(x)

    def vjp(g):
        gt = g.reshape(batch, height, width, c_out).transpose(1, 2, 0, 3)
        gt = gt.reshape(height, width * batch * c_out)
        g_field = (plan.idft_h.T @ gt).reshape(rows, 2 * width, batch * c_out)
        g_mixed = (plan.idft_w.T @ g_field).reshape(k, 2, batch, c_out)
        g_u = g_mixed.reshape(k, 2 * batch, c_out)
        g_v = np.empty((k, 2, batch, c_out))
        g_v[:, 0] = g_mixed[:, 1]
        np.negative(g_mixed[:, 0], out=g_v[:, 1])
        g_v = g_v.reshape(k, 2 * batch, c_out)
        trunc_t = trunc.swapaxes(-1, -2)
        g_wr, g_wi = trunc_t @ g_u, trunc_t @ g_v
        if x_shape is None:
            return (None, g_wr, g_wi)
        g_spec = g_u @ wr.swapaxes(-1, -2) + g_v @ wi.swapaxes(-1, -2)
        g_part = plan.dft_w.T @ g_spec.reshape(rows, 2 * cols, batch * c_in)
        g_xt = plan.dft_h.T @ g_part.reshape(2 * rows, width * batch * c_in)
        g_xt = g_xt.reshape(height, width, batch, c_in)
        if plan.symbol is not None:
            g_xt *= plan.symbol.reshape(height, width, 1, 1)
        g_x = g_xt.transpose(2, 0, 1, 3)
        return (np.ascontiguousarray(g_x).reshape(x_shape), g_wr, g_wi)

    return _record(out, (x, w_real, w_imag), vjp, "spectral_channel_mix")


# -- fused graph layer -------------------------------------------------------------


def graph_layer(base, x, adjacency: _sparse.csr_matrix, w, b) -> Tensor:
    """One graph layer, gelu(base + (A x) W + b), as one tape node.

    base: (..., N, D_out), the term the graph branch is added to, recorded
    before the layer: the ODE layer's spectral branch, or the GNN-encoder
    layer's self term h W_self; x: (..., N, D_in); the constant sparse (N, N)
    ``adjacency`` applies along the node axis (-2); w: (D_in, D_out);
    b: (D_out,).

    Precondition: A is symmetric, A = A^T, as ``GridGraph``'s periodic
    neighbor mean is by construction. So A is its own adjoint, and the VJP
    applies the same matrix, summing each row in its stored column order.

    The pre-activation is summed in place in the order of the composed ops
    (the sparse product, matmul, add, add, gelu), and the exact (erf-form)
    GeLU is applied in place as ``gelu`` applies it, so values and gradients
    are theirs bit for bit. A recorded node keeps only A x, the GeLU's slope
    and w's array for its VJP, never x or the output; an unrecorded one keeps
    nothing.
    """
    base, x, w, b = _as_tensor(base), _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.ndim < 2:
        raise ContractViolation("graph_layer expects an (..., N, D) operand")
    parents = (base, x, w, b)
    recording = _recording(parents)
    adjacent = _along_nodes(adjacency, x.data)
    z = adjacent @ w.data
    if not recording:
        adjacent = None
    z += base.data
    z += b.data
    cdf = _gelu_cdf(z)
    slope = _gelu_slope(z, cdf) if recording else None
    z *= cdf
    out = Tensor(z)
    w_data, shape_w, shape_b = w.data, w.shape, _grad_shape(b)
    grad_base, grad_x, grad_w = base.requires_grad, x.requires_grad, w.requires_grad

    def vjp(g):
        gz = g * slope
        g_x = g_w = g_b = None
        if grad_x:
            g_x = _along_nodes(adjacency, gz @ w_data.swapaxes(-1, -2))
        if grad_w:
            # At D_in = D_out = 1 numpy takes a dot product, whose strided
            # kernel rounds differently; a contiguous A x (N doubles per
            # slice at D_in 1) keeps the composed matmul's bits.
            a_x = np.ascontiguousarray(adjacent) if adjacent.shape[-1] == 1 else adjacent
            g_w = _unbroadcast(a_x.swapaxes(-1, -2) @ gz, shape_w)
        if shape_b is not None:
            g_b = _unbroadcast(gz, shape_b)
        return (gz if grad_base else None, g_x, g_w, g_b)

    return _record(out, parents, vjp, "graph_layer")


# -- recomputation ------------------------------------------------------------------


class _Checkpoint(Node):
    """The record of ``checkpoint``: ``fn`` and its input. It has no VJP;
    backward replays the tape ``recompute`` records instead."""

    __slots__ = ("fn", "input")

    def __init__(self, fn: Callable[[Tensor], Tensor], x: Tensor, out: Tensor):
        super().__init__((_grad_key(x),), None, "checkpoint", out)
        self.fn = fn
        self.input = x

    def recompute(self) -> tuple[Tape, Node | None]:
        """``fn(input)`` recorded on a private tape, and its output's node."""
        with Tape() as tape:
            out = self.fn(self.input)
        return tape, out._node


def checkpoint(fn: Callable[[Tensor], Tensor], x) -> Tensor:
    """``fn(x)``, recorded as one node that keeps only ``x``; ``fn`` runs again
    in backward.

    With no tape recording, this is ``fn(x)``. Under a tape, ``fn`` runs with
    recording off and the tape gets one record holding ``fn`` and the input
    Tensor ``x``: backward re-runs ``fn(x)`` on a private tape, whose nodes
    take ``x``'s own grad key as a parent, and replays them from the output's
    cotangent. ``fn`` must be deterministic and return a new tensor; it may
    read parameters and other tensors, whose gradients it sums in the order
    of a tape that recorded ``fn`` in place.
    """
    x = _as_tensor(x)
    tape = _STATE.tape
    if tape is None:
        return fn(x)
    _STATE.tape = None
    try:
        out = fn(x)
    finally:
        _STATE.tape = tape
    if out is x or out._node is not None:
        raise ContractViolation("checkpoint: fn must return a new tensor")
    out.requires_grad = True
    out._node = _Checkpoint(fn, x, out)
    tape._nodes.append(out._node)
    return out


def _recomputed_ahead(records: list[_Checkpoint], pool: ThreadPoolExecutor) -> Iterator:
    """Each record's recomputation in order; while the caller uses one, the
    next is computed on ``pool``, so two recomputed tapes exist at most."""
    ahead = pool.submit(records[0].recompute)
    for record in records[1:]:
        done = ahead.result()
        ahead = pool.submit(record.recompute)
        yield done
    yield ahead.result()


# -- backward pass ----------------------------------------------------------------


class _Cotangents:
    """The cotangents of one ``backward`` and the loop that replays records
    into them. Its methods call each other through ``self``, so they form no
    reference cycle (nested functions that call each other would), and the
    cotangents are freed as soon as ``backward`` returns or raises."""

    __slots__ = ("grads", "owned")

    def __init__(self, loss: Tensor):
        # Keyed by the id of a grad key (a node, or a leaf tensor), each kept
        # alive by its tape until the key is popped.
        self.grads: dict[int, Array] = {id(_grad_key(loss)): np.ones_like(loss.data)}
        # Keys whose array backward allocated itself and may add into in
        # place. Any other array may be shared: VJPs such as add's hand out g
        # itself.
        self.owned: set[int] = set()

    def replay(self, nodes: list[Node], ahead: Iterator | None = None) -> None:
        for node in reversed(nodes):
            g = self.grads.pop(id(node), None)
            self.owned.discard(id(node))
            if isinstance(node, _Checkpoint):
                # A recomputation made ahead is taken with or without a
                # cotangent; the worker reads only the next record, so this
                # one is released once it is resumed.
                self.resume(node, g, None if ahead is None else next(ahead))
                node.fn = node.input = None
                continue
            # The node lets go of its VJP, and with it the arrays it kept.
            vjp, node.vjp = node.vjp, None
            if g is not None:
                self.accumulate(node, vjp(g))

    def accumulate(self, node: Node, contributions: tuple) -> None:
        """Sum ``node``'s VJP outputs into its parents' cotangents; those not
        stored die when this returns, before the next VJP runs."""
        grads, owned = self.grads, self.owned
        for parent, contrib in zip(node.parents, contributions):
            if contrib is None or parent is None:
                continue
            # A sum is non-finite whenever an element is; it can also
            # overflow on finite elements, so only then check them all.
            with np.errstate(over="ignore", invalid="ignore"):
                total = np.sum(contrib)
            if not np.isfinite(total) and not np.all(np.isfinite(contrib)):
                raise NumericError(f"non-finite gradient in backward of '{node.op}'")
            key = id(parent)
            if key in owned:
                np.add(grads[key], contrib, out=grads[key])
            elif key in grads:
                grads[key] = np.add(grads[key], contrib)
                owned.add(key)
            else:
                grads[key] = contrib

    def resume(self, record: _Checkpoint, g: Array | None, recomputed: tuple | None) -> None:
        """Replay ``record``'s recomputed tape from its output's cotangent ``g``;
        the tape is freed on return."""
        if g is None:
            return
        private, out = recomputed or record.recompute()
        if out is not None:
            self.grads[id(out)] = g
            self.replay(private._nodes)


def backward(
    loss: Tensor,
    tape: Tape,
    params: Iterable[Tensor],
) -> dict[str, Array]:
    """Accumulate gradients of ``loss`` through ``tape``.

    Cotangents are keyed by the tape's records (a leaf by the tensor
    itself). A record keeps only the arrays its VJP reads, never the op's
    output, so outputs the caller dropped after the forward are already
    freed; it keeps those arrays until it is replayed here, and drops its
    VJP (a checkpoint record its ``fn`` and input) once it has been. The
    tape is consumed: a second ``backward`` on it, even after one that
    raised while replaying it, is a ``ContractViolation``. A ``checkpoint``
    record is recomputed on a private tape, whose output node is seeded
    with the record's cotangent and whose nodes are replayed through the
    same loop into the same cotangents, so gradients are bit-equal to those
    of a tape that recorded ``fn`` in place. With two or more CPUs in the
    process's affinity, one worker thread recomputes the next checkpoint
    record (in reverse order) while this thread replays the current one;
    with one, they are recomputed here. Returns a map from parameter name to
    gradient for ``params`` (zeros for parameters the loss does not reach).
    """
    if tape._replayed:
        raise ContractViolation(
            "backward: this tape was already replayed, and each record let go of its"
            " arrays when it was; a tape can be replayed once"
        )
    if loss.data.size != 1:
        raise ContractViolation(
            f"backward expects a scalar loss, got shape {loss.shape}"
        )
    if not np.isfinite(loss.data):
        raise NumericError("backward called on a non-finite loss")

    cotangents = _Cotangents(loss)
    tape._replayed = True
    records = [node for node in reversed(tape._nodes) if isinstance(node, _Checkpoint)]
    if records and len(os.sched_getaffinity(0)) >= 2:
        with ThreadPoolExecutor(max_workers=1) as pool:
            cotangents.replay(tape._nodes, _recomputed_ahead(records, pool))
    else:
        cotangents.replay(tape._nodes)

    result = {}
    for p in params:
        if p.name is None:
            raise ContractViolation("parameters passed to backward must be named")
        result[p.name] = cotangents.grads.get(
            id(_grad_key(p)), np.zeros(p.shape, dtype=np.float64)
        )
    return result
