"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every differentiable operation in this package is built from the primitives
here. Recording is explicit: operations executed inside a ``with Tape():``
block append their node to that tape; outside a tape they are plain numpy
computations (used for frozen models and data generation).

``backward`` replays the tape once, in reverse recording order. Recording
order is a topological order by construction (an op can only consume already
created tensors), so each node's adjoint is complete when visited and every
node is visited exactly once. Gradients of parameters never touched by the
tape are exactly zero.

Complex spectral weights are represented as explicit real/imaginary tensor
pairs. The one spectral op, ``spectral_channel_mix``, takes its DFTs with
real GEMMs: unnormalized forward and 1/(H*W) inverse, as ``np.fft.fft2`` and
``np.fft.ifft2``.
"""

from __future__ import annotations

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


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _record(out: Tensor, parents: tuple[Tensor, ...], vjp, op: str) -> Tensor:
    """Attach provenance to ``out`` if recording is on and any parent needs grads."""
    tape = _ACTIVE_TAPE
    if tape is not None and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
        out._op = op
        tape._nodes.append(out)
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
        return (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape))

    return _record(out, (a, b), vjp, "add")


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data - b.data)

    def vjp(g):
        return (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape))

    return _record(out, (a, b), vjp, "sub")


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data * b.data)

    def vjp(g):
        return (
            _unbroadcast(g * b.data, a.shape),
            _unbroadcast(g * a.data, b.shape),
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
        ga = g @ b.data.swapaxes(-1, -2)
        gb = a.data.swapaxes(-1, -2) @ g
        return (_unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape))

    return _record(out, (a, b), vjp, "matmul")


def _along_nodes(matrix: _sparse.csr_matrix, a: Array) -> Array:
    """``matrix`` applied to axis -2 of ``a``: nodes are the product's rows and
    every (leading, channel) pair a column; returns the (..., N, D) view."""
    moved = np.moveaxis(a, -2, 0)
    flat = matrix @ moved.reshape(moved.shape[0], -1)
    return np.moveaxis(flat.reshape(moved.shape), 0, -2)


def sparse_matmul(matrix: _sparse.csr_matrix, x, matrix_t: _sparse.csr_matrix) -> Tensor:
    """A constant sparse (N, N) ``matrix`` applied along the node axis (-2)
    of an (..., N, D) tensor, as one tape node; the VJP applies ``matrix_t``,
    its transpose. Each leading slice gets exactly ``matrix @ x[idx]``.
    """
    x = _as_tensor(x)
    if x.ndim < 2:
        raise ContractViolation("sparse_matmul expects an (..., N, D) operand")
    out = Tensor(_along_nodes(matrix, x.data))

    def vjp(g):
        return (_along_nodes(matrix_t, g),)

    return _record(out, (x,), vjp, "sparse_matmul")


# -- spectral channel mix ----------------------------------------------------------


def _product_cover(nodes: Array, width: int) -> tuple[Array, Array, Array | None]:
    """Smallest row x column product set of grid nodes that covers ``nodes``.

    Returns the sorted rows, the sorted columns and the position of each of
    ``nodes`` in the row-major product set, or None when ``nodes`` already is
    that product set in row-major order.
    """
    rows, cols = np.divmod(nodes, width)
    cover_rows, cover_cols = np.unique(rows), np.unique(cols)
    pick = np.searchsorted(cover_rows, rows) * len(cover_cols) + np.searchsorted(cover_cols, cols)
    if len(pick) == len(cover_rows) * len(cover_cols) and np.array_equal(pick, np.arange(len(pick))):
        return cover_rows, cover_cols, None
    return cover_rows, cover_cols, pick


def _cos_sin(freqs: Array, n: int) -> tuple[Array, Array]:
    """cos and sin of 2*pi*k*m/n for k in ``freqs`` (rows) and m < n (columns)."""
    phase = (2.0 * np.pi / n) * (np.outer(freqs, np.arange(n)) % n)
    return np.cos(phase), np.sin(phase)


class _SpectralPlan(NamedTuple):
    """Index sets and real DFT matrices of one spectral_channel_mix geometry.

    Matrix axes that pair a frequency with re/im are laid out (freq, re/im);
    ones that pair a sample with re/im are laid out (re/im, sample).
    """

    in_shape: tuple[int, int]  # rows x columns of the spectrum that is read
    in_pick: Array | None  # retained modes within it (no adjacency)
    mix_in: _sparse.csr_matrix | None  # A[mode_idx, read nodes]
    mix_in_t: _sparse.csr_matrix | None
    out_shape: tuple[int, int]  # rows x columns covering the retained modes
    out_pick: Array | None  # retained modes within it
    dft_h: Array  # (2R, H): real field -> complex DFT along H
    dft_w: Array  # (2S, 2W): complex -> complex DFT along W
    idft_w: Array  # (2W, 2S'): complex inverse DFT along W
    idft_h: Array  # (H, 2R'): real part of the inverse along H, times 1/(H*W)


def _build_plan(idx: Array, height: int, width: int, adjacency_rows) -> _SpectralPlan:
    n_nodes = height * width
    if len(idx) == 0 or idx.min() < 0 or idx.max() >= n_nodes or len(np.unique(idx)) != len(idx):
        raise ContractViolation("spectral_channel_mix: mode_idx must be unique indices below H*W")
    if adjacency_rows is not None and adjacency_rows.shape != (len(idx), n_nodes):
        raise ContractViolation("spectral_channel_mix: adjacency_rows must be (K, H*W)")
    out_rows, out_cols, out_pick = _product_cover(idx, width)
    mix_in = mix_in_t = None
    if adjacency_rows is None:
        in_rows, in_cols, in_pick = out_rows, out_cols, out_pick
    else:
        in_rows, in_cols, _ = _product_cover(np.unique(adjacency_rows.indices), width)
        in_pick = None
        read = (in_rows[:, None] * width + in_cols[None, :]).reshape(-1)
        position = np.zeros(n_nodes, dtype=adjacency_rows.indices.dtype)
        position[read] = np.arange(len(read))
        # Same entries in the same per-row order, columns renumbered to ``read``.
        mix_in = _sparse.csr_matrix(
            (adjacency_rows.data, position[adjacency_rows.indices], adjacency_rows.indptr),
            shape=(len(idx), len(read)),
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
    return _SpectralPlan(
        (len(in_rows), len(in_cols)), in_pick, mix_in, mix_in_t,
        (len(out_rows), len(out_cols)), out_pick, dft_h, dft_w, idft_w, idft_h,
    )


_PLANS: dict[tuple, _SpectralPlan] = {}
_MAX_PLANS = 16


def _spectral_plan(idx: Array, height: int, width: int, adjacency_rows) -> _SpectralPlan:
    """The plan for this geometry, memoized on the content of its inputs."""
    key = (height, width, idx.tobytes())
    if adjacency_rows is not None:
        key += (
            adjacency_rows.indptr.tobytes(),
            adjacency_rows.indices.tobytes(),
            adjacency_rows.data.tobytes(),
        )
    plan = _PLANS.get(key)
    if plan is None:
        if len(_PLANS) >= _MAX_PLANS:
            del _PLANS[next(iter(_PLANS))]
        plan = _PLANS[key] = _build_plan(idx, height, width, adjacency_rows)
    return plan


def spectral_channel_mix(
    x,
    w_real,
    w_imag,
    mode_idx: Array,
    height: int,
    width: int,
    adjacency_rows: _sparse.csr_matrix | None = None,
) -> Tensor:
    """Fused spectral branch: real(IDFT(trunc(A @ DFT(x)) @ W)), on grid nodes.

    x: (..., H*W, C_in) in the row-major node layout (node r*W + c) that the
    graph layers hold; the output is (..., H*W, C_out) in the same layout.
    w_real/w_imag: (K, C_in, C_out), the complex channel mix of each retained
    mode. ``mode_idx`` holds K unique flat spectrum indices kr*W + kc (DFT
    layout); every other mode is zeroed. ``adjacency_rows`` = A[mode_idx, :]
    optionally mixes spectral coefficients across grid nodes before the
    channel mix, giving the retained rows of A @ DFT(x).

    The transforms are truncated separable DFTs made of real GEMMs, never a
    full FFT. The forward DFT runs along H, then along W, only over the rows
    and columns of the spectrum that are read: those the columns of
    ``adjacency_rows`` touch, else the retained modes' bounding row x column
    product set (gathered when the modes do not fill it). The inverse runs
    from the retained modes' product set straight to the real field. DFTs
    are unnormalized forward and 1/(H*W) inverse, as ``np.fft.fft2`` and
    ``np.fft.ifft2``.
    The DFT matrices and index sets are built once per geometry and reused.

    One tape node. The VJP applies the transposes of the same matrices and
    keeps only the truncated coefficients (K x 2 x B x C_in, real and
    imaginary parts) for the weight gradient, so the memory kept per
    evaluation is O(K), not O(H*W).
    """
    x, w_real, w_imag = _as_tensor(x), _as_tensor(w_real), _as_tensor(w_imag)
    idx = np.asarray(mode_idx, dtype=np.int64)
    k = len(idx)
    n_nodes = height * width
    if x.ndim < 2 or x.shape[-2] != n_nodes:
        raise ContractViolation("spectral_channel_mix: node count does not match the grid")
    lead, c_in = x.shape[:-2], x.shape[-1]
    if w_real.ndim != 3 or w_real.shape[:2] != (k, c_in) or w_imag.shape != w_real.shape:
        raise ContractViolation("spectral_channel_mix: weight shape mismatch")
    c_out = w_real.shape[-1]
    batch = int(np.prod(lead)) if lead else 1
    plan = _spectral_plan(idx, height, width, adjacency_rows)
    (in_r, in_s), (out_r, out_s) = plan.in_shape, plan.out_shape
    wr, wi = w_real.data, w_imag.data

    # Grid axes are GEMM rows; (batch, channel) ride along as columns.
    xt = x.data.reshape(batch, height, width, c_in).transpose(1, 2, 0, 3)
    xt = xt.reshape(height, width * batch * c_in)
    part = (plan.dft_h @ xt).reshape(in_r, 2 * width, batch * c_in)
    spec = (plan.dft_w @ part).reshape(in_r * in_s, 2 * batch * c_in)
    if plan.mix_in is not None:
        spec = plan.mix_in @ spec
    elif plan.in_pick is not None:
        spec = spec[plan.in_pick]
    trunc = spec.reshape(k, 2 * batch, c_in)  # rows (re/im, batch); saved for the VJP
    u, v = trunc @ wr, trunc @ wi
    mixed = np.empty((k, 2, batch, c_out))
    np.subtract(u[:, :batch], v[:, batch:], out=mixed[:, 0])
    np.add(v[:, :batch], u[:, batch:], out=mixed[:, 1])
    mixed = mixed.reshape(k, 2 * batch * c_out)
    if plan.out_pick is not None:
        full = np.zeros((out_r * out_s, 2 * batch * c_out))
        full[plan.out_pick] = mixed
        mixed = full
    field = plan.idft_w @ mixed.reshape(out_r, 2 * out_s, batch * c_out)
    field = plan.idft_h @ field.reshape(2 * out_r, width * batch * c_out)
    field = field.reshape(height, width, batch, c_out).transpose(2, 0, 1, 3)
    out = Tensor(np.ascontiguousarray(field).reshape(lead + (n_nodes, c_out)))

    def vjp(g):
        gt = g.reshape(batch, height, width, c_out).transpose(1, 2, 0, 3)
        gt = gt.reshape(height, width * batch * c_out)
        g_field = (plan.idft_h.T @ gt).reshape(out_r, 2 * width, batch * c_out)
        g_mixed = (plan.idft_w.T @ g_field).reshape(out_r * out_s, 2, batch, c_out)
        if plan.out_pick is not None:
            g_mixed = g_mixed[plan.out_pick]
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
        elif plan.in_pick is not None:
            full_g = np.zeros((in_r * in_s, 2 * batch * c_in))
            full_g[plan.in_pick] = g_spec
            g_spec = full_g
        g_part = plan.dft_w.T @ g_spec.reshape(in_r, 2 * in_s, batch * c_in)
        g_xt = plan.dft_h.T @ g_part.reshape(2 * in_r, width * batch * c_in)
        g_x = g_xt.reshape(height, width, batch, c_in).transpose(2, 0, 1, 3)
        return (np.ascontiguousarray(g_x).reshape(x.shape), g_wr, g_wi)

    return _record(out, (x, w_real, w_imag), vjp, "spectral_channel_mix")


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
    for node in reversed(tape._nodes):
        g = grads.pop(id(node), None)
        if g is None or node._vjp is None:
            continue
        contributions = node._vjp(g)
        for parent, contrib in zip(node._parents, contributions):
            if contrib is None or not parent.requires_grad:
                continue
            if not np.all(np.isfinite(contrib)):
                raise NumericError(f"non-finite gradient in backward of '{node._op}'")
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + contrib
            else:
                grads[key] = contrib

    result = {}
    for p in params:
        if p.name is None:
            raise ContractViolation("parameters passed to backward must be named")
        result[p.name] = grads.get(id(p), np.zeros(p.shape, dtype=np.float64))
    return result
