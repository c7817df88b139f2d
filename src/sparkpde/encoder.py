"""Parameter-fused observation encoder and reconstruction decoder.

Three pieces:

  * channel attention — two gating vectors computed from the physical
    parameters by per-branch 2-layer MLPs modulate a pointwise (1x1) linear
    branch and a global spectral-convolution branch, added to the input
    residually: h = x + a1 * g1(x) + a2 * g2(x);
  * an L-layer GNN over the grid graph (neighbor-mean aggregation, residual
    combine over the concatenated self/aggregate features);
  * a 2-layer MLP decoder back to observation space.

All linear maps use the right-multiplication convention (x @ W, W is
(in, out)). Activations default to exact GeLU; "tanh" and "identity" are
selectable for ablations and oracle tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import PretrainSection
from .errors import ContractViolation
from .grids import GridGraph, retained_mode_indices
from .rng import Xoshiro256StarStar


def apply_activation(x: Tensor, kind: str) -> Tensor:
    if kind == "gelu":
        return ad.gelu(x)
    if kind == "tanh":
        return ad.tanh(x)
    if kind == "identity":
        return x
    raise ContractViolation(f"unknown activation {kind!r}")


def _init_linear(gen: Xoshiro256StarStar, fan_in: int, fan_out: int, name: str) -> Tensor:
    std = np.sqrt(2.0 / (fan_in + fan_out))
    return ad.parameter(gen.normal_array((fan_in, fan_out)) * std, name)


def _zeros(shape, name: str) -> Tensor:
    return ad.parameter(np.zeros(shape), name)


# -- channel attention ---------------------------------------------------------


@dataclass
class ChannelAttentionWeights:
    """Per-branch gating MLPs plus the two convolutional branches."""

    w1_1: Tensor
    b1_1: Tensor
    w2_1: Tensor
    b2_1: Tensor
    w1_2: Tensor
    b1_2: Tensor
    w2_2: Tensor
    b2_2: Tensor
    g1: Tensor  # (d, d) pointwise channel mix
    g2_real: Tensor  # (K, d, d) spectral weights per retained mode
    g2_imag: Tensor
    mode_idx: np.ndarray
    activation: str = "gelu"

    def params(self) -> dict[str, Tensor]:
        out = {}
        for key in (
            "w1_1", "b1_1", "w2_1", "b2_1",
            "w1_2", "b1_2", "w2_2", "b2_2",
            "g1", "g2_real", "g2_imag",
        ):
            t = getattr(self, key)
            out[t.name] = t
        return out


def init_channel_attention(
    gen: Xoshiro256StarStar,
    d_obs: int,
    d_delta: int,
    hidden: int,
    grid: GridGraph,
    k_max: int,
    activation: str = "gelu",
    prefix: str = "encoder.attn",
) -> ChannelAttentionWeights:
    mode_idx = retained_mode_indices(grid.height, grid.width, k_max)
    k = len(mode_idx)
    # Gating vectors start at zero (w2/b2 zero) so the block is an exact
    # residual identity at initialization.
    spectral_std = 0.1 / np.sqrt(d_obs)
    return ChannelAttentionWeights(
        w1_1=_init_linear(gen, d_delta, hidden, f"{prefix}.w1_1"),
        b1_1=_zeros(hidden, f"{prefix}.b1_1"),
        w2_1=ad.parameter(gen.normal_array((hidden, d_obs)) * 0.05, f"{prefix}.w2_1"),
        b2_1=_zeros(d_obs, f"{prefix}.b2_1"),
        w1_2=_init_linear(gen, d_delta, hidden, f"{prefix}.w1_2"),
        b1_2=_zeros(hidden, f"{prefix}.b1_2"),
        w2_2=ad.parameter(gen.normal_array((hidden, d_obs)) * 0.05, f"{prefix}.w2_2"),
        b2_2=_zeros(d_obs, f"{prefix}.b2_2"),
        g1=ad.parameter(np.eye(d_obs), f"{prefix}.g1"),
        g2_real=ad.parameter(gen.normal_array((k, d_obs, d_obs)) * spectral_std, f"{prefix}.g2_real"),
        g2_imag=ad.parameter(gen.normal_array((k, d_obs, d_obs)) * spectral_std, f"{prefix}.g2_imag"),
        mode_idx=mode_idx,
        activation=activation,
    )


def _attention_vector(delta: Tensor, w1, b1, w2, b2, activation: str) -> Tensor:
    hidden = apply_activation(ad.matmul(delta, w1) + b1, activation)
    return ad.matmul(hidden, w2) + b2


def channel_attention(
    x: Tensor | np.ndarray,
    delta: Tensor | np.ndarray,
    w: ChannelAttentionWeights,
    grid: GridGraph,
) -> Tensor:
    """Fuse physical parameters into node features.

    x: (..., N, d) in the row-major node layout of the grid; delta:
    (..., d_delta) with the same leading shape, one parameter vector per
    leading index.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    delta = delta if isinstance(delta, Tensor) else Tensor(np.atleast_1d(delta))
    if x.shape[-2] != grid.n_nodes:
        raise ContractViolation(
            f"node count {x.shape[-2]} does not match grid ({grid.height}x{grid.width})"
        )
    d_obs, d_delta = x.shape[-1], delta.shape[-1]
    if d_delta != w.w1_1.shape[0]:
        raise ContractViolation(
            f"parameter dimension {d_delta} does not match weights ({w.w1_1.shape[0]})"
        )

    # The gating MLPs run as 2-D GEMMs on (samples, d_delta) rows at any
    # leading rank; each gate then broadcasts over its sample's nodes.
    rows = delta.reshape(-1, d_delta)
    gate_shape = delta.shape[:-1] + (1, d_obs)
    a1 = _attention_vector(rows, w.w1_1, w.b1_1, w.w2_1, w.b2_1, w.activation)
    a2 = _attention_vector(rows, w.w1_2, w.b1_2, w.w2_2, w.b2_2, w.activation)
    a1, a2 = a1.reshape(gate_shape), a2.reshape(gate_shape)

    branch1 = ad.matmul(x, w.g1)
    branch2 = ad.spectral_channel_mix(
        x, w.g2_real, w.g2_imag, w.mode_idx, grid.height, grid.width
    )
    return x + a1 * branch1 + a2 * branch2


# -- GNN encoder -----------------------------------------------------------------


@dataclass
class GnnLayer:
    combine_w: Tensor  # (2*d_in, d_out)
    combine_b: Tensor  # (d_out,)
    resid_w: Tensor | None  # (d_in, d_out) when dims differ, else identity skip


@dataclass
class GnnEncoderWeights:
    layers: list[GnnLayer] = field(default_factory=list)
    activation: str = "gelu"

    def params(self) -> dict[str, Tensor]:
        out = {}
        for layer in self.layers:
            out[layer.combine_w.name] = layer.combine_w
            out[layer.combine_b.name] = layer.combine_b
            if layer.resid_w is not None:
                out[layer.resid_w.name] = layer.resid_w
        return out


def init_gnn_encoder(
    gen: Xoshiro256StarStar,
    d_in: int,
    hidden: int,
    d_latent: int,
    n_layers: int,
    activation: str = "gelu",
    prefix: str = "encoder.gnn",
) -> GnnEncoderWeights:
    if n_layers < 1:
        raise ContractViolation("GNN encoder needs at least one layer")
    dims = [d_in] + [hidden] * (n_layers - 1) + [d_latent]
    layers = []
    for i in range(n_layers):
        din, dout = dims[i], dims[i + 1]
        resid = None
        if din != dout:
            resid = _init_linear(gen, din, dout, f"{prefix}.{i}.resid_w")
        layers.append(
            GnnLayer(
                combine_w=_init_linear(gen, 2 * din, dout, f"{prefix}.{i}.combine_w"),
                combine_b=_zeros(dout, f"{prefix}.{i}.combine_b"),
                resid_w=resid,
            )
        )
    return GnnEncoderWeights(layers=layers, activation=activation)


def gnn_encode(h: Tensor | np.ndarray, grid: GridGraph, w: GnnEncoderWeights) -> Tensor:
    """L rounds of aggregate (neighbor mean via the normalized adjacency)
    and residual combine. h: (..., N, d) -> (..., N, D_latent).

    Zero rows of the adjacency (isolated nodes, if a custom graph ever allows
    them) contribute a zero aggregate by construction of the sparse product.
    """
    h = h if isinstance(h, Tensor) else Tensor(h)
    if h.shape[-2] != grid.n_nodes:
        raise ContractViolation("node count does not match grid")
    for layer in w.layers:
        agg = ad.sparse_matmul(grid.adjacency, h, grid.adjacency_t)
        combined = ad.matmul(ad.concat([h, agg], axis=-1), layer.combine_w)
        combined = apply_activation(combined + layer.combine_b, w.activation)
        if layer.resid_w is not None:
            h = ad.matmul(h, layer.resid_w) + combined
        else:
            h = h + combined
    return h


# -- MLP decoder -------------------------------------------------------------------


@dataclass
class MlpDecoderWeights:
    w_a: Tensor  # (d_in, hidden)
    b_a: Tensor
    w_b: Tensor  # (hidden, d_out)
    b_b: Tensor
    activation: str = "gelu"

    def params(self) -> dict[str, Tensor]:
        return {t.name: t for t in (self.w_a, self.b_a, self.w_b, self.b_b)}


def init_mlp_decoder(
    gen: Xoshiro256StarStar,
    d_in: int,
    hidden: int,
    d_out: int,
    activation: str = "gelu",
    prefix: str = "encoder.decoder",
) -> MlpDecoderWeights:
    return MlpDecoderWeights(
        w_a=_init_linear(gen, d_in, hidden, f"{prefix}.w_a"),
        b_a=_zeros(hidden, f"{prefix}.b_a"),
        w_b=_init_linear(gen, hidden, d_out, f"{prefix}.w_b"),
        b_b=_zeros(d_out, f"{prefix}.b_b"),
        activation=activation,
    )


def reconstruct(z: Tensor | np.ndarray, w: MlpDecoderWeights) -> Tensor:
    """Two-layer MLP applied per node: W_b act(W_a z + b_a) + b_b."""
    z = z if isinstance(z, Tensor) else Tensor(z)
    if z.shape[-1] != w.w_a.shape[0]:
        raise ContractViolation(
            f"latent width {z.shape[-1]} does not match decoder input {w.w_a.shape[0]}"
        )
    hidden = apply_activation(ad.matmul(z, w.w_a) + w.b_a, w.activation)
    return ad.matmul(hidden, w.w_b) + w.b_b


# -- assembled stack -----------------------------------------------------------------


def transform_params(delta: np.ndarray, mode: str) -> np.ndarray:
    """Parameter embedding fed to channel attention.

    Physical parameters like viscosity span decades, so the default maps them
    through log10 before the gating MLPs.
    """
    delta = np.asarray(delta, dtype=np.float64)
    if mode == "identity":
        return delta
    if mode == "log10":
        return np.log10(np.maximum(np.abs(delta), 1e-300))
    raise ContractViolation(f"unknown param transform {mode!r}")


@dataclass
class EncoderStack:
    """Channel attention -> GNN encoder, with the reconstruction decoder.

    ``encode`` takes raw physical parameters and embeds them with
    ``param_transform`` itself.
    """

    attention: ChannelAttentionWeights
    gnn: GnnEncoderWeights
    decoder: MlpDecoderWeights
    param_transform: str

    def params(self) -> dict[str, Tensor]:
        out = {}
        out.update(self.attention.params())
        out.update(self.gnn.params())
        out.update(self.decoder.params())
        return out

    def encode(self, x, delta: np.ndarray, grid: GridGraph) -> Tensor:
        """Latents of x (..., N, d_obs) under raw parameters delta (..., d_delta)."""
        embedded = transform_params(delta, self.param_transform)
        return gnn_encode(channel_attention(x, embedded, self.attention, grid), grid, self.gnn)


def init_encoder_stack(
    gen: Xoshiro256StarStar,
    cfg: PretrainSection,
    grid: GridGraph,
    d_obs: int,
    d_delta: int,
) -> EncoderStack:
    """The encoder stack ``cfg`` describes, for d_obs channels and d_delta parameters."""
    act = cfg.activation
    return EncoderStack(
        attention=init_channel_attention(
            gen, d_obs, d_delta, cfg.attention_hidden, grid, cfg.k_max, act
        ),
        gnn=init_gnn_encoder(gen, d_obs, cfg.hidden, cfg.d_latent, cfg.gnn_layers, act),
        decoder=init_mlp_decoder(gen, cfg.d_latent, cfg.hidden, d_obs, act),
        param_transform=cfg.param_transform,
    )
