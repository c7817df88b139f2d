"""Parameter-fused observation encoder and reconstruction decoder.

Three pieces:

  * channel attention — two gating vectors computed from the physical
    parameters by per-branch 2-layer MLPs (``reconstruct`` on a gate's
    ``MlpWeights``) modulate a pointwise (1x1) linear branch and a global
    spectral-convolution branch, added to the input residually:
    h = x + a1 * g1(x) + a2 * g2(x). g2 mixes channels per retained Fourier
    mode through the ``ad.SpectralPlan`` that ``init_channel_attention``
    builds with its weights;
  * an L-layer GNN over the grid graph: per layer, the skip (h, or h R
    when the width changes) plus gelu(h W_self + (A h) W_neighbor + b), with
    A the neighbor-mean adjacency; the GeLU term is ``ad.graph_layer``, the
    op of the dynamics' ODE layers, with the matmul h W_self as its base;
  * a 2-layer MLP decoder back to observation space, the same ``MlpWeights``
    and ``reconstruct`` as the gates (and as the dynamics decoder).

All linear maps use the right-multiplication convention (x @ W, W is
(in, out)). The activation is exact (erf-form) GeLU. Each piece's weights are a
dataclass (the GNN's, a list of ``GnnLayer``) that ``ad.parameters`` enumerates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import PretrainSection
from .errors import ContractViolation
from .grids import GridGraph
from .rng import Xoshiro256StarStar


def _init_linear(gen: Xoshiro256StarStar, fan_in: int, fan_out: int, name: str) -> Tensor:
    std = np.sqrt(2.0 / (fan_in + fan_out))
    return ad.parameter(gen.normal_array((fan_in, fan_out)) * std, name)


def _zeros(shape, name: str) -> Tensor:
    return ad.parameter(np.zeros(shape), name)


# -- two-layer MLP ---------------------------------------------------------------


@dataclass
class MlpWeights:
    """A two-layer MLP: the decoders, and the gates of channel attention."""

    w_a: Tensor  # (d_in, hidden)
    b_a: Tensor
    w_b: Tensor  # (hidden, d_out)
    b_b: Tensor


def init_mlp_decoder(
    gen: Xoshiro256StarStar,
    d_in: int,
    hidden: int,
    d_out: int,
    prefix: str = "encoder.decoder",
) -> MlpWeights:
    return MlpWeights(
        w_a=_init_linear(gen, d_in, hidden, f"{prefix}.w_a"),
        b_a=_zeros(hidden, f"{prefix}.b_a"),
        w_b=_init_linear(gen, hidden, d_out, f"{prefix}.w_b"),
        b_b=_zeros(d_out, f"{prefix}.b_b"),
    )


def reconstruct(z: Tensor | np.ndarray, w: MlpWeights) -> Tensor:
    """Two-layer MLP applied along the last axis: gelu(z W_a + b_a) W_b + b_b."""
    z = z if isinstance(z, Tensor) else Tensor(z)
    if z.shape[-1] != w.w_a.shape[0]:
        raise ContractViolation(
            f"latent width {z.shape[-1]} does not match decoder input {w.w_a.shape[0]}"
        )
    hidden = ad.gelu(ad.matmul(z, w.w_a) + w.b_a)
    return ad.matmul(hidden, w.w_b) + w.b_b


# -- channel attention ---------------------------------------------------------


@dataclass
class ChannelAttentionWeights:
    """Per-branch gating MLPs plus the two convolutional branches."""

    gate1: MlpWeights  # delta -> a1, the pointwise branch's gate
    gate2: MlpWeights  # delta -> a2, the spectral branch's gate
    g1: Tensor  # (d, d) pointwise channel mix
    # (K, d, d) spectral weights per retained mode of the half-spectrum
    # ``plan`` (K = 153 at k_max 8 on 32x32)
    g2_real: Tensor
    g2_imag: Tensor
    plan: ad.SpectralPlan  # the retained modes and their DFT matrices


def _init_gate(
    gen: Xoshiro256StarStar, d_delta: int, hidden: int, d_obs: int, i: int
) -> MlpWeights:
    # The gate starts small (w_b ~ 0.05 N(0, 1), b_b zero), so the block
    # starts near the residual identity.
    return MlpWeights(
        w_a=_init_linear(gen, d_delta, hidden, f"encoder.attn.w1_{i}"),
        b_a=_zeros(hidden, f"encoder.attn.b1_{i}"),
        w_b=ad.parameter(gen.normal_array((hidden, d_obs)) * 0.05, f"encoder.attn.w2_{i}"),
        b_b=_zeros(d_obs, f"encoder.attn.b2_{i}"),
    )


def init_channel_attention(
    gen: Xoshiro256StarStar,
    d_obs: int,
    d_delta: int,
    hidden: int,
    grid: GridGraph,
    k_max: int,
) -> ChannelAttentionWeights:
    plan = ad.spectral_plan(grid.height, grid.width, k_max)
    # The draw order: the two gates, then the spectral weights.
    gate1 = _init_gate(gen, d_delta, hidden, d_obs, 1)
    gate2 = _init_gate(gen, d_delta, hidden, d_obs, 2)
    g2_real, g2_imag = ad.spectral_weights(gen, plan, d_obs, d_obs, 0.1 / np.sqrt(d_obs))
    return ChannelAttentionWeights(
        gate1=gate1,
        gate2=gate2,
        g1=ad.parameter(np.eye(d_obs), "encoder.attn.g1"),
        g2_real=ad.parameter(g2_real, "encoder.attn.g2_real"),
        g2_imag=ad.parameter(g2_imag, "encoder.attn.g2_imag"),
        plan=plan,
    )


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
    if d_delta != w.gate1.w_a.shape[0]:
        raise ContractViolation(
            f"parameter dimension {d_delta} does not match weights ({w.gate1.w_a.shape[0]})"
        )

    # The gating MLPs run as 2-D GEMMs on (samples, d_delta) rows at any
    # leading rank; each gate then broadcasts over its sample's nodes.
    rows = delta.reshape(-1, d_delta)
    gate_shape = delta.shape[:-1] + (1, d_obs)
    a1 = reconstruct(rows, w.gate1).reshape(gate_shape)
    a2 = reconstruct(rows, w.gate2).reshape(gate_shape)

    branch1 = ad.matmul(x, w.g1)
    branch2 = ad.spectral_channel_mix(x, w.g2_real, w.g2_imag, w.plan)
    return x + a1 * branch1 + a2 * branch2


# -- GNN encoder -----------------------------------------------------------------


@dataclass
class GnnLayer:
    self_w: Tensor  # (d_in, d_out)
    neighbor_w: Tensor  # (d_in, d_out)
    combine_b: Tensor  # (d_out,)
    resid_w: Tensor | None  # (d_in, d_out) when dims differ, else identity skip


def init_gnn_encoder(
    gen: Xoshiro256StarStar,
    d_in: int,
    hidden: int,
    d_latent: int,
    n_layers: int,
) -> list[GnnLayer]:
    if n_layers < 1:
        raise ContractViolation("GNN encoder needs at least one layer")
    dims = [d_in] + [hidden] * (n_layers - 1) + [d_latent]
    layers = []
    for i in range(n_layers):
        din, dout = dims[i], dims[i + 1]
        resid = None
        if din != dout:
            resid = _init_linear(gen, din, dout, f"encoder.gnn.{i}.resid_w")
        # W_self and W_neighbor are the top and bottom halves of one
        # (2 d_in, d_out) draw, with that matrix's std.
        std = np.sqrt(2.0 / (2 * din + dout))
        self_w, neighbor_w = np.split(gen.normal_array((2 * din, dout)) * std, 2)
        layers.append(
            GnnLayer(
                self_w=ad.parameter(self_w, f"encoder.gnn.{i}.self_w"),
                neighbor_w=ad.parameter(neighbor_w, f"encoder.gnn.{i}.neighbor_w"),
                combine_b=_zeros(dout, f"encoder.gnn.{i}.combine_b"),
                resid_w=resid,
            )
        )
    return layers


def gnn_encode(h: Tensor | np.ndarray, grid: GridGraph, layers: list[GnnLayer]) -> Tensor:
    """L rounds of aggregate (neighbor mean via the normalized adjacency)
    and residual combine. h: (..., N, d) -> (..., N, D_latent).

    Each round is (h or h R) + gelu(h W_self + (A h) W_neighbor + b): the
    self term is one matmul node and the rest one ``ad.graph_layer`` node,
    which keeps A h, the GeLU's slope and W_neighbor for its VJP (A is
    symmetric, so the VJP applies A itself), then the skip. The frozen encoder
    records and keeps nothing.
    """
    h = h if isinstance(h, Tensor) else Tensor(h)
    if h.shape[-2] != grid.n_nodes:
        raise ContractViolation("node count does not match grid")
    for layer in layers:
        y = ad.graph_layer(
            ad.matmul(h, layer.self_w), h, grid.adjacency, layer.neighbor_w, layer.combine_b
        )
        h = (h if layer.resid_w is None else ad.matmul(h, layer.resid_w)) + y
    return h


# -- assembled stack -----------------------------------------------------------------


def transform_params(delta: np.ndarray) -> np.ndarray:
    """Parameter embedding fed to channel attention.

    Physical parameters like viscosity span decades, so they pass through
    log10 before the gating MLPs.
    """
    delta = np.asarray(delta, dtype=np.float64)
    return np.log10(np.maximum(np.abs(delta), 1e-300))


@dataclass
class EncoderStack:
    """Channel attention -> GNN encoder, with the reconstruction decoder.

    ``encode`` takes raw physical parameters and embeds them with
    ``transform_params`` itself; it is ``attend`` then ``embed``.
    """

    attention: ChannelAttentionWeights
    gnn: list[GnnLayer]
    decoder: MlpWeights

    def attend(self, x, delta: np.ndarray, grid: GridGraph) -> Tensor:
        """Channel attention of x (..., N, d_obs) under raw parameters delta
        (..., d_delta): the fused features, (..., N, d_obs)."""
        return channel_attention(x, transform_params(delta), self.attention, grid)

    def embed(self, h, grid: GridGraph) -> Tensor:
        """GNN latents (..., N, D_latent) of fused features h (..., N, d_obs)."""
        return gnn_encode(h, grid, self.gnn)

    def encode(self, x, delta: np.ndarray, grid: GridGraph) -> Tensor:
        """Latents of x (..., N, d_obs) under raw parameters delta (..., d_delta)."""
        return self.embed(self.attend(x, delta, grid), grid)


def init_encoder_stack(
    gen: Xoshiro256StarStar,
    cfg: PretrainSection,
    grid: GridGraph,
    d_obs: int,
    d_delta: int,
) -> EncoderStack:
    """The encoder stack ``cfg`` describes, for d_obs channels and d_delta parameters."""
    return EncoderStack(
        attention=init_channel_attention(
            gen, d_obs, d_delta, cfg.attention_hidden, grid, cfg.k_max
        ),
        gnn=init_gnn_encoder(gen, d_obs, cfg.hidden, cfg.d_latent, cfg.gnn_layers),
        decoder=init_mlp_decoder(gen, cfg.d_latent, cfg.hidden, d_obs),
    )
