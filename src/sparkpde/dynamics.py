"""Latent forecaster: temporal attention, Fourier-enhanced graph ODE, decoder.

A history of frozen-encoder latents is pooled into an initial state by a
node-wise temporal attention (scores against the tanh-transformed mean
state), evolved by a stack of ODE layers combining a spectral branch
(adjacency applied to Fourier coefficients, per-mode channel mixing over
the non-negative-column half of the retained modes) with a spatial graph
branch, and decoded to observations by a separate two-layer MLP. Every layer
works on the (..., N, D) node layout at any leading rank and records two tape
nodes: the spectral branch (``ad.spectral_channel_mix``), which computes only
the retained modes by truncated DFTs made of real matrix products, and
``ad.graph_layer``, which applies the adjacency along the node axis, the
spatial mix, the bias and the GeLU, and keeps only A H and the GeLU's slope
for its VJP. The spectral
branches of all layers share one ``ad.SpectralPlan`` (the retained modes, the
DFT matrices and the adjacency's Fourier symbol), which ``init_dynamics``
builds with the weights from ``GridGraph.stencil``. The adjacency is that
stencil at every node, so A applied to the Fourier coefficients is the field
times the symbol s, the stencil's DFT, before the DFT: A @ DFT(H) = DFT(s * H).
Integration is classical fixed-step RK4 (or Euler). Each step is one
``ad.checkpoint`` record that keeps only the step's input state; backward
recomputes the step on a private tape, so gradients are exact for the
discretized system while the tape holds one state per step.
``ad.parameters`` enumerates the weights in field order, which the weight
decay sums in, so the field order is part of the trained bytes.
"""

from __future__ import annotations

import logging
import time
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .augment import (
    augment_latents,
    augmentation_decisions,
    calibrate_tau,
    curriculum_ratio,
)
from .autodiff import AdamState, Tape, Tensor, adam_step, backward
from .config import SOLVERS, AugmentSection, DynamicsSection
from .datagen import SPLIT_IN, EpisodeDataset
from .encoder import EncoderStack, MlpWeights, init_mlp_decoder
from .errors import ContractViolation, NumericError
from .grids import GridGraph
from .rng import Xoshiro256StarStar, derive_seed, substream
from .state_dictionary import Codebook, scheduled_lr

log = logging.getLogger("sparkpde")

# Frames per GNN pass of ``episode_latents``: few, so that an episode's
# encoding holds a fraction of its GNN transients at once.
ENCODE_FRAMES = 4


@dataclass
class OdeLayer:
    # (K, D, D) spectral channel mixing per retained mode of the
    # half-spectrum plan (K = 153 at k_max 8 on 32x32)
    wf_real: Tensor
    wf_imag: Tensor
    w: Tensor  # (D, D) spatial mixing
    b: Tensor  # (D,)


@dataclass
class DynamicsWeights:
    w_alpha: Tensor  # (D, D) temporal attention
    layers: list[OdeLayer]
    decoder: MlpWeights
    # The retained modes, the DFT matrices and the adjacency's Fourier symbol
    # (the DFT of ``GridGraph.stencil``, the same at every node of the grid).
    plan: ad.SpectralPlan


def init_dynamics(
    gen: Xoshiro256StarStar,
    cfg: DynamicsSection,
    grid: GridGraph,
    d_latent: int,
    d_obs: int,
) -> DynamicsWeights:
    """The forecaster ``cfg`` describes, for d_latent latents and d_obs channels."""
    plan = ad.spectral_plan(grid.height, grid.width, cfg.k_max, grid.stencil)
    spectral_std = 0.1 / np.sqrt(d_latent)
    spatial_std = 0.5 / np.sqrt(d_latent)
    layers = []
    for i in range(cfg.ode_layers):
        wf_real, wf_imag = ad.spectral_weights(gen, plan, d_latent, d_latent, spectral_std)
        layers.append(
            OdeLayer(
                wf_real=ad.parameter(wf_real, f"dynamics.{i}.wf_real"),
                wf_imag=ad.parameter(wf_imag, f"dynamics.{i}.wf_imag"),
                w=ad.parameter(
                    gen.normal_array((d_latent, d_latent)) * spatial_std,
                    f"dynamics.{i}.w",
                ),
                b=ad.parameter(np.zeros(d_latent), f"dynamics.{i}.b"),
            )
        )
    decoder = init_mlp_decoder(
        gen, d_latent, cfg.decoder_hidden, d_obs, prefix="dynamics.decoder"
    )
    return DynamicsWeights(
        w_alpha=ad.parameter(
            gen.normal_array((d_latent, d_latent)) * (1.0 / np.sqrt(d_latent)),
            "dynamics.w_alpha",
        ),
        layers=layers,
        decoder=decoder,
        plan=plan,
    )


def encode_history(h_seq: Tensor | np.ndarray, w: DynamicsWeights) -> Tensor:
    """Attention-pooled initial state from a latent history.

    h_seq: (..., T0, N, D), time on axis -3. Per node, scores are
    alpha_t = <h_t, tanh(mean_t(h) @ W_alpha)>; the pooled state
    (..., N, D) is the time-mean of alpha_t * h_t.
    """
    h_seq = h_seq if isinstance(h_seq, Tensor) else Tensor(h_seq)
    if h_seq.ndim < 3:
        raise ContractViolation("encode_history expects (..., T0, N, D)")
    mean_state = ad.tensor_mean(h_seq, axis=-3)  # (..., N, D)
    target = ad.tanh(ad.matmul(mean_state, w.w_alpha))
    target = target.reshape(target.shape[:-2] + (1,) + target.shape[-2:])
    scores = ad.tensor_sum(h_seq * target, axis=-1, keepdims=True)
    pooled = ad.tensor_mean(scores * h_seq, axis=-3)
    if not np.all(np.isfinite(pooled.data)):
        raise NumericError("non-finite values in encoded history")
    return pooled


def ode_rhs(h: Tensor | np.ndarray, grid: GridGraph, w: DynamicsWeights) -> Tensor:
    """dH/dt per the layered spectral + spatial graph update, h: (..., N, D).

    Per layer: Y = gelu(IFFT(trunc(A.F(H)) W_F) + A H W + b), feeding Y to the
    next layer; the returned derivative is the sum of all layer outputs. Each
    layer is two tape nodes, the spectral op on ``w.plan`` and the fused graph
    layer, whose values and gradients are those of the separate ops bit for bit.
    A is the grid's one symmetric adjacency, so the graph layer's VJP applies A
    itself.
    """
    state = h if isinstance(h, Tensor) else Tensor(h)
    if state.shape[-2] != grid.n_nodes:
        raise ContractViolation("node count does not match grid")
    total: Tensor | None = None
    for layer in w.layers:
        # Recording order sets the order gradients accumulate in, and so the
        # trained bytes: the spectral op is recorded first.
        spectral = ad.spectral_channel_mix(state, layer.wf_real, layer.wf_imag, w.plan)
        y = ad.graph_layer(spectral, state, grid.adjacency, layer.w, layer.b)
        total = y if total is None else total + y
        state = y
    return total


def solver_step(state: Tensor, rhs: Callable[[Tensor], Tensor], solver: str,
                dt: float) -> Tensor:
    """One classical RK4 (or Euler) step of size ``dt`` from ``state``."""
    if solver == "euler":
        return state + dt * rhs(state)
    k1 = rhs(state)
    k2 = rhs(state + (0.5 * dt) * k1)
    k3 = rhs(state + (0.5 * dt) * k2)
    k4 = rhs(state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(
    h0: Tensor | np.ndarray,
    rhs: Callable[[Tensor], Tensor],
    horizon: int,
    solver: str = "rk4",
    substeps: int = 4,
) -> Tensor:
    """Fixed-step integration to t = 1, ..., ``horizon``, one tape record per step.

    Each unit interval takes ``substeps`` steps of dt = 1 / substeps. Returns
    the states at those times stacked along a new leading time axis. Each
    ``solver_step`` is an ``ad.checkpoint``: under a tape it keeps only its
    input state and runs again in backward, so gradients are those of the
    step recorded in place, bit for bit.
    """
    if solver not in SOLVERS:
        raise ContractViolation(f"solver must be one of {SOLVERS}")
    if substeps < 1:
        raise ContractViolation("substeps must be at least 1")
    if horizon < 1:
        raise ContractViolation("horizon must be at least 1")

    state = h0 if isinstance(h0, Tensor) else Tensor(h0)
    dt = 1.0 / substeps

    def step(s: Tensor) -> Tensor:
        return solver_step(s, rhs, solver, dt)

    outputs = []
    for t in range(1, horizon + 1):
        for _ in range(substeps):
            state = ad.checkpoint(step, state)
        if not np.all(np.isfinite(state.data)):
            finite = np.abs(state.data[np.isfinite(state.data)])
            raise NumericError(
                f"integration diverged at t={t} "
                f"(max finite |H| = {np.max(finite, initial=0.0):g})"
            )
        outputs.append(state.reshape(1, *state.shape))
    return ad.concat(outputs, axis=0)


def decode(h_t: Tensor | np.ndarray, w: DynamicsWeights) -> Tensor:
    """Observation-space decoding with the dynamics head (shared contract
    with the reconstruction decoder, separate weights)."""
    from .encoder import reconstruct

    return reconstruct(h_t, w.decoder)


# -- training -------------------------------------------------------------------


@dataclass
class EpochRow:
    epoch: int
    train_mse: float
    val_mse: float
    aug_ratio: float
    wallclock: float


@dataclass
class DynTrainResult:
    weights: DynamicsWeights
    history: list[EpochRow]
    augment_calls: int
    tau: float | None


def frozen_checksum(encoder: EncoderStack, codebook: Codebook) -> int:
    """CRC32 over all frozen tensor payloads, in name order."""
    crc = 0
    tensors = ad.parameters(encoder, codebook)
    for name in sorted(tensors):
        crc = zlib.crc32(tensors[name].data.tobytes(), crc)
    return crc & 0xFFFFFFFF


def episode_latents(ds: EpisodeDataset, encoder: EncoderStack, episode_idx: int) -> np.ndarray:
    """Frozen-encoder latents (T, N, D) for every frame of one episode, the
    bytes of ``encoder.encode`` on the whole episode.

    Channel attention runs on the whole episode: its spectral GEMMs put
    frames x channels in their columns, and OpenBLAS computes GEMMs of at
    most 4 columns on another kernel, so fewer frames would change the last
    bits (its output is only (T, N, d_obs)). The GNN then runs on
    ``ENCODE_FRAMES`` frames at a time into one preallocated array: it puts
    frames x nodes in its GEMM rows and applies the adjacency per column, so
    a chunk's bytes are the whole episode's, and its transients are a chunk's
    instead of an episode's.
    """
    ep = ds.episodes[episode_idx]
    x = ds.normalize(ep.x)
    fused = encoder.attend(x, np.tile(ep.delta, (x.shape[0], 1)), ds.grid).data
    latents = np.empty(fused.shape[:-1] + (encoder.gnn[-1].combine_b.shape[0],))
    for lo in range(0, fused.shape[0], ENCODE_FRAMES):
        chunk = slice(lo, lo + ENCODE_FRAMES)
        latents[chunk] = encoder.embed(fused[chunk], ds.grid).data
    return latents


def dynamics_loss(
    y_hat: Tensor, y: Tensor, weights: DynamicsWeights, lambda_reg: float
) -> tuple[Tensor, float]:
    """Forecast loss: per-node-step squared L2 error plus weight decay."""
    err = ad.tensor_mean(ad.tensor_sum(ad.square(y_hat - y), axis=-1))
    mse_value = err.item()
    if lambda_reg > 0:
        reg = None
        for p in ad.parameters(weights).values():
            term = ad.tensor_sum(ad.square(p))
            reg = term if reg is None else reg + term
        err = err + lambda_reg * reg
    return err, mse_value


def _windows(
    ds: EpisodeDataset, cfg: DynamicsSection, split: str, stride: int
) -> list[tuple[int, int]]:
    """(episode, start) of every t0+horizon window of ``split``, ``stride`` apart."""
    spans = []
    needed = cfg.t0 + cfg.horizon
    for e_idx in ds.split_indices(split):
        ep = ds.episodes[e_idx]
        if ep.t_total < needed:
            raise ContractViolation(
                f"episode {e_idx} has {ep.t_total} frames; needs >= {needed}"
            )
        for start in range(0, ep.t_total - needed + 1, stride):
            spans.append((e_idx, start))
    return spans


def _forecast_batch(
    latents: dict[int, np.ndarray],
    ds: EpisodeDataset,
    batch: list[tuple[int, int]],
    weights: DynamicsWeights,
    cfg: DynamicsSection,
    augmented: np.ndarray | None = None,
    aug_fn=None,
) -> tuple[Tensor, Tensor]:
    """Assemble one batch and run the forecaster; returns (y_hat, y)."""
    t0, horizon = cfg.t0, cfg.horizon
    hist = np.stack([latents[e][s : s + t0] for e, s in batch])
    future = np.stack(
        [ds.normalize(ds.episodes[e].x[s + t0 : s + t0 + horizon]) for e, s in batch]
    )
    if augmented is not None and augmented.any():
        hist = hist.copy()
        for i in np.flatnonzero(augmented):
            hist[i] = aug_fn(hist[i])
    h0 = encode_history(Tensor(hist), weights)
    grid = ds.grid
    trajectory = integrate(
        h0, lambda s: ode_rhs(s, grid, weights), horizon, cfg.solver, cfg.substeps
    )  # (T, B, N, D)
    y_hat = decode(trajectory, weights)
    y = Tensor(np.swapaxes(future, 0, 1).copy())  # (T, B, N, d)
    return y_hat, y


def train_dynamics(
    ds: EpisodeDataset,
    encoder: EncoderStack,
    codebook: Codebook,
    cfg: DynamicsSection,
    seed: int = 0,
    aug: AugmentSection | None = None,
) -> DynTrainResult:
    """Train the forecaster on in-domain windows with optional augmentation.

    The encoder and codebook stay frozen (verified by checksum). Augmentation
    replaces whole history windows with their codebook-guided versions at the
    curriculum ratio; it never touches validation windows. All randomness
    derives from the root ``seed``.
    """
    from .evaluation import encode_episodes, forecast_windows  # evaluation imports this module

    if aug is not None and min(aug.start_epoch, aug.ramp_epochs) < 0:
        raise ContractViolation(
            "augment.start_epoch/ramp_epochs are unresolved (-1); loading resolves them"
        )
    start_time = time.perf_counter()
    checksum_before = frozen_checksum(encoder, codebook)

    d_latent = codebook.dim
    weights = init_dynamics(
        substream(seed, "dynamics/init"), cfg, ds.grid, d_latent=d_latent, d_obs=ds.n_channels
    )

    latents = encode_episodes(ds, encoder, ds.split_indices(SPLIT_IN))
    if not latents:
        raise ContractViolation("dataset has no in-domain episodes")

    windows = _windows(ds, cfg, SPLIT_IN, cfg.window_stride)
    order_gen = substream(seed, "dynamics/shuffle")
    order_gen.shuffle(windows)
    n_val = int(round(len(windows) * cfg.val_fraction))
    val_windows = windows[:n_val]
    train_windows = windows[n_val:]
    if not train_windows:
        raise ContractViolation("no training windows left after validation split")

    tau = None
    aug_fn = None
    aug_calls = 0
    if aug is not None:
        decision_gen = substream(derive_seed(seed, "augment"), "curriculum")
        all_latents = np.concatenate([z.reshape(-1, d_latent) for z in latents.values()])
        tau = aug.tau if aug.tau is not None else calibrate_tau(all_latents, codebook)

        def aug_fn(window, _tau=tau):
            nonlocal aug_calls
            aug_calls += 1
            return augment_latents(window, codebook, aug, _tau)

    params = ad.parameters(weights)
    state = AdamState()
    history: list[EpochRow] = []

    def train_step(batch, decisions, lr: float, epoch: int, index: int) -> float:
        # The step's graph lives in these locals only, so it is released
        # before the next step records.
        with Tape() as tape:
            y_hat, y = _forecast_batch(
                latents, ds, batch, weights, cfg,
                augmented=decisions, aug_fn=aug_fn,
            )
            loss, mse_value = dynamics_loss(y_hat, y, weights, cfg.lambda_reg)
        diverged = f"dynamics training diverged at epoch {epoch}, batch {index}"
        if not np.isfinite(mse_value):
            raise NumericError(diverged)
        try:
            grads = backward(loss, tape, params=params.values())
        except NumericError as exc:
            raise NumericError(f"{diverged}: {exc}") from exc
        adam_step(params, grads, state, lr=lr)
        return mse_value

    for epoch in range(cfg.epochs):
        ratio = curriculum_ratio(epoch, aug) if aug is not None else 0.0
        lr = scheduled_lr(cfg.lr, epoch, cfg.epochs)
        order_gen.shuffle(train_windows)
        total, count = 0.0, 0
        for index, lo in enumerate(range(0, len(train_windows), cfg.batch_size)):
            batch = train_windows[lo : lo + cfg.batch_size]
            decisions = None  # drawn only when augmenting
            if aug is not None:
                decisions = augmentation_decisions(decision_gen, len(batch), ratio)
            mse_value = train_step(batch, decisions, lr, epoch, index)
            total += mse_value * len(batch)
            count += len(batch)
        train_mse = total / count

        val_mse = float("nan")
        if val_windows:
            v_total = 0.0
            batches = forecast_windows(
                latents, ds, val_windows, weights, cfg, cfg.batch_size, SPLIT_IN
            )
            for y_hat, y in batches:
                diff = y_hat - y
                v_total += float(np.mean(np.sum(diff * diff, axis=-1))) * y.shape[1]
            val_mse = v_total / len(val_windows)

        history.append(
            EpochRow(
                epoch=epoch,
                train_mse=train_mse,
                val_mse=val_mse,
                aug_ratio=ratio,
                wallclock=time.perf_counter() - start_time,
            )
        )
        log.info(
            "dynamics epoch %d train %.6f val %.6f aug %.2f",
            epoch, train_mse, val_mse, ratio,
        )

    if frozen_checksum(encoder, codebook) != checksum_before:
        raise ContractViolation("frozen encoder/codebook mutated during training")

    return DynTrainResult(
        weights=weights,
        history=history,
        augment_calls=aug_calls,
        tau=tau,
    )
