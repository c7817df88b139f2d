"""Latent forecaster: temporal attention, Fourier-enhanced graph ODE, decoder.

A history of frozen-encoder latents is pooled into an initial state by a
node-wise temporal attention (scores against the tanh-transformed mean
state), evolved by a stack of ODE layers combining a spectral branch
(adjacency applied to Fourier coefficients, per-mode channel mixing over
retained modes) with a spatial graph branch, and decoded to observations by
a separate two-layer MLP. Every layer works on the (..., N, D) node
layout at any leading rank and records two tape nodes: the spectral branch
(``ad.spectral_channel_mix``), which computes only the retained modes by
truncated DFTs made of real matrix products, and ``ad.graph_layer``, which
applies the adjacency along the node axis, the spatial mix, the bias and the
GeLU, and keeps only A H and the GeLU's slope for its VJP. The spectral
branches of all layers share one ``ad.SpectralPlan`` (the retained modes, the
adjacency's rows for them and the DFT matrices), which ``init_dynamics``
builds with the weights.
Integration is classical fixed-step RK4 (or Euler) unrolled on the tape, so
gradients are exact for the discretized system.
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
from .datagen import EpisodeDataset
from .encoder import EncoderStack, MlpDecoderWeights, init_mlp_decoder
from .errors import ContractViolation, NumericError
from .grids import GridGraph
from .rng import Xoshiro256StarStar, derive_seed, substream
from .state_dictionary import Codebook, scheduled_lr

log = logging.getLogger("sparkpde")


@dataclass
class OdeLayer:
    wf_real: Tensor  # (K, D, D) spectral channel mixing per retained mode
    wf_imag: Tensor
    w: Tensor  # (D, D) spatial mixing
    b: Tensor  # (D,)


@dataclass
class DynamicsWeights:
    w_alpha: Tensor  # (D, D) temporal attention
    layers: list[OdeLayer]
    decoder: MlpDecoderWeights
    plan: ad.SpectralPlan  # the retained modes, the adjacency's rows and the DFT matrices


def init_dynamics(
    gen: Xoshiro256StarStar,
    cfg: DynamicsSection,
    grid: GridGraph,
    d_latent: int,
    d_obs: int,
) -> DynamicsWeights:
    """The forecaster ``cfg`` describes, for d_latent latents and d_obs channels."""
    plan = ad.spectral_plan(grid.height, grid.width, cfg.k_max, grid.adjacency)
    k = len(plan.mode_idx)
    spectral_std = 0.1 / np.sqrt(d_latent)
    spatial_std = 0.5 / np.sqrt(d_latent)
    layers = []
    for i in range(cfg.ode_layers):
        layers.append(
            OdeLayer(
                wf_real=ad.parameter(
                    gen.normal_array((k, d_latent, d_latent)) * spectral_std,
                    f"dynamics.{i}.wf_real",
                ),
                wf_imag=ad.parameter(
                    gen.normal_array((k, d_latent, d_latent)) * spectral_std,
                    f"dynamics.{i}.wf_imag",
                ),
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
    """
    state = h if isinstance(h, Tensor) else Tensor(h)
    if state.shape[-2] != grid.n_nodes:
        raise ContractViolation("node count does not match grid")
    total: Tensor | None = None
    for layer in w.layers:
        # Recording order sets the order gradients accumulate in, and so the
        # trained bytes: the spectral op is recorded first.
        spectral = ad.spectral_channel_mix(state, layer.wf_real, layer.wf_imag, w.plan)
        y = ad.graph_layer(
            spectral, state, grid.adjacency, grid.adjacency_t, layer.w, layer.b
        )
        total = y if total is None else total + y
        state = y
    return total


def integrate(
    h0: Tensor | np.ndarray,
    rhs: Callable[[Tensor], Tensor],
    times: list[float],
    solver: str = "rk4",
    substeps: int = 4,
) -> Tensor:
    """Fixed-step integration through the requested times, fully on the tape.

    ``substeps`` counts steps per unit time; each interval gets at least one
    step. Returns the trajectory stacked along a new leading time axis.
    """
    if solver not in SOLVERS:
        raise ContractViolation(f"solver must be one of {SOLVERS}")
    if substeps < 1:
        raise ContractViolation("substeps must be at least 1")
    prev_t = 0.0
    for t in times:
        if t <= prev_t:
            raise ContractViolation("times must be strictly increasing and positive")
        prev_t = t

    state = h0 if isinstance(h0, Tensor) else Tensor(h0)
    outputs = []
    prev_t = 0.0
    for t in times:
        span = t - prev_t
        n_steps = max(1, int(round(substeps * span)))
        dt = span / n_steps
        for _ in range(n_steps):
            if solver == "euler":
                state = state + dt * rhs(state)
            else:
                k1 = rhs(state)
                k2 = rhs(state + (0.5 * dt) * k1)
                k3 = rhs(state + (0.5 * dt) * k2)
                k4 = rhs(state + dt * k3)
                state = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(state.data)):
            finite = np.abs(state.data[np.isfinite(state.data)])
            raise NumericError(
                f"integration diverged at t={t:g} "
                f"(max finite |H| = {np.max(finite, initial=0.0):g})"
            )
        outputs.append(state.reshape(1, *state.shape))
        prev_t = t
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
    """Frozen-encoder latents for every frame of one episode."""
    ep = ds.episodes[episode_idx]
    x = ds.normalize(ep.x)
    return encoder.encode(x, np.tile(ep.delta, (x.shape[0], 1)), ds.grid).data


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
    for e_idx, ep in enumerate(ds.episodes):
        if ep.split != split:
            continue
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
        h0,
        lambda s: ode_rhs(s, grid, weights),
        times=[float(j) for j in range(1, horizon + 1)],
        solver=cfg.solver,
        substeps=cfg.substeps,
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
    from .evaluation import forecast_windows  # evaluation imports this module

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

    in_episodes = [i for i, ep in enumerate(ds.episodes) if ep.split == "in"]
    if not in_episodes:
        raise ContractViolation("dataset has no in-domain episodes")
    latents = {i: episode_latents(ds, encoder, i) for i in in_episodes}

    windows = _windows(ds, cfg, "in", cfg.window_stride)
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
        all_latents = np.concatenate([latents[i].reshape(-1, d_latent) for i in in_episodes])
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
        if not np.isfinite(mse_value):
            raise NumericError(f"dynamics training diverged at epoch {epoch}, batch {index}")
        grads = backward(loss, tape, params=params.values())
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
            batches = forecast_windows(latents, ds, val_windows, weights, cfg, cfg.batch_size, "in")
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
