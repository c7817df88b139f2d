"""Discrete physics-rich state dictionary: quantization and pretraining.

The codebook holds M prototype vectors of width D. Quantization snaps each
latent to its nearest entry (squared Euclidean distance, ties to the lowest
index); the straight-through output forwards the entry but routes gradients
to the encoder as identity. The pretraining loss couples reconstruction with
the two stop-gradient auxiliary terms that pull codebook entries toward
encoder outputs (weight gamma) and commit encoder outputs to their entries
(weight mu).
"""

from __future__ import annotations

import logging
import time
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import AdamState, Tape, Tensor, adam_step, backward
from .config import PretrainSection
from .datagen import SPLIT_IN, EpisodeDataset
from .encoder import EncoderStack, init_encoder_stack, reconstruct
from .errors import ContractViolation, NumericError
from .rng import Xoshiro256StarStar, substream

log = logging.getLogger("sparkpde")


@dataclass
class Codebook:
    embeddings: Tensor  # (M, D), parameter name "codebook.embeddings"
    usage: np.ndarray  # (M,) int64 counts of quantize assignments

    def __post_init__(self):
        if self.embeddings.shape[0] < 2:
            raise ContractViolation("codebook needs at least 2 entries")
        if not np.all(np.isfinite(self.embeddings.data)):
            raise ContractViolation("codebook entries must be finite")

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]

    def reset_usage(self) -> None:
        self.usage[:] = 0


def new_codebook(entries: np.ndarray) -> Codebook:
    entries = np.asarray(entries, dtype=np.float64)
    return Codebook(
        embeddings=ad.parameter(entries.copy(), "codebook.embeddings"),
        usage=np.zeros(entries.shape[0], dtype=np.int64),
    )


def _squared_distances(h: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """(Q, M) ||h_q||^2 - 2 h_q.e_m + ||e_m||^2 of the Q latents of ``h``."""
    flat = h.reshape(-1, h.shape[-1])
    return (
        np.sum(flat * flat, axis=1, keepdims=True)
        - 2.0 * flat @ entries.T
        + np.sum(entries * entries, axis=1)
    )


def nearest_indices(h: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """argmin_j ||h_i - e_j||^2 with ties broken by the lowest index."""
    if entries.shape[0] == 0:
        raise ContractViolation("codebook is empty")
    if not np.all(np.isfinite(h)):
        raise NumericError("NaN/Inf in latents passed to quantization")
    return np.argmin(_squared_distances(h, entries), axis=1).reshape(h.shape[:-1])


class QuantizeResult(NamedTuple):
    indices: np.ndarray
    codes: Tensor  # nearest entries; gradient flows into the codebook
    straight_through: Tensor  # forward = codes, backward = identity to h


def quantize(h: Tensor | np.ndarray, cb: Codebook) -> QuantizeResult:
    """Nearest-entry codes of ``h``, with each assignment counted in ``cb.usage``."""
    h = h if isinstance(h, Tensor) else Tensor(h)
    if h.shape[-1] != cb.dim:
        raise ContractViolation(
            f"latent width {h.shape[-1]} does not match codebook dim {cb.dim}"
        )
    indices = nearest_indices(h.data, cb.embeddings.data)
    np.add.at(cb.usage, indices.reshape(-1), 1)
    flat_codes = ad.gather_rows(cb.embeddings, indices.reshape(-1))
    codes = flat_codes.reshape(*indices.shape, cb.dim)
    straight = h + ad.stop_gradient(codes.data - h.data)
    return QuantizeResult(indices=indices, codes=codes, straight_through=straight)


def pretrain_loss(
    x: Tensor,
    x_hat: Tensor,
    h: Tensor,
    codes: Tensor,
    mu: float,
    gamma: float,
) -> Tensor:
    """Reconstruction + mu*commitment + gamma*codebook terms, averaged per node-step."""
    if x.shape != x_hat.shape or h.shape != codes.shape:
        raise ContractViolation("pretrain_loss shape mismatch")
    recon = ad.tensor_mean(ad.tensor_sum(ad.square(x_hat - x), axis=-1))
    commit = ad.tensor_mean(
        ad.tensor_sum(ad.square(h - ad.stop_gradient(codes)), axis=-1)
    )
    dictionary = ad.tensor_mean(
        ad.tensor_sum(ad.square(ad.stop_gradient(h) - codes), axis=-1)
    )
    return recon + mu * commit + gamma * dictionary


def codebook_perplexity(usage: np.ndarray) -> float:
    """exp(entropy) of the normalized usage distribution; in [1, M]."""
    usage = np.asarray(usage, dtype=np.float64)
    if np.any(usage < 0):
        raise ContractViolation("usage counts must be non-negative")
    total = usage.sum()
    if total == 0:
        raise ContractViolation("perplexity undefined for all-zero usage")
    p = usage / total
    nonzero = p > 0
    entropy = -np.sum(p[nonzero] * np.log(p[nonzero]))
    return float(np.exp(entropy))


def kmeans_plusplus(points: np.ndarray, k: int, gen: Xoshiro256StarStar) -> np.ndarray:
    """k-means++ seeding over rows of ``points``."""
    q = points.shape[0]
    if q < k:
        raise ContractViolation(f"need at least {k} points to seed {k} centers")
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[gen.integer(q)]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[i] = points[gen.integer(q)]
            continue
        target = gen.uniform() * total
        idx = int(np.searchsorted(np.cumsum(d2), target))
        idx = min(idx, q - 1)
        centers[i] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centers[i]) ** 2, axis=1))
    return centers


def scheduled_lr(base: float, epoch: int, epochs: int) -> float:
    """Cosine decay to 2% of the base rate; Adam cannot settle without it."""
    if epochs <= 1:
        return base
    factor = 0.5 * (1.0 + np.cos(np.pi * epoch / (epochs - 1)))
    return base * max(factor, 0.02)


@dataclass
class PretrainResult:
    encoder: EncoderStack
    codebook: Codebook
    loss_history: list[float]
    perplexity_history: list[float]
    wallclock: float = 0.0


def _gather_batch(
    ds: EpisodeDataset, frames: list[tuple[int, int]]
) -> tuple[np.ndarray, np.ndarray]:
    xs = np.stack([ds.episodes[e].x[t] for e, t in frames])
    deltas = np.stack([ds.episodes[e].delta for e, t in frames])
    return ds.normalize(xs), deltas


def pretrain(ds: EpisodeDataset, cfg: PretrainSection, seed: int = 0) -> PretrainResult:
    """Reconstruction pretraining of encoder, decoder, and state dictionary.

    Three stages per batch: parameter-fused encoding, vector quantization,
    reconstruction; the combined loss is optimized with Adam. The codebook is
    seeded with k-means++ over the first batch's encoder outputs. Uses
    in-domain episodes only. All randomness derives from the root ``seed``.
    """
    start = time.perf_counter()
    frames = [(e, t) for e in ds.split_indices(SPLIT_IN) for t in range(ds.episodes[e].t_total)]
    if not frames:
        raise ContractViolation("dataset has no in-domain episodes")

    grid = ds.grid
    encoder = init_encoder_stack(
        substream(seed, "pretrain/init"), cfg, grid, d_obs=ds.n_channels, d_delta=ds.d_delta
    )

    shuffle_gen = substream(seed, "pretrain/shuffle")
    order = list(range(len(frames)))
    shuffle_gen.shuffle(order)
    first = [frames[i] for i in order[: min(cfg.batch_size, len(order))]]
    x0, d0 = _gather_batch(ds, first)
    z0 = encoder.encode(x0, d0, grid).data.reshape(-1, cfg.d_latent)
    seed_gen = substream(seed, "pretrain/kmeans")
    codebook = new_codebook(kmeans_plusplus(z0, cfg.codebook_size, seed_gen))

    params = ad.parameters(encoder, codebook)
    state = AdamState()
    loss_history: list[float] = []
    perplexity_history: list[float] = []

    def step_loss(xs: np.ndarray, deltas: np.ndarray) -> Tensor:
        # The forward's outputs are this function's locals, so they are freed
        # when it returns: backward reads only what the tape's records keep.
        x_in = Tensor(xs)
        h = encoder.encode(x_in, deltas, grid)
        q = quantize(h, codebook)
        x_hat = reconstruct(q.straight_through, encoder.decoder)
        return pretrain_loss(x_in, x_hat, h, q.codes, cfg.mu, cfg.gamma)

    def train_step(xs: np.ndarray, deltas: np.ndarray, lr: float, epoch: int, index: int) -> float:
        # The step's graph lives in these locals only, so it is released
        # before the next step records.
        with Tape() as tape:
            loss = step_loss(xs, deltas)
        value = loss.item()
        diverged = f"pretraining diverged at epoch {epoch}, batch {index}"
        if not np.isfinite(value):
            raise NumericError(diverged)
        try:
            grads = backward(loss, tape, params=params.values())
        except NumericError as exc:
            raise NumericError(f"{diverged}: {exc}") from exc
        adam_step(params, grads, state, lr=lr)
        return value

    for epoch in range(cfg.epochs):
        shuffle_gen.shuffle(order)
        codebook.reset_usage()
        lr = scheduled_lr(cfg.lr, epoch, cfg.epochs)
        total = 0.0
        count = 0
        for index, lo in enumerate(range(0, len(order), cfg.batch_size)):
            batch = [frames[i] for i in order[lo : lo + cfg.batch_size]]
            xs, deltas = _gather_batch(ds, batch)
            value = train_step(xs, deltas, lr, epoch, index)
            total += value * len(batch)
            count += len(batch)
        loss_history.append(total / count)
        perplexity = codebook_perplexity(codebook.usage)
        perplexity_history.append(perplexity)
        if perplexity < 0.05 * cfg.codebook_size:
            warnings.warn(
                f"codebook collapse: perplexity {perplexity:.2f} < "
                f"{0.05 * cfg.codebook_size:.2f} at epoch {epoch}",
                stacklevel=2,
            )
        log.info(
            "pretrain epoch %d loss %.6f perplexity %.2f",
            epoch,
            loss_history[-1],
            perplexity,
        )

    return PretrainResult(
        encoder=encoder,
        codebook=codebook,
        loss_history=loss_history,
        perplexity_history=perplexity_history,
        wallclock=time.perf_counter() - start,
    )
