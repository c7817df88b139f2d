"""Codebook-guided latent augmentation and the curriculum schedule.

Works on latents from the frozen encoder against a frozen codebook, so
everything here is pure numpy; no gradients flow through augmentation.
Two modes: "snap" canonicalizes each latent to its nearest prototype,
"interpolate" blends the k nearest prototypes with softmax(-d^2/tau)
weights (k = 1 reduces exactly to snap).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .config import AugmentSection
from .errors import ContractViolation
from .rng import Xoshiro256StarStar
from .state_dictionary import Codebook, _squared_distances, nearest_indices


def snap(h: np.ndarray, cb: Codebook) -> np.ndarray:
    """Replace each latent with its nearest codebook entry."""
    h = np.asarray(h, dtype=np.float64)
    idx = nearest_indices(h, cb.embeddings.data)
    return cb.embeddings.data[idx]


def interpolate_topk(h: np.ndarray, cb: Codebook, k: int, tau: float) -> np.ndarray:
    """Blend the k nearest entries with weights softmax(-d^2 / tau)."""
    h = np.asarray(h, dtype=np.float64)
    entries = cb.embeddings.data
    m = entries.shape[0]
    if k > m:
        raise ContractViolation(f"k={k} exceeds codebook size {m}")
    if tau <= 0:
        raise ContractViolation("tau must be positive")
    if k == 1:
        return snap(h, cb)
    d2 = _squared_distances(h, entries)
    # stable full sort keeps tie order by index, matching the snap tie rule
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    top_d2 = np.take_along_axis(d2, order, axis=1)
    logits = -top_d2 / tau
    logits -= logits.max(axis=1, keepdims=True)
    weights = np.exp(logits)
    weights /= weights.sum(axis=1, keepdims=True)
    blended = np.einsum("qk,qkd->qd", weights, entries[order])
    return blended.reshape(h.shape)


def calibrate_tau(episodes: Sequence[np.ndarray], cb: Codebook) -> float:
    """Mean squared nearest-neighbor distance to the codebook of the latents
    of ``episodes``, one array per episode.

    The distances fill one (Q,) vector an episode at a time, so the
    transients are an episode's. Each latent's distance is its own GEMM row
    and row sum, so the vector, and its mean, are those of the episodes
    concatenated.
    """
    entries = cb.embeddings.data
    d2 = np.empty(sum(z.size // cb.dim for z in episodes))
    lo = 0
    for z in episodes:
        flat = np.asarray(z, dtype=np.float64).reshape(-1, cb.dim)
        idx = nearest_indices(flat, entries)
        # The difference form, not _squared_distances: it rounds differently.
        d2[lo : lo + len(flat)] = np.sum((flat - entries[idx]) ** 2, axis=1)
        lo += len(flat)
    return float(max(d2.mean(), 1e-12))


def augment_latents(h: np.ndarray, cb: Codebook, cfg: AugmentSection, tau: float) -> np.ndarray:
    if cfg.mode == "snap":
        return snap(h, cb)
    return interpolate_topk(h, cb, cfg.k, tau)


def curriculum_ratio(epoch: int, cfg: AugmentSection) -> float:
    """Proportion of samples replaced by augmented versions at this epoch.

    Zero before the start epoch, then a linear ramp to max_ratio over
    ramp_epochs, constant afterwards. ``cfg`` is resolved (loading resolves
    the -1 defaults).
    """
    if epoch < 0:
        raise ContractViolation("epoch must be non-negative")
    if epoch < cfg.start_epoch:
        return 0.0
    if cfg.ramp_epochs == 0:
        return cfg.max_ratio
    progress = (epoch - cfg.start_epoch) / cfg.ramp_epochs
    return cfg.max_ratio * min(progress, 1.0)


def augmentation_decisions(
    gen: Xoshiro256StarStar, n_samples: int, ratio: float
) -> np.ndarray:
    """Independent keep/replace decisions for one batch, from the seed stream."""
    return gen.uniform(n_samples) < ratio
