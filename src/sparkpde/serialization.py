"""Mapping between live models and checkpoint tensor tables, whose names are
those ``ad.parameters`` gives.

Rebuilds go through the same ``init_encoder_stack``/``init_dynamics`` as
training, so the config-to-model mapping is written once; they draw no random
numbers, since every parameter is then assigned from the checkpoint. They take
the sizes and the grid from the dataset, which ``check_dataset_compatibility``
has matched against the snapshot's ``meta``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import autodiff as ad
from .config import ExperimentConfig, config_from_dict, config_to_dict
from .dynamics import DynamicsWeights, init_dynamics
from .encoder import EncoderStack, init_encoder_stack
from .errors import ConfigError, IncompatibilityError
from .state_dictionary import Codebook, new_codebook

KIND_PRETRAIN = "pretrain"
KIND_DYNAMICS = "dynamics"


def checkpoint_config(cfg: ExperimentConfig, kind: str, meta: dict) -> dict:
    """The snapshot stored in a checkpoint: the config that ran, and in
    ``meta`` only what no config key holds."""
    return {"kind": kind, "experiment": config_to_dict(cfg), "meta": meta}


def stored_config(snapshot: dict) -> ExperimentConfig:
    """The config a checkpoint snapshot records. A snapshot the schema refuses
    belongs to an incompatible checkpoint, not to a user config error."""
    try:
        return config_from_dict(snapshot["experiment"])
    except ConfigError as exc:
        raise IncompatibilityError(
            f"checkpoint config {exc}; the checkpoint must be made again"
        )


def dataset_meta(ds) -> dict:
    return {
        "channel_names": list(ds.channel_names),
        "d_delta": ds.d_delta,
    }


def _assign(model, tensors: dict[str, np.ndarray], context: str) -> None:
    for name, tensor in ad.parameters(model).items():
        if name not in tensors:
            raise IncompatibilityError(f"{context}: checkpoint is missing tensor {name!r}")
        arr = tensors[name]
        if tuple(arr.shape) != tuple(tensor.shape):
            raise IncompatibilityError(
                f"{context}: tensor {name!r} has shape {tuple(arr.shape)}, "
                f"model expects {tuple(tensor.shape)}"
            )
        tensor.data = np.ascontiguousarray(arr, dtype=np.float64)


def pretrained_tensors(encoder: EncoderStack, codebook: Codebook) -> dict[str, np.ndarray]:
    out = {name: t.data.copy() for name, t in ad.parameters(encoder, codebook).items()}
    out["codebook.usage"] = codebook.usage.copy()
    return out


def stored_codebook(tensors: dict[str, np.ndarray]) -> Codebook:
    """The codebook a checkpoint holds: ``codebook.embeddings`` (M, D) and its
    usage counts ``codebook.usage`` (M,)."""
    entries = tensors.get("codebook.embeddings")
    if entries is None or entries.ndim != 2:
        raise IncompatibilityError(
            "checkpoint tensor 'codebook.embeddings' must have shape (M, D), got "
            + ("none" if entries is None else str(entries.shape))
        )
    usage = tensors.get("codebook.usage")
    if usage is None or usage.shape != entries.shape[:1]:
        raise IncompatibilityError(
            f"checkpoint tensor 'codebook.usage' must have shape ({entries.shape[0]},), got "
            + ("none" if usage is None else str(usage.shape))
        )
    codebook = new_codebook(entries)
    codebook.usage = usage.astype(np.int64)
    return codebook


class _NoDraws:
    """Generator stand-in for rebuilds: parameters start at zero and are then
    overwritten from the checkpoint, so nothing is drawn."""

    @staticmethod
    def normal_array(shape: tuple[int, ...]) -> np.ndarray:
        return np.zeros(shape)


def rebuild_pretrained(
    cfg: ExperimentConfig, tensors: dict[str, np.ndarray], ds
) -> tuple[EncoderStack, Codebook]:
    """The frozen encoder and codebook a checkpoint holds, given its parsed
    config (``stored_config``), for the dataset ``ds``."""
    encoder = init_encoder_stack(
        _NoDraws(), cfg.pretrain, ds.grid, d_obs=ds.n_channels, d_delta=ds.d_delta
    )
    _assign(encoder, tensors, "encoder")
    return encoder, stored_codebook(tensors)


def rebuild_dynamics(
    cfg: ExperimentConfig, tensors: dict[str, np.ndarray], ds, d_latent: int
) -> DynamicsWeights:
    """The forecaster a dynamics checkpoint holds, for the dataset ``ds`` and
    d_latent latents."""
    weights = init_dynamics(
        _NoDraws(), cfg.dynamics, ds.grid, d_latent=d_latent, d_obs=ds.n_channels
    )
    _assign(weights, tensors, "dynamics")
    return weights


def check_dataset_compatibility(cfg: ExperimentConfig, meta: dict, ds) -> None:
    """Refuse checkpoint/dataset pairs whose shapes cannot line up, given the
    checkpoint's parsed snapshot (``stored_config`` and ``meta``)."""
    grid = cfg.dataset.grid
    problems = []
    for key in ("height", "width"):
        stored, actual = getattr(grid, key), getattr(ds.grid, key)
        if stored != actual:
            problems.append(f"grid.{key}: checkpoint {stored} vs dataset {actual}")
    channels = len(meta["channel_names"])
    if channels != ds.n_channels:
        problems.append(f"channels: checkpoint {channels} vs dataset {ds.n_channels}")
    if meta["d_delta"] != ds.d_delta:
        problems.append(f"parameter dim: checkpoint {meta['d_delta']} vs dataset {ds.d_delta}")
    if problems:
        raise IncompatibilityError("; ".join(problems))


def check_config_compatibility(stored: ExperimentConfig, cfg: ExperimentConfig) -> None:
    """Refuse a config whose ``pretrain`` or ``dataset.grid`` section differs
    from the checkpoint's (``stored``).

    The sections describe the frozen encoder and the graph it runs on, and a
    dynamics checkpoint snapshots the training config that ``eval`` rebuilds
    both from.
    """
    problems = [
        f"{path}.{f.name}: checkpoint {getattr(old, f.name)!r} "
        f"vs config {getattr(new, f.name)!r}"
        for path, old, new in (
            ("pretrain", stored.pretrain, cfg.pretrain),
            ("dataset.grid", stored.dataset.grid, cfg.dataset.grid),
        )
        for f in dataclasses.fields(old)
        if getattr(old, f.name) != getattr(new, f.name)
    ]
    if problems:
        raise IncompatibilityError("; ".join(problems))
