"""Synthetic PDE trajectory generation, splits, and persistence."""

from .dataset import (
    SPLIT_IN,
    SPLIT_OUT,
    Episode,
    EpisodeDataset,
    load_dataset,
    make_ood_split,
    save_dataset,
)
from .navier_stokes import simulate_navier_stokes
from .reaction_diffusion import simulate_reaction_diffusion

__all__ = [
    "SPLIT_IN",
    "SPLIT_OUT",
    "Episode",
    "EpisodeDataset",
    "load_dataset",
    "make_ood_split",
    "save_dataset",
    "simulate_navier_stokes",
    "simulate_reaction_diffusion",
]
