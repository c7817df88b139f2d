"""The binary container shared by datasets and checkpoints: atomic writes."""

from __future__ import annotations

import os

import numpy as np
import pytest

from sparkpde.checkpoint import ModelCheckpoint, save_checkpoint
from sparkpde.datagen import EpisodeDataset, save_dataset
from sparkpde.datagen.dataset import Episode
from sparkpde.grids import GridGraph


def _dataset(value: float) -> EpisodeDataset:
    grid = GridGraph(4, 4)
    ep = Episode(delta=np.array([1e-3]), x=np.full((3, grid.n_nodes, 1), value), seed=1)
    return EpisodeDataset(grid=grid, channel_names=["w"], episodes=[ep])


def _checkpoint(value: float) -> ModelCheckpoint:
    return ModelCheckpoint(config={"kind": "test"}, tensors={"a": np.full((2, 3), value)})


SAVERS = {
    "dataset": lambda value, path: save_dataset(_dataset(value), path),
    "checkpoint": lambda value, path: save_checkpoint(_checkpoint(value), path),
}


@pytest.mark.parametrize("kind", sorted(SAVERS))
def test_failed_write_keeps_previous_file(kind, tmp_path, monkeypatch):
    save = SAVERS[kind]
    path = tmp_path / "artifact.bin"
    save(1.0, str(path))
    before = path.read_bytes()

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        save(2.0, str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.bin"]
