"""Dataset container round trips, error taxonomy, and OOD splits."""

from __future__ import annotations

import struct
import warnings

import numpy as np
import pytest

from sparkpde import rng
from sparkpde.datagen import (
    SPLIT_IN,
    SPLIT_OUT,
    EpisodeDataset,
    load_dataset,
    make_ood_split,
    save_dataset,
)
from sparkpde.config import OodSection
from sparkpde.datagen.dataset import Episode
from sparkpde.errors import ContractViolation, FormatError
from sparkpde.grids import GridGraph

from helpers import write_parameter_lengths


def _toy_dataset(n_episodes=10, height=32, width=32, channels=1, t_total=6) -> EpisodeDataset:
    grid = GridGraph(height, width)
    gen = rng.substream(123, "toy-dataset")
    episodes = []
    for i in range(n_episodes):
        x = gen.normal_array((t_total, grid.n_nodes, channels))
        split = SPLIT_OUT if i % 5 == 4 else SPLIT_IN
        episodes.append(Episode(delta=np.array([10.0**-i]), x=x, seed=i, split=split))
    names = [f"ch{c}" for c in range(channels)]
    ds = EpisodeDataset(grid=grid, channel_names=names, episodes=episodes)
    return ds


def test_round_trip_is_byte_identical(tmp_path):
    ds = _toy_dataset()
    p1 = tmp_path / "a.spds"
    p2 = tmp_path / "b.spds"
    save_dataset(ds, str(p1))
    loaded = load_dataset(str(p1))
    save_dataset(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_round_trip_preserves_every_float(tmp_path):
    ds = _toy_dataset(n_episodes=10)
    path = tmp_path / "d.spds"
    save_dataset(ds, str(path))
    loaded = load_dataset(str(path))
    assert len(loaded.episodes) == len(ds.episodes)
    for a, b in zip(ds.episodes, loaded.episodes):
        assert a.x.tobytes() == b.x.tobytes()
        assert a.delta.tobytes() == b.delta.tobytes()
        assert a.seed == b.seed
        assert a.split == b.split
    np.testing.assert_array_equal(loaded.stats[0], ds.stats[0])
    np.testing.assert_array_equal(loaded.stats[1], ds.stats[1])


def test_corrupted_magic_rejected(tmp_path):
    ds = _toy_dataset(n_episodes=2, height=4, width=4, t_total=2)
    path = tmp_path / "d.spds"
    save_dataset(ds, str(path))
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="magic"):
        load_dataset(str(path))


def test_truncated_file_rejected(tmp_path):
    ds = _toy_dataset(n_episodes=2, height=4, width=4, t_total=2)
    path = tmp_path / "d.spds"
    save_dataset(ds, str(path))
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(FormatError):
        load_dataset(str(path))


def test_checksum_failure_rejected(tmp_path):
    ds = _toy_dataset(n_episodes=2, height=4, width=4, t_total=2)
    path = tmp_path / "d.spds"
    save_dataset(ds, str(path))
    blob = bytearray(path.read_bytes())
    blob[50] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="checksum"):
        load_dataset(str(path))


def test_version_mismatch_rejected(tmp_path):
    ds = _toy_dataset(n_episodes=1, height=4, width=4, t_total=2)
    path = tmp_path / "d.spds"
    save_dataset(ds, str(path))
    blob = bytearray(path.read_bytes())
    blob[8:12] = struct.pack("<I", 99)
    import zlib

    body = bytes(blob[:-4])
    blob[-4:] = struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="version"):
        load_dataset(str(path))


@pytest.mark.parametrize("lengths", [(1, 2), (0, 0)], ids=["mixed", "empty"])
def test_parameter_lengths_must_agree_and_be_positive(tmp_path, lengths):
    # A file whose episodes disagree on the parameter count, or carry none,
    # has no parameter dimension to train on.
    ds = _toy_dataset(n_episodes=2, height=4, width=4, t_total=2)
    good, bad = tmp_path / "good.spds", tmp_path / "bad.spds"
    save_dataset(ds, str(good))
    write_parameter_lengths(str(good), str(bad), list(lengths))
    with pytest.raises(FormatError, match=rf"one positive length, got lengths \[{lengths[0]}"):
        load_dataset(str(bad))


@pytest.mark.parametrize("lengths", [(1, 2), (0, 0)], ids=["mixed", "empty"])
def test_save_dataset_refuses_what_load_dataset_refuses(tmp_path, lengths):
    ds = _toy_dataset(n_episodes=2, height=4, width=4, t_total=2)
    for ep, n in zip(ds.episodes, lengths):
        ep.delta = np.full(n, 1.0e-3)
    path = tmp_path / "d.spds"
    with pytest.raises(ContractViolation, match=rf"got lengths \[{lengths[0]}"):
        save_dataset(ds, str(path))
    assert not list(tmp_path.iterdir())


def test_d_delta_is_the_parameter_length():
    ds = _toy_dataset(n_episodes=2, height=4, width=4, t_total=2)
    assert ds.d_delta == 1
    for ep in ds.episodes:
        ep.delta = np.array([0.1, 0.2])
    assert ds.d_delta == 2


def test_ood_split_explicit_matches_threshold_rule():
    params = [10.0**-k for k in range(1, 11)]  # 1e-1 .. 1e-10
    explicit_in, explicit_out = make_ood_split(
        params, OodSection(mode="explicit", out_values=[1e-9, 1e-10])
    )
    thresh_in, thresh_out = make_ood_split(
        params, OodSection(mode="threshold", threshold=5e-9, direction="below")
    )
    assert explicit_in == thresh_in
    assert explicit_out == thresh_out
    assert len(explicit_in) == 8 and len(explicit_out) == 2
    above_in, above_out = make_ood_split(
        params, OodSection(mode="threshold", threshold=5e-2, direction="above")
    )
    assert above_in == [(p,) for p in params[1:]] and above_out == [(1e-1,)]


def test_ood_split_all_in_domain_warns():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        in_d, out_d = make_ood_split([0.5], OodSection(mode="explicit", out_values=[]))
    assert in_d == [(0.5,)]
    assert out_d == []
    assert any("empty out-domain" in str(w.message) for w in caught)


def test_ood_split_empty_in_domain_rejected():
    with pytest.raises(ContractViolation):
        make_ood_split([1.0, 2.0], OodSection(mode="explicit", out_values=[1.0, 2.0]))


def test_normalization_ignores_out_domain_episodes():
    ds = _toy_dataset(n_episodes=10)
    means, stds = ds.compute_normalization()
    for i in ds.split_indices(SPLIT_OUT):
        ds.episodes[i].x += 1000.0
    means2, stds2 = ds.compute_normalization()
    np.testing.assert_array_equal(means, means2)
    np.testing.assert_array_equal(stds, stds2)


def test_split_indices_enumerate_each_split_in_dataset_order():
    ds = _toy_dataset(n_episodes=10)
    assert ds.split_indices(SPLIT_IN) == [0, 1, 2, 3, 5, 6, 7, 8]
    assert ds.split_indices(SPLIT_OUT) == [4, 9]
    # A split with no episodes enumerates none.
    in_only = _toy_dataset(n_episodes=4)
    assert in_only.split_indices(SPLIT_OUT) == []
    assert in_only.split_indices(SPLIT_IN) == [0, 1, 2, 3]
    empty = EpisodeDataset(GridGraph(4, 4), ["c"], stats=(np.zeros(1), np.ones(1)))
    assert empty.split_indices(SPLIT_IN) == empty.split_indices(SPLIT_OUT) == []
