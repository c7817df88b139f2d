"""Checkpoint container: round trips, integrity, error taxonomy."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from sparkpde import rng
from sparkpde.checkpoint import (
    DFT_TAG,
    FORMAT_VERSION,
    ModelCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from sparkpde.container import pack_str
from sparkpde.errors import FormatError

from helpers import with_crc, with_table_shape


def _toy_checkpoint() -> ModelCheckpoint:
    gen = rng.substream(99, "ckpt")
    tensors = {
        "a.weights": gen.normal_array((4, 3)),
        "b.bias": gen.normal_array((3,)),
        "codebook.usage": np.arange(5, dtype=np.int64),
    }
    return ModelCheckpoint(
        config={"kind": "test", "nested": {"x": 1}},
        tensors=tensors,
        frozen_names=["a.weights"],
    )


def test_round_trip_bit_exact(tmp_path):
    ckpt = _toy_checkpoint()
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(ckpt, str(p1))
    loaded = load_checkpoint(str(p1))
    save_checkpoint(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    for name, arr in ckpt.tensors.items():
        assert loaded.tensors[name].tobytes() == arr.tobytes()
        assert loaded.tensors[name].dtype == arr.dtype
    assert loaded.config == ckpt.config
    assert loaded.frozen_names == ["a.weights"]


def test_corrupted_payload_detected(tmp_path):
    ckpt = _toy_checkpoint()
    path = tmp_path / "c.ckpt"
    save_checkpoint(ckpt, str(path))
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="checksum"):
        load_checkpoint(str(path))


def test_bad_magic_detected(tmp_path):
    path = tmp_path / "d.ckpt"
    save_checkpoint(_toy_checkpoint(), str(path))
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(str(path))


def test_truncation_detected(tmp_path):
    path = tmp_path / "e.ckpt"
    save_checkpoint(_toy_checkpoint(), str(path))
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 9])
    with pytest.raises(FormatError):
        load_checkpoint(str(path))


def test_missing_file_clean_error(tmp_path):
    with pytest.raises(FormatError, match="not found"):
        load_checkpoint(str(tmp_path / "nope.ckpt"))


def test_byte_count_must_match_shape(tmp_path):
    path = tmp_path / "f.ckpt"
    save_checkpoint(_toy_checkpoint(), str(path))
    # (4, 3) holds 12 values; the table now claims (4, 4) over those 96 bytes.
    path.write_bytes(with_table_shape(path.read_bytes(), "a.weights", (4, 3), (4, 4)))
    with pytest.raises(FormatError, match="'a.weights' holds 96 bytes"):
        load_checkpoint(str(path))


@pytest.mark.parametrize(
    "at, old, new, message",
    [
        (8, struct.pack("<I", FORMAT_VERSION), struct.pack("<I", FORMAT_VERSION + 1), "version 2"),
        (12, pack_str(DFT_TAG), pack_str("dft:forward-1/(H*W),inverse-unnormalized"),
         "another spectral convention"),
    ],
    ids=["version", "dft-tag"],
)
def test_other_version_or_dft_tag_refused(tmp_path, at, old, new, message):
    # The header field after the magic is replaced and the trailing CRC
    # recomputed, so only the field itself is wrong.
    path = tmp_path / "g.ckpt"
    save_checkpoint(_toy_checkpoint(), str(path))
    blob = path.read_bytes()
    assert blob[at : at + len(old)] == old
    path.write_bytes(with_crc(blob[:at] + new + blob[at + len(old) : -4]))
    with pytest.raises(FormatError, match=message):
        load_checkpoint(str(path))
