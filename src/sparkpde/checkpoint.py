"""Binary model checkpoints with a named-tensor table of contents.

Layout (little-endian):

    magic            8 bytes  b"SPARKCK1"
    format version   u32
    DFT tag          u32 length + utf-8   (documents the spectral convention)
    config snapshot  u32 length + utf-8 JSON (sorted keys)
    tensor count     u32
    TOC              per tensor: name (u32+utf8), dtype u8 (0=f64, 1=i64),
                     ndim u32, dims u32 each, nbytes u64
    payload          tensor bytes, TOC order
    frozen table     u32 count, then per entry: name (u32+utf8) + crc32 u32
    crc32            u32 over every preceding byte

Frozen-section checksums are verified on load, as are the trailing CRC, the
format version and the DFT tag (a file of another spectral convention is
refused, not reinterpreted).
Round trips are bit-exact and contain no timestamps; the file is written
atomically (``container.write_container``).
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .container import pack_str, read_container, write_container
from .errors import FormatError

MAGIC = b"SPARKCK1"
FORMAT_VERSION = 1
DFT_TAG = "dft:forward-unnormalized,inverse-1/(H*W)"

_DTYPES = {0: "<f8", 1: "<i8"}
_DTYPE_TAGS = {np.dtype(np.float64): 0, np.dtype(np.int64): 1}


@dataclass
class ModelCheckpoint:
    config: dict
    tensors: dict[str, np.ndarray]
    frozen_names: list[str] = field(default_factory=list)


def save_checkpoint(ckpt: ModelCheckpoint, path: str) -> None:
    names = sorted(ckpt.tensors)
    parts = [
        MAGIC,
        struct.pack("<I", FORMAT_VERSION),
        pack_str(DFT_TAG),
        pack_str(json.dumps(ckpt.config, sort_keys=True, separators=(",", ":"))),
        struct.pack("<I", len(names)),
    ]
    payloads = []
    for name in names:
        arr = np.ascontiguousarray(ckpt.tensors[name])
        if arr.dtype not in _DTYPE_TAGS:
            arr = arr.astype(np.float64)
        tag = _DTYPE_TAGS[arr.dtype]
        raw = arr.astype(_DTYPES[tag]).tobytes()
        parts.append(pack_str(name))
        parts.append(struct.pack("<BI", tag, arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b"")
        parts.append(struct.pack("<Q", len(raw)))
        payloads.append(raw)
    parts.extend(payloads)
    parts.append(struct.pack("<I", len(ckpt.frozen_names)))
    for name in sorted(ckpt.frozen_names):
        if name not in ckpt.tensors:
            raise FormatError(f"frozen name {name!r} is not a stored tensor")
        arr = np.ascontiguousarray(ckpt.tensors[name])
        parts.append(pack_str(name))
        parts.append(struct.pack("<I", zlib.crc32(arr.tobytes()) & 0xFFFFFFFF))
    write_container(path, b"".join(parts))


def load_checkpoint(path: str) -> ModelCheckpoint:
    r = read_container(path, MAGIC, "checkpoint")
    version = r.u32()
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported checkpoint format version {version}")
    dft_tag = r.string()
    if dft_tag != DFT_TAG:
        raise FormatError(f"checkpoint records another spectral convention: {dft_tag!r}")
    config = json.loads(r.string())
    count = r.u32()
    toc = []
    for _ in range(count):
        name = r.string()
        tag = r.u8()
        if tag not in _DTYPES:
            raise FormatError(f"unknown tensor dtype tag {tag}")
        ndim = r.u32()
        shape = tuple(struct.unpack(f"<{ndim}I", r.take(4 * ndim))) if ndim else ()
        nbytes = r.u64()
        needed = np.dtype(_DTYPES[tag]).itemsize * math.prod(shape)
        if nbytes != needed:
            raise FormatError(
                f"tensor {name!r} holds {nbytes} bytes; its shape {shape} needs {needed}"
            )
        toc.append((name, tag, shape, nbytes))
    tensors = {}
    for name, tag, shape, nbytes in toc:
        raw = r.take(nbytes)
        arr = np.frombuffer(raw, dtype=_DTYPES[tag]).reshape(shape).copy()
        tensors[name] = arr
    frozen_count = r.u32()
    frozen_names = []
    for _ in range(frozen_count):
        name = r.string()
        stored_crc = r.u32()
        if name not in tensors:
            raise FormatError(f"frozen entry {name!r} missing from tensor table")
        actual = zlib.crc32(np.ascontiguousarray(tensors[name]).tobytes()) & 0xFFFFFFFF
        if actual != stored_crc:
            raise FormatError(f"frozen tensor {name!r} failed its checksum")
        frozen_names.append(name)
    if not r.at_end():
        raise FormatError("trailing bytes after checkpoint frozen table")
    return ModelCheckpoint(config=config, tensors=tensors, frozen_names=frozen_names)
