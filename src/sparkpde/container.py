"""The binary container shared by datasets (.spds) and checkpoints (.ckpt).

Both formats are an 8-byte magic tag and a little-endian body followed by a
CRC32 (u32) of every preceding byte. ``kind`` ("dataset", "checkpoint") names
the format in error messages. Writes are atomic: the bytes go to a temporary
file next to the target, which then replaces it, so a failed write leaves any
previous file as it was.
"""

from __future__ import annotations

import os
import struct
import zlib

import numpy as np

from .errors import FormatError


def pack_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


class Reader:
    """Sequential little-endian reads over a verified body."""

    def __init__(self, blob: bytes, kind: str):
        self.blob = blob
        self.kind = kind
        self.offset = 0

    def take(self, n: int) -> bytes:
        if self.offset + n > len(self.blob):
            raise FormatError(f"{self.kind} file is truncated")
        out = self.blob[self.offset : self.offset + n]
        self.offset += n
        return out

    def u8(self) -> int:
        return struct.unpack("<B", self.take(1))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def f64s(self, n: int) -> np.ndarray:
        return np.frombuffer(self.take(8 * n), dtype="<f8").copy()

    def string(self) -> str:
        return self.take(self.u32()).decode("utf-8")

    def at_end(self) -> bool:
        return self.offset == len(self.blob)


def write_container(path: str, body: bytes) -> None:
    """Atomically write ``body`` (which starts with the magic) and its CRC32."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(body)
            fh.write(struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_container(path: str, magic: bytes, kind: str) -> Reader:
    """Read, check magic and CRC32, and return a reader placed after the magic.

    The one reader of a container path: a path that is missing, is not a file
    or cannot be read is a ``FormatError`` naming ``kind`` and the path."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except FileNotFoundError:
        raise FormatError(f"{kind} not found: {path}")
    except IsADirectoryError:
        raise FormatError(f"{kind} is not a file: {path}")
    except OSError as exc:
        raise FormatError(f"{kind} is unreadable: {path}: {exc.strerror or exc}")
    if len(blob) < len(magic) + 4:
        raise FormatError(f"{kind} file is truncated")
    if blob[: len(magic)] != magic:
        raise FormatError(f"bad magic bytes: not a {kind} file")
    body, crc_raw = blob[:-4], blob[-4:]
    expected = struct.unpack("<I", crc_raw)[0]
    actual = zlib.crc32(body) & 0xFFFFFFFF
    if actual != expected:
        raise FormatError(
            f"{kind} checksum mismatch (stored {expected:#010x}, computed {actual:#010x})"
        )
    reader = Reader(body, kind)
    reader.take(len(magic))
    return reader
