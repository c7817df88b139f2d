"""Episode containers, in/out-of-domain splits, and the binary dataset format.

File layout (all integers little-endian):

    magic               8 bytes  b"SPARKDS1"
    format version      u32
    grid height, width  u32, u32
    channel count d     u32
    episode count       u32
    channel names       per channel: u32 byte length + utf-8 bytes
    normalization stats per channel: f64 mean, f64 std
    episodes            per episode:
                          u32 delta length, f64 x delta
                          u8 split tag (0 = in-domain, 1 = out-domain)
                          u64 generator seed
                          u32 T_total
                          f64 x (T_total * N * d), row-major
    crc32               u32 over every preceding byte

Round trips are bit-exact; magic, version, truncation, and checksum failures
raise distinct errors without returning partial data. The file is written
atomically (``container.write_container``).
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..container import pack_str, read_container, write_container
from ..errors import ContractViolation, FormatError
from ..grids import GridGraph

if TYPE_CHECKING:  # config imports datagen, so the section is only a type here
    from ..config import OodSection

MAGIC = b"SPARKDS1"
FORMAT_VERSION = 1
SPLIT_IN = "in"
SPLIT_OUT = "out"


@dataclass
class Episode:
    """One trajectory under one physical-parameter setting."""

    delta: np.ndarray  # (P,) physical parameters
    x: np.ndarray  # (T_total, N, d)
    seed: int
    split: str = SPLIT_IN

    def __post_init__(self):
        self.delta = np.asarray(self.delta, dtype=np.float64).reshape(-1)
        self.x = np.asarray(self.x, dtype=np.float64)
        if self.x.ndim != 3:
            raise ContractViolation("episode trajectory must be (T, N, d)")
        if not np.all(np.isfinite(self.x)):
            raise ContractViolation("episode trajectory contains non-finite values")
        if self.split not in (SPLIT_IN, SPLIT_OUT):
            raise ContractViolation(f"unknown split tag {self.split!r}")

    @property
    def t_total(self) -> int:
        return self.x.shape[0]


@dataclass
class EpisodeDataset:
    grid: GridGraph
    channel_names: list[str]
    episodes: list[Episode] = field(default_factory=list)
    # Per-channel (means, stds); computed from the episodes when not given.
    stats: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        if self.stats is None:
            self.compute_normalization()

    @property
    def n_channels(self) -> int:
        return len(self.channel_names)

    @property
    def d_delta(self) -> int:
        """Length of every episode's parameter vector (1 with no episodes)."""
        return int(self.episodes[0].delta.size) if self.episodes else 1

    def split_indices(self, split: str) -> list[int]:
        """Indices of the episodes in ``split``, in dataset order."""
        return [i for i, ep in enumerate(self.episodes) if ep.split == split]

    def compute_normalization(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-channel mean/std over in-domain episodes only (no OOD leakage)."""
        in_domain = self.split_indices(SPLIT_IN)
        if not in_domain:
            raise ContractViolation("cannot normalize: no in-domain episodes")
        stacked = np.concatenate(
            [self.episodes[i].x.reshape(-1, self.n_channels) for i in in_domain]
        )
        means = stacked.mean(axis=0)
        stds = stacked.std(axis=0)
        stds = np.where(stds < 1e-12, 1.0, stds)
        self.stats = (means, stds)
        return self.stats

    def normalize(self, x: np.ndarray) -> np.ndarray:
        means, stds = self.stats
        return (x - means) / stds


def parameter_vector(entry) -> tuple:
    """One parameter entry (a number or a list of numbers) as the tuple of
    floats that identifies it: two entries are the same value iff their
    vectors are equal, in the OOD split and in the config's checks."""
    return tuple(np.atleast_1d(np.asarray(entry, dtype=np.float64)).tolist())


def make_ood_split(param_grid: list, ood: OodSection) -> tuple[list, list]:
    """Partition parameter values into (in-domain, out-domain) lists.

    ``ood`` holds either explicit out-of-domain values or a threshold on the
    first parameter component with the side that is out of domain; it was
    checked when the config loaded. The partition is exhaustive and disjoint.
    """
    params = [parameter_vector(p) for p in param_grid]
    if ood.mode == "explicit":
        out_set = {parameter_vector(p) for p in ood.out_values}
        out_domain = [p for p in params if p in out_set]
    elif ood.direction == "below":
        out_domain = [p for p in params if p[0] < ood.threshold]
    else:
        out_domain = [p for p in params if p[0] > ood.threshold]
    in_domain = [p for p in params if p not in out_domain]

    if not in_domain:
        raise ContractViolation("OOD rule leaves the in-domain set empty")
    if not out_domain:
        warnings.warn("OOD split has an empty out-domain set", stacklevel=2)
    return in_domain, out_domain


# -- binary container ---------------------------------------------------------


def _check_parameter_lengths(episodes: list[Episode], error: type[Exception]) -> None:
    """Every episode's parameter vector has one shared, positive length: the
    rule a .spds file meets, checked by the writer and by the reader."""
    lengths = sorted({ep.delta.size for ep in episodes})
    if len(lengths) > 1 or 0 in lengths:
        raise error(
            f"episode parameter vectors must share one positive length, got lengths {lengths}"
        )


def save_dataset(ds: EpisodeDataset, path: str) -> None:
    _check_parameter_lengths(ds.episodes, ContractViolation)
    means, stds = ds.stats
    parts = [
        MAGIC,
        struct.pack("<I", FORMAT_VERSION),
        struct.pack("<II", ds.grid.height, ds.grid.width),
        struct.pack("<I", ds.n_channels),
        struct.pack("<I", len(ds.episodes)),
    ]
    for name in ds.channel_names:
        parts.append(pack_str(name))
    for c in range(ds.n_channels):
        parts.append(struct.pack("<dd", means[c], stds[c]))
    n = ds.grid.n_nodes
    for ep in ds.episodes:
        if ep.x.shape[1] != n or ep.x.shape[2] != ds.n_channels:
            raise ContractViolation("episode shape does not match dataset grid/channels")
        parts.append(struct.pack("<I", ep.delta.size))
        parts.append(ep.delta.astype("<f8").tobytes())
        parts.append(struct.pack("<B", 0 if ep.split == SPLIT_IN else 1))
        parts.append(struct.pack("<Q", ep.seed & (2**64 - 1)))
        parts.append(struct.pack("<I", ep.t_total))
        parts.append(np.ascontiguousarray(ep.x, dtype="<f8").tobytes())
    write_container(path, b"".join(parts))


def load_dataset(path: str) -> EpisodeDataset:
    reader = read_container(path, MAGIC, "dataset")
    version = reader.u32()
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported dataset format version {version}")
    height = reader.u32()
    width = reader.u32()
    channels = reader.u32()
    episode_count = reader.u32()
    names = [reader.string() for _ in range(channels)]
    means = np.empty(channels)
    stds = np.empty(channels)
    for c in range(channels):
        means[c], stds[c] = struct.unpack("<dd", reader.take(16))
    grid = GridGraph(height, width)
    episodes = []
    for _ in range(episode_count):
        delta = reader.f64s(reader.u32())
        split = SPLIT_IN if reader.u8() == 0 else SPLIT_OUT
        seed = reader.u64()
        t_total = reader.u32()
        payload = reader.f64s(t_total * grid.n_nodes * channels)
        episodes.append(
            Episode(
                delta=delta,
                x=payload.reshape(t_total, grid.n_nodes, channels),
                seed=seed,
                split=split,
            )
        )
    if not reader.at_end():
        raise FormatError("trailing bytes after final episode record")
    _check_parameter_lengths(episodes, FormatError)
    return EpisodeDataset(grid=grid, channel_names=names, episodes=episodes, stats=(means, stds))
