"""Portable pseudo-random number generation.

Datasets and model initialisation must be reproducible byte-for-byte across
platforms, so randomness comes from an in-repo generator rather than any
library whose stream may change between versions. The generator is
xoshiro256** (Blackman & Vigna), seeded through splitmix64, both implemented
exactly per their published reference algorithms on 64-bit unsigned words.

All randomness in a run flows from one root seed through named substreams:
``derive_seed(root, "datagen/episode/3")`` gives independent, reproducible
streams per concern, so e.g. toggling augmentation does not shift the
dataset stream.

Array draws read the same stream, word for word, in lanes. xoshiro256** is
linear over GF(2): one step is a 256x256 bit matrix T acting on the state
("Scrambled linear pseudorandom number generators", arXiv:1805.01407). Lane
j of a draw starts at T^(j*LANE_WORDS) applied to the state, found by
doubling with cached jump matrices, and all lanes then step together in
numpy ``uint64`` arithmetic. Read lane after lane, the words are exactly
those of repeated ``next_u64`` calls, and the generator is left where those
calls would leave it; so artifacts do not depend on how a draw is split.

Box-Muller is written once, for arrays: ``normal(n)``. A caller that wants one
variate per word pair (the cosine one) takes ``normal(2 * m)[0::2]``.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1

# Words per lane of an array draw.
LANE_WORDS = 512
# Draws of fewer lanes use the scalar loop. Stepping the lanes costs about
# 10 ms whatever their number (LANE_WORDS numpy steps), and the loop takes
# as long for ~16 lanes of words (8192 words, one BLAS thread, 2-core VM).
MIN_LANES = 16


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state; returns (new_state, output word)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, (z ^ (z >> 31)) & _MASK64


def _fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & _MASK64
    return h


def derive_seed(root_seed: int, stream: str) -> int:
    """Derive a substream seed from a root seed and a stream name."""
    _, mixed = splitmix64((root_seed ^ _fnv1a64(stream)) & _MASK64)
    return mixed


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


# -- lanes: the same recurrence on uint64 arrays, one element per lane ---------------


def _rotl_lanes(x: np.ndarray, k: int) -> np.ndarray:
    return (x << np.uint64(k)) | (x >> np.uint64(64 - k))


def _step_lanes(s: np.ndarray) -> np.ndarray:
    """One xoshiro256** step of every lane of ``s`` (4, K) in place; returns
    the K output words."""
    s0, s1, s2, s3 = s
    result = _rotl_lanes(s1 * np.uint64(5), 7) * np.uint64(9)
    t = s1 << np.uint64(17)
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    s[3] = _rotl_lanes(s3, 45)
    return result


def _to_bits(s: np.ndarray) -> np.ndarray:
    """(4, K) uint64 states -> (256, K) float64 bit columns; bit 64*w + b is
    bit b of word w."""
    as_bytes = np.ascontiguousarray(s.T, dtype="<u8").view(np.uint8)
    return np.unpackbits(as_bytes, axis=1, bitorder="little").T.astype(np.float64)


def _from_bits(bits: np.ndarray) -> np.ndarray:
    packed = np.packbits(bits.T.astype(np.uint8), axis=1, bitorder="little")
    return np.ascontiguousarray(packed).view("<u8").astype(np.uint64).T.copy()


# _JUMPS[i] is T^(LANE_WORDS * 2**i) over GF(2), as a 0/1 float64 matrix.
_JUMPS: list[np.ndarray] = []


def _jump(i: int) -> np.ndarray:
    if not _JUMPS:
        # Column c of T^L is T^L applied to basis state c: step all 256 at once.
        basis = _from_bits(np.eye(256))
        for _ in range(LANE_WORDS):
            _step_lanes(basis)
        _JUMPS.append(_to_bits(basis))
    while len(_JUMPS) <= i:
        # Float64 products of 0/1 matrices are exact (every sum is <= 256).
        _JUMPS.append((_JUMPS[-1] @ _JUMPS[-1]) % 2.0)
    return _JUMPS[i]


def _lane_starts(state: list[int], lanes: int) -> np.ndarray:
    """(4, lanes) states T^(j*LANE_WORDS) applied to ``state``, j = 0..lanes-1."""
    bits = _to_bits(np.array(state, dtype=np.uint64).reshape(4, 1))
    i = 0
    while bits.shape[1] < lanes:
        ahead = (_jump(i) @ bits[:, : lanes - bits.shape[1]]) % 2.0
        bits = np.concatenate([bits, ahead], axis=1)
        i += 1
    return _from_bits(bits)


class Xoshiro256StarStar:
    """xoshiro256** generator; state seeded from ``seed`` via splitmix64."""

    def __init__(self, seed: int):
        state = seed & _MASK64
        words = []
        for _ in range(4):
            state, w = splitmix64(state)
            words.append(w)
        self._s = words

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def next_words(self, m: int) -> np.ndarray:
        """The next ``m`` words as a uint64 array, equal to ``m`` calls of
        ``next_u64`` and leaving the same state."""
        if m < MIN_LANES * LANE_WORDS:
            nxt = self.next_u64
            return np.fromiter((nxt() for _ in range(m)), dtype=np.uint64, count=m)
        lanes = -(-m // LANE_WORDS)
        tail = m - (lanes - 1) * LANE_WORDS  # words the last lane gives, 1..L
        s = _lane_starts(self._s, lanes)
        out = np.empty((LANE_WORDS, lanes), dtype=np.uint64)
        for step in range(LANE_WORDS):
            out[step] = _step_lanes(s)
            if step + 1 == tail:
                self._s = [int(w) for w in s[:, -1]]
        return out.T.reshape(-1)[:m]

    def uniform(self, n: int | None = None) -> np.ndarray | float:
        """Uniform float64 in [0, 1) with 53-bit resolution."""
        if n is None:
            return (self.next_u64() >> 11) * 2.0**-53
        return (self.next_words(n) >> 11) * 2.0**-53

    def normal(self, n: int) -> np.ndarray:
        """``n`` standard normal variates via the Box-Muller transform.

        Each pair of words gives a cosine then a sine variate; an odd count
        drops the last sine. The logarithm and trigonometric functions are
        libm's, per element (``math``): numpy's vectorized ones differ in the
        last bits on some inputs, which would change the stream.
        """
        words = self.next_words(2 * ((n + 1) // 2))
        # u1 in (0, 1] so log() is finite.
        u1 = 1.0 - (words[0::2] >> 11) * 2.0**-53
        u2 = (words[1::2] >> 11) * 2.0**-53
        r = np.sqrt(-2.0 * _libm(math.log, u1))
        theta = 2.0 * math.pi * u2
        out = np.empty(words.size, dtype=np.float64)
        out[0::2] = r * _libm(math.cos, theta)
        out[1::2] = r * _libm(math.sin, theta)
        return out[:n]

    def normal_array(self, shape: tuple[int, ...]) -> np.ndarray:
        return self.normal(int(np.prod(shape))).reshape(shape)

    def integer(self, bound: int) -> int:
        """Uniform integer in [0, bound) by 53-bit floor scaling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return min(int(self.uniform() * bound), bound - 1)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.integer(i + 1)
            items[i], items[j] = items[j], items[i]


def _libm(fn, x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(fn, x.tolist()), dtype=np.float64, count=x.size)


def substream(root_seed: int, stream: str) -> Xoshiro256StarStar:
    return Xoshiro256StarStar(derive_seed(root_seed, stream))
