"""Portable PRNG: reference behavior, determinism, substream independence."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from sparkpde import rng
from sparkpde.datagen.fields import band_limited_field

from helpers import scalar_normal, scalar_uniform

L = rng.LANE_WORDS
SWITCH = rng.MIN_LANES * L  # the smallest draw that steps lanes
# Around one and two lanes, the scalar/lane switch, and a partial last lane.
BOUNDARY_SIZES = [L - 1, L, L + 1, 2 * L - 1, 2 * L, 2 * L + 1,
                  SWITCH - 1, SWITCH, SWITCH + 1, 37 * L + 1]


def test_splitmix64_reference_vector():
    # First outputs of splitmix64 from state 0, per the published algorithm.
    state = 0
    outputs = []
    for _ in range(4):
        state, value = rng.splitmix64(state)
        outputs.append(value)
    assert outputs == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
    ]


def test_xoshiro_deterministic_and_seed_sensitive():
    a = rng.Xoshiro256StarStar(42)
    b = rng.Xoshiro256StarStar(42)
    c = rng.Xoshiro256StarStar(43)
    seq_a = [a.next_u64() for _ in range(8)]
    seq_b = [b.next_u64() for _ in range(8)]
    seq_c = [c.next_u64() for _ in range(8)]
    assert seq_a == seq_b
    assert seq_a != seq_c


def test_xoshiro_frozen_first_outputs():
    # Golden values frozen from this implementation; guards stream stability.
    gen = rng.Xoshiro256StarStar(0)
    got = [gen.next_u64() for _ in range(3)]
    assert got == [
        11091344671253066420,
        13793997310169335082,
        1900383378846508768,
    ]


def test_uniform_range_and_moments():
    gen = rng.Xoshiro256StarStar(123)
    u = gen.uniform(20000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(u.var() - 1.0 / 12.0) < 0.005


def test_normal_moments():
    gen = rng.Xoshiro256StarStar(7)
    z = gen.normal(40000)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_substreams_are_independent_and_reproducible():
    s1 = rng.substream(99, "datagen/episode/0")
    s2 = rng.substream(99, "datagen/episode/1")
    s1_again = rng.substream(99, "datagen/episode/0")
    a = [s1.next_u64() for _ in range(4)]
    b = [s2.next_u64() for _ in range(4)]
    c = [s1_again.next_u64() for _ in range(4)]
    assert a == c
    assert a != b


def test_shuffle_and_integer_bounds():
    gen = rng.substream(5, "shuffle")
    items = list(range(50))
    gen.shuffle(items)
    assert sorted(items) == list(range(50))
    gen2 = rng.substream(5, "ints")
    draws = [gen2.integer(7) for _ in range(200)]
    assert min(draws) >= 0 and max(draws) < 7


def _assert_same_state(gen, ref):
    assert gen.next_u64() == ref.next_u64()
    assert np.array_equal(gen.normal(7), scalar_normal(ref, 7))


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_array_draws_match_scalar_stream_bit_for_bit(seed):
    # Over the three seeds: 1.34M normals, each draw followed by a check
    # that the generator is where the scalar calls would leave it.
    gen = rng.substream(seed, "lanes")
    ref = rng.substream(seed, "lanes")
    for m in BOUNDARY_SIZES:
        words = gen.next_words(m)
        assert words.dtype == np.uint64
        assert words.tolist() == [ref.next_u64() for _ in range(m)]
        _assert_same_state(gen, ref)
    for n in BOUNDARY_SIZES + [1, 2, 400_001]:
        assert np.array_equal(gen.normal(n), scalar_normal(ref, n)), n
        _assert_same_state(gen, ref)
    for n in BOUNDARY_SIZES + [1]:
        assert np.array_equal(gen.uniform(n), scalar_uniform(ref, n)), n
        _assert_same_state(gen, ref)
    # One variate per word pair, as band_limited_field draws them: the cosine
    # variates of an even-sized draw.
    for count in (1, 2, 1000):
        cosines = gen.normal(2 * count)[0::2]
        assert cosines.tolist() == [scalar_normal(ref, 1)[0] for _ in range(count)]
        _assert_same_state(gen, ref)


def test_normal_stream_frozen():
    # Frozen from the one-word-at-a-time generator; guards the stream (and the
    # state left after the draw) independently of the test helpers. The size
    # is that of a model initialisation at the README widths.
    gen = rng.substream(0, "golden")
    z = gen.normal(1_198_082)
    assert hashlib.sha256(z.tobytes()).hexdigest() == (
        "27e22707ec65eddd8d44a8ff389063e81b36d66f662514f7305c15cf64e6e237"
    )
    assert gen.next_u64() == 282683027220569910


def _reference_band_limited_field(gen, height, width, max_mode):
    """``band_limited_field`` with its coefficients drawn one word pair at a
    time: the real, then the imaginary part of each retained mode in
    row-major order, each the cosine variate of its own pair."""
    kr = np.fft.fftfreq(height, d=1.0 / height).astype(np.int64)
    kc = np.fft.fftfreq(width, d=1.0 / width).astype(np.int64)
    spectrum = np.zeros((height, width), dtype=np.complex128)
    for r in range(height):
        for c in range(width):
            if 0 < kr[r] ** 2 + kc[c] ** 2 <= max_mode**2:
                real = scalar_normal(gen, 1)[0]
                imag = scalar_normal(gen, 1)[0]
                spectrum[r, c] = real + 1j * imag
    field = np.fft.ifft2(spectrum).real * (height * width)
    field -= field.mean()
    std = field.std()
    if std > 0:
        field *= 1.0 / std
    return field


# (height, width, max_mode); the last draws 4 * 2124 words, so it steps lanes.
FIELDS = [(32, 32, 4), (32, 32, 1), (16, 24, 3), (7, 5, 6), (9, 1, 2), (64, 64, 26)]


@pytest.mark.parametrize("height,width,max_mode", FIELDS)
def test_band_limited_field_draws_one_word_pair_per_coefficient(height, width, max_mode):
    for seed in (0, 7, 2**64 - 1):
        gen = rng.Xoshiro256StarStar(seed)
        ref = rng.Xoshiro256StarStar(seed)
        field = band_limited_field(gen, height, width, max_mode=max_mode)
        expected = _reference_band_limited_field(ref, height, width, max_mode)
        assert field.tobytes() == expected.tobytes()
        _assert_same_state(gen, ref)
