"""Augmentation contracts: brute-force oracles, convex hull, curriculum."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparkpde import rng
from sparkpde.augment import (
    augmentation_decisions,
    calibrate_tau,
    curriculum_ratio,
    interpolate_topk,
    snap,
)
from sparkpde.config import AugmentSection
from sparkpde.errors import ContractViolation
from sparkpde.state_dictionary import nearest_indices, new_codebook


def _codebook(m=4, d=3, seed=55):
    return new_codebook(rng.substream(seed, "cb").normal_array((m, d)))


def test_snap_is_identity_on_codebook_rows():
    cb = _codebook()
    out = snap(cb.embeddings.data, cb)
    np.testing.assert_array_equal(out, cb.embeddings.data)


def test_snap_is_a_projection():
    cb = _codebook()
    h = rng.substream(1, "h").normal_array((20, 3))
    once = snap(h, cb)
    twice = snap(once, cb)
    np.testing.assert_array_equal(once, twice)


def test_snap_matches_exhaustive_oracle():
    cb = _codebook(m=4)
    h = rng.substream(2, "h").normal_array((50, 3))
    got = snap(h, cb)
    entries = cb.embeddings.data
    for i in range(50):
        best = min(range(4), key=lambda j: float(np.sum((h[i] - entries[j]) ** 2)))
        np.testing.assert_array_equal(got[i], entries[best])


def test_interpolate_k1_equals_snap():
    cb = _codebook(m=6)
    h = rng.substream(3, "h").normal_array((30, 3))
    np.testing.assert_array_equal(interpolate_topk(h, cb, 1, 0.7), snap(h, cb))


def test_interpolate_equidistant_pair_gives_midpoint():
    cb = new_codebook(np.array([[1.0, 0.0], [-1.0, 0.0], [50.0, 50.0]]))
    h = np.array([[0.0, 2.0]])
    for tau in (0.1, 1.0, 10.0):
        out = interpolate_topk(h, cb, 2, tau)
        np.testing.assert_allclose(out, np.array([[0.0, 0.0]]), atol=1e-12)


def test_interpolate_matches_brute_force_oracle():
    cb = _codebook(m=4)
    entries = cb.embeddings.data
    h = rng.substream(4, "h").normal_array((25, 3))
    k, tau = 3, 1.0
    got = interpolate_topk(h, cb, k, tau)
    for i in range(25):
        d2 = np.array([np.sum((h[i] - e) ** 2) for e in entries])
        order = np.argsort(d2, kind="stable")[:k]
        w = np.exp(-d2[order] / tau)
        w /= w.sum()
        expected = np.sum(w[:, None] * entries[order], axis=0)
        np.testing.assert_allclose(got[i], expected, atol=1e-12)


def test_interpolate_tau_to_zero_converges_to_snap():
    cb = _codebook(m=8, d=4, seed=77)
    h = rng.substream(5, "h").normal_array((40, 4))
    out = interpolate_topk(h, cb, 3, 1e-6)
    np.testing.assert_allclose(out, snap(h, cb), atol=1e-4)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(2, 6))
def test_interpolation_stays_in_convex_hull(seed, k):
    cb = _codebook(m=8, d=4, seed=seed % 1000)
    h = rng.substream(seed, "hull").normal_array((10, 4))
    entries = cb.embeddings.data
    out = interpolate_topk(h, cb, k, 0.5)
    flat = h.reshape(-1, 4)
    d2 = (
        np.sum(flat * flat, axis=1, keepdims=True)
        - 2.0 * flat @ entries.T
        + np.sum(entries * entries, axis=1)
    )
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    chosen = entries[order]
    assert np.all(out >= chosen.min(axis=1) - 1e-12)
    assert np.all(out <= chosen.max(axis=1) + 1e-12)


def test_k_exceeding_codebook_rejected():
    cb = _codebook(m=4)
    with pytest.raises(ContractViolation):
        interpolate_topk(np.zeros((2, 3)), cb, 5, 1.0)


def test_curriculum_schedule_values():
    cfg = AugmentSection(start_epoch=5, ramp_epochs=10, max_ratio=0.5)
    assert curriculum_ratio(0, cfg) == 0.0
    assert curriculum_ratio(4, cfg) == 0.0
    assert curriculum_ratio(5, cfg) == 0.0
    assert curriculum_ratio(10, cfg) == pytest.approx(0.25)
    assert curriculum_ratio(15, cfg) == pytest.approx(0.5)
    assert curriculum_ratio(40, cfg) == pytest.approx(0.5)


def test_curriculum_zero_ramp_jumps():
    cfg = AugmentSection(start_epoch=3, ramp_epochs=0, max_ratio=0.7)
    assert curriculum_ratio(2, cfg) == 0.0
    assert curriculum_ratio(3, cfg) == pytest.approx(0.7)


def test_decisions_reproducible():
    a = augmentation_decisions(rng.substream(9, "dec"), 100, 0.4)
    b = augmentation_decisions(rng.substream(9, "dec"), 100, 0.4)
    np.testing.assert_array_equal(a, b)
    assert 10 < a.sum() < 70


def test_calibrate_tau_positive_and_scale():
    cb = _codebook(m=6, d=3)
    h = rng.substream(10, "cal").normal_array((200, 3))
    tau = calibrate_tau([h[:120], h[120:]], cb)
    assert tau > 0
    idx_err = h - snap(h, cb)
    assert tau == pytest.approx(np.mean(np.sum(idx_err**2, axis=1)))


def _concatenated_tau(episodes, cb) -> float:
    """tau as one formula over all the episodes' latents at once."""
    flat = np.concatenate([z.reshape(-1, cb.dim) for z in episodes])
    idx = nearest_indices(flat, cb.embeddings.data)
    d2 = np.sum((flat - cb.embeddings.data[idx]) ** 2, axis=1)
    return float(max(d2.mean(), 1e-12))


def test_calibrate_tau_per_episode_is_the_concatenated_formula_bit_for_bit():
    # Episodes of uneven lengths, (T, N, D) as training holds them, at the
    # train workloads' widths (D 32, M 64) and a small one.
    for m, d in ((64, 32), (6, 3)):
        cb = _codebook(m=m, d=d, seed=56)
        gen = rng.substream(11, f"cal-episodes/{d}")
        episodes = [gen.normal_array((t, 37, d)) for t in (1, 7, 20, 3)]
        tau = calibrate_tau(episodes, cb)
        assert np.float64(tau).tobytes() == np.float64(_concatenated_tau(episodes, cb)).tobytes()
