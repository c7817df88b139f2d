"""Band-limited Gaussian random fields for initial conditions."""

from __future__ import annotations

import numpy as np

from ..rng import Xoshiro256StarStar


def band_limited_field(
    gen: Xoshiro256StarStar,
    height: int,
    width: int,
    max_mode: int = 4,
) -> np.ndarray:
    """Real zero-mean, unit-variance random field with spectral support |k| <= max_mode.

    Coefficients are drawn in a fixed mode order so the field is a pure
    function of the generator state. The DC mode is excluded, giving an
    exactly zero-mean field after the final mean subtraction.
    """
    kr = np.fft.fftfreq(height, d=1.0 / height).astype(np.int64)
    kc = np.fft.fftfreq(width, d=1.0 / width).astype(np.int64)
    radius = np.hypot(kr[:, None], kc[None, :])
    retained = (radius != 0) & (radius <= max_mode)
    # Two variates (real, imaginary) per retained mode, in row-major order,
    # each the cosine variate of its own word pair.
    draws = gen.normal(4 * int(retained.sum()))[0::2]
    spectrum = np.zeros((height, width), dtype=np.complex128)
    spectrum[retained] = draws[0::2] + 1j * draws[1::2]
    field = np.fft.ifft2(spectrum).real * (height * width)
    field -= field.mean()
    std = field.std()
    if std > 0:
        field *= 1.0 / std
    return field
