"""Evaluation metrics: MSE, windowed SSIM, PSNR, radial energy spectrum."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import convolve as _convolve

from .errors import ContractViolation

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5


def mse(truth: np.ndarray, pred: np.ndarray) -> float:
    truth = np.asarray(truth, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    if truth.shape != pred.shape:
        raise ContractViolation(f"shape mismatch: {truth.shape} vs {pred.shape}")
    diff = truth - pred
    return float(np.mean(diff * diff))


def _gaussian_window(size: int, sigma: float) -> np.ndarray:
    half = (size - 1) / 2.0
    coords = np.arange(size) - half
    g = np.exp(-(coords**2) / (2.0 * sigma**2))
    kernel = np.outer(g, g)
    return kernel / kernel.sum()


def ssim(x: np.ndarray, y: np.ndarray, max_val: float) -> float:
    """Mean of local SSIM over Gaussian windows (11x11, sigma 1.5).

    Falls back to global statistics with a warning when the image is
    smaller than the window.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ContractViolation(f"shape mismatch: {x.shape} vs {y.shape}")
    if x.ndim != 2:
        raise ContractViolation("ssim expects 2-D images")
    if max_val <= 0:
        raise ContractViolation("max_val must be positive")
    c1 = (0.01 * max_val) ** 2
    c2 = (0.03 * max_val) ** 2

    if min(x.shape) < SSIM_WINDOW:
        warnings.warn(
            "image smaller than the SSIM window; using global statistics",
            stacklevel=2,
        )
        mu_x, mu_y = x.mean(), y.mean()
        var_x = np.mean(x * x) - mu_x * mu_x
        var_y = np.mean(y * y) - mu_y * mu_y
        cov = np.mean(x * y) - mu_x * mu_y
        return float(
            ((2 * mu_x * mu_y + c1) * (2 * cov + c2))
            / ((mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2))
        )

    window = _gaussian_window(SSIM_WINDOW, SSIM_SIGMA)

    def smooth(a: np.ndarray) -> np.ndarray:
        return _convolve(a, window, mode="reflect")

    mu_x, mu_y = smooth(x), smooth(y)
    var_x = smooth(x * x) - mu_x * mu_x
    var_y = smooth(y * y) - mu_y * mu_y
    cov = smooth(x * y) - mu_x * mu_y
    ssim_map = ((2 * mu_x * mu_y + c1) * (2 * cov + c2)) / (
        (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
    )
    return float(ssim_map.mean())


def psnr(x: np.ndarray, y: np.ndarray, max_val: float) -> float:
    if max_val <= 0:
        raise ContractViolation("max_val must be positive")
    err = mse(x, y)
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(max_val * max_val / err)


def energy_spectrum(field: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Radially binned squared Fourier magnitudes.

    Returns (k, E(k)) for integer k = round(|k_vec|) from 0 to
    floor(min(H, W)/2); each bin sums |fft2|^2 over modes in it.
    """
    field = np.asarray(field, dtype=np.float64)
    if field.ndim != 2:
        raise ContractViolation("energy_spectrum expects a 2-D field")
    h, w = field.shape
    power = np.abs(np.fft.fft2(field)) ** 2
    ky = np.fft.fftfreq(h, d=1.0 / h)
    kx = np.fft.fftfreq(w, d=1.0 / w)
    kxx, kyy = np.meshgrid(kx, ky)
    radius = np.rint(np.hypot(kxx, kyy)).astype(np.int64)
    k_max = min(h, w) // 2
    ks = np.arange(k_max + 1)
    mask = radius <= k_max
    energy = np.bincount(
        radius[mask].reshape(-1), weights=power[mask].reshape(-1), minlength=k_max + 1
    )[: k_max + 1]
    return ks, energy


@dataclass
class MetricReport:
    """Per-horizon-step and aggregate metrics plus optional spectra."""

    per_step_mse: list[float]
    mse: float
    ssim: float
    psnr: float
    windows: int  # forecast windows evaluated
    spectrum_truth: tuple[np.ndarray, np.ndarray] | None = None
    spectrum_pred: tuple[np.ndarray, np.ndarray] | None = None

    def rows(self) -> list[tuple[str, float]]:
        out = [(f"mse_step_{i+1}", v) for i, v in enumerate(self.per_step_mse)]
        out += [("mse", self.mse), ("ssim", self.ssim), ("psnr", self.psnr)]
        return out
