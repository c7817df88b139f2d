"""Forecast evaluation over dataset splits.

Metrics are computed in normalized observation space (the space the model is
trained in), with max_val for SSIM/PSNR taken from the evaluated split's
truth frames. Augmentation is never applied here.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .config import DynamicsSection
from .datagen import EpisodeDataset
from .dynamics import DynamicsWeights, _forecast_batch, _windows, episode_latents
from .encoder import EncoderStack
from .errors import ContractViolation
from .metrics import MetricReport, energy_spectrum, mse, psnr, ssim

log = logging.getLogger("sparkpde")

BATCH_SIZE = 8  # windows per forecast batch


@dataclass
class PredictionDump:
    windows: list[tuple[int, int]]
    predictions: np.ndarray  # (W, T, N, d), normalized space
    targets: np.ndarray  # (W, T, N, d)


def evaluate_split(
    ds: EpisodeDataset,
    encoder: EncoderStack,
    weights: DynamicsWeights,
    cfg: DynamicsSection,
    split: str,
    with_spectra: bool = True,
) -> tuple[MetricReport, PredictionDump]:
    start_time = time.perf_counter()
    windows = _windows(ds, cfg, split, cfg.horizon)
    if not windows:
        raise ContractViolation(f"dataset has no '{split}' windows to evaluate")

    episode_ids = sorted({e for e, _ in windows})
    latents = {e: episode_latents(ds, encoder, e) for e in episode_ids}

    preds, targets = [], []
    for lo in range(0, len(windows), BATCH_SIZE):
        batch = windows[lo : lo + BATCH_SIZE]
        y_hat, y = _forecast_batch(latents, ds, batch, weights, cfg)
        preds.append(np.swapaxes(y_hat.data, 0, 1))  # (B, T, N, d)
        targets.append(np.swapaxes(y.data, 0, 1))
    predictions = np.concatenate(preds)
    truth = np.concatenate(targets)

    per_step = [mse(truth[:, t], predictions[:, t]) for t in range(cfg.horizon)]
    aggregate = mse(truth, predictions)

    h, w = ds.grid.height, ds.grid.width
    max_val = float(np.max(np.abs(truth)))
    max_val = max(max_val, 1e-12)
    ssim_vals, psnr_vals = [], []
    for wi in range(truth.shape[0]):
        for t in range(cfg.horizon):
            for c in range(ds.n_channels):
                t_img = truth[wi, t, :, c].reshape(h, w)
                p_img = predictions[wi, t, :, c].reshape(h, w)
                ssim_vals.append(ssim(t_img, p_img, max_val))
                psnr_vals.append(psnr(t_img, p_img, max_val))
    finite_psnr = [v for v in psnr_vals if np.isfinite(v)]
    psnr_value = float(np.mean(finite_psnr)) if finite_psnr else float("inf")

    spectrum_truth = spectrum_pred = None
    if with_spectra:
        acc_t = acc_p = None
        for wi in range(truth.shape[0]):
            ks, e_t = energy_spectrum(truth[wi, -1, :, 0].reshape(h, w))
            _, e_p = energy_spectrum(predictions[wi, -1, :, 0].reshape(h, w))
            acc_t = e_t if acc_t is None else acc_t + e_t
            acc_p = e_p if acc_p is None else acc_p + e_p
        spectrum_truth = (ks, acc_t / truth.shape[0])
        spectrum_pred = (ks, acc_p / truth.shape[0])

    report = MetricReport(
        per_step_mse=per_step,
        mse=aggregate,
        ssim=float(np.mean(ssim_vals)),
        psnr=psnr_value,
        windows=len(windows),
        spectrum_truth=spectrum_truth,
        spectrum_pred=spectrum_pred,
    )
    dump = PredictionDump(windows=windows, predictions=predictions, targets=truth)
    log.info(
        "eval split %s: %d windows in %.2f s",
        split, len(windows), time.perf_counter() - start_time,
    )
    return report, dump
