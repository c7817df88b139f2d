"""Forecast evaluation over dataset splits.

Metrics are computed in normalized observation space (the space the model is
trained in), with max_val for SSIM/PSNR taken from the evaluated split's
truth frames. Augmentation is never applied here.

Windows are forecast in batches of ``BATCH_SIZE`` on a thread pool with one
worker per CPU of the process's affinity (at most one per batch), and the
episode latents of the split on the same kind of pool. numpy's GEMMs and
ufuncs and scipy's sparse products release the GIL, so the batches overlap.
The partition into batches is fixed and results are gathered in window
order, so the outputs do not depend on the worker count. Every op of a
forecast treats windows as independent GEMM rows or columns, elementwise work
or per-window reductions, so they do not depend on the batch size either, as
long as BLAS computes a column the same way whatever the number of columns;
OpenBLAS does not for GEMMs of at most 4 columns, which a latent width of 4 or
less gives a batch of one window.
"""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .config import DynamicsSection
from .datagen import EpisodeDataset
from .dynamics import DynamicsWeights, _forecast_batch, _windows, episode_latents
from .encoder import EncoderStack
from .errors import ContractViolation, NumericError
from .metrics import MetricReport, energy_spectrum, mse, psnr, ssim

log = logging.getLogger("sparkpde")

# Windows per forecast batch; small, so that the batches forecast at once
# hold little memory.
BATCH_SIZE = 2


def _in_order(fn: Callable, items: list) -> list:
    """``[fn(item) for item in items]``, run on a thread pool with one worker
    per CPU of the process's affinity, at most one per item; with one worker,
    in the calling thread. The first exception in item order is raised.

    The workers share the module-global active tape, so none may record: a
    recording ``Tape`` is a ``ContractViolation``, whatever the core count.
    """
    if ad.tape_recording():
        raise ContractViolation("forecasts run on worker threads; none may run while a Tape records")
    workers = min(len(items), len(os.sched_getaffinity(0)))
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def forecast_windows(
    latents: dict[int, np.ndarray],
    ds: EpisodeDataset,
    windows: list[tuple[int, int]],
    weights: DynamicsWeights,
    cfg: DynamicsSection,
    batch_size: int,
    split: str,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(y_hat, y) arrays, each (T, B, N, d), of each run of ``batch_size``
    windows in turn, forecast with no tape (``_in_order``). ``ds.stats`` must be
    set, so that the workers only read the dataset. A forecast that diverges
    raises ``NumericError`` naming ``split`` and its batch's windows."""

    def forecast(batch: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
        try:
            y_hat, y = _forecast_batch(latents, ds, batch, weights, cfg)
        except NumericError as exc:
            raise NumericError(
                f"forecast of split '{split}' windows (episode, start) {batch}: {exc}"
            ) from exc
        return y_hat.data, y.data

    batches = [windows[lo : lo + batch_size] for lo in range(0, len(windows), batch_size)]
    return _in_order(forecast, batches)


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

    if ds.stats is None:
        ds.compute_normalization()  # before the pool: the workers only read it

    episode_ids = sorted({e for e, _ in windows})
    encoded = _in_order(lambda e: episode_latents(ds, encoder, e), episode_ids)
    latents = dict(zip(episode_ids, encoded))
    batches = forecast_windows(latents, ds, windows, weights, cfg, BATCH_SIZE, split)
    predictions = np.concatenate([np.swapaxes(y_hat, 0, 1) for y_hat, _ in batches])  # (W, T, N, d)
    truth = np.concatenate([np.swapaxes(y, 0, 1) for _, y in batches])

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
