"""The benchmark's workloads: a config made from the seed, set-up stages, timed stages.

Each workload writes one experiment config and names the CLI stages run in
set-up (artifacts the timed part reads) and in one timed pass. Full sizes are
chosen so that one pass runs in one process with one BLAS thread within the
benchmark's time budget on a 2-core box; ``mini=True`` gives a 16x16
miniature of the same workload for the self-check. README.md says why each
workload exists.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# The README model widths: d_latent 32, M 64, k_max 8, 2 ODE layers, RK4 x4.
MODEL = {
    "pretrain": {"epochs": 1, "codebook_size": 64, "d_latent": 32, "k_max": 8},
    "dynamics": {
        "t0": 4, "horizon": 4, "epochs": 1, "val_fraction": 0.0,
        "solver": "rk4", "substeps": 4, "ode_layers": 2, "k_max": 8,
    },
    # Curriculum on from epoch 0, so augmentation runs in every train step.
    "augment": {"mode": "interpolate", "k": 3, "start_epoch": 0, "ramp_epochs": 0,
                "max_ratio": 0.5},
}

MINI = {
    "dataset": {"grid": {"height": 16, "width": 16}},
    "pretrain": {"codebook_size": 16, "d_latent": 8, "hidden": 16, "attention_hidden": 8,
                 "k_max": 4},
    "dynamics": {"t0": 2, "horizon": 2, "substeps": 2, "k_max": 4, "decoder_hidden": 16},
}


def merged(base: dict, *overrides: dict) -> dict:
    out = copy.deepcopy(base)
    for override in overrides:
        for key, value in override.items():
            if isinstance(value, dict) and isinstance(out.get(key), dict):
                out[key] = merged(out[key], value)
            else:
                out[key] = copy.deepcopy(value)
    return out


@dataclass
class Stage:
    """One ``sparkpde.cli.main`` call: its argv, output directory and input checkpoint."""

    command: str
    argv: list[str]
    out: Path
    checkpoint: Path | None = None


def gen_data(config: Path, out: Path) -> Stage:
    out = out / "data"
    return Stage("gen-data", ["gen-data", "--config", str(config), "--out", str(out)], out)


def pretrain(config: Path, dataset: Path, out: Path) -> Stage:
    out = out / "pre"
    argv = ["pretrain", "--config", str(config), "--dataset", str(dataset), "--out", str(out)]
    return Stage("pretrain", argv, out)


def train(config: Path, dataset: Path, checkpoint: Path, out: Path) -> Stage:
    out = out / "dyn"
    argv = ["train", "--config", str(config), "--dataset", str(dataset),
            "--checkpoint", str(checkpoint), "--out", str(out)]
    return Stage("train", argv, out, checkpoint)


def evaluate(dataset: Path, checkpoint: Path, out: Path) -> Stage:
    out = out / "eval"
    argv = ["eval", "--checkpoint", str(checkpoint), "--dataset", str(dataset),
            "--split", "out", "--dump-predictions", "--out", str(out)]
    return Stage("eval", argv, out, checkpoint)


DATASET = "data/dataset.spds"
PRETRAIN_CKPT = "pre/pretrain.ckpt"
DYNAMICS_CKPT = "dyn/dynamics.ckpt"


@dataclass(frozen=True)
class Workload:
    name: str
    full: dict
    mini: dict
    # (config path, set-up output dir) -> set-up stages
    setup: Callable[[Path, Path], list[Stage]]
    # (config path, set-up output dir, pass output dir) -> timed stages
    timed: Callable[[Path, Path, Path], list[Stage]]

    def config(self, seed: int, mini: bool) -> dict:
        cfg = merged(self.full, MINI, self.mini) if mini else copy.deepcopy(self.full)
        cfg["seed"] = config_seed(self.name, seed)
        return cfg


def config_seed(workload: str, seed: int) -> int:
    """The experiment's root seed, derived from the workload seed."""
    digest = hashlib.sha256(f"{workload}/{seed}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


NS_DATASET = {
    "generator": "navier_stokes",
    "grid": {"height": 32, "width": 32},
    "episodes_per_param": 1,
}

TRAIN_NS32 = Workload(
    name="train_ns32",
    full=merged(MODEL, {
        # 4 in-domain episodes of t0 + horizon frames: 4 windows, 2 steps of
        # batch 2. Two steps, because the previous step's graph is still
        # referenced while the next one is recorded, and peak RSS shows that.
        "dataset": merged(NS_DATASET, {
            "params": [1.0e-2, 3.0e-3, 1.0e-3, 3.0e-4, 1.0e-4, 3.0e-5],
            "ood": {"mode": "explicit", "out_values": [1.0e-4, 3.0e-5]},
            "t_total": 8,
        }),
        "dynamics": {"batch_size": 2},
    }),
    mini={"dataset": {"t_total": 4, "record_every": 5}},
    setup=lambda cfg, s: [gen_data(cfg, s), pretrain(cfg, s / DATASET, s)],
    timed=lambda cfg, s, p: [train(cfg, s / DATASET, s / PRETRAIN_CKPT, p)],
)

EVAL_NS32 = Workload(
    name="eval_ns32",
    full=merged(MODEL, {
        # 5 out-of-domain episodes of 16 frames: 3 windows each at eval stride 4,
        # 15 in all. The one in-domain episode gives set-up a one-step train.
        "dataset": merged(NS_DATASET, {
            "params": [1.0e-3, 1.0e-4, 5.0e-5, 3.0e-5, 2.0e-5, 1.0e-5],
            "ood": {"mode": "explicit", "out_values": [1.0e-4, 5.0e-5, 3.0e-5, 2.0e-5, 1.0e-5]},
            "t_total": 16,
        }),
        "dynamics": {"batch_size": 1, "window_stride": 16},
    }),
    mini={"dataset": {"t_total": 12, "record_every": 5}, "dynamics": {"window_stride": 12}},
    setup=lambda cfg, s: [
        gen_data(cfg, s),
        pretrain(cfg, s / DATASET, s),
        train(cfg, s / DATASET, s / PRETRAIN_CKPT, s),
    ],
    timed=lambda cfg, s, p: [evaluate(s / DATASET, s / DYNAMICS_CKPT, p)],
)

PREP_GS32 = Workload(
    name="prep_gs32",
    full=merged(MODEL, {
        # 120 solver steps per frame puts solver stepping at 40-50% of the pass.
        "dataset": {
            "generator": "reaction_diffusion",
            "grid": {"height": 32, "width": 32},
            "params": [[1.0e-4, 5.0e-5], [1.3e-4, 6.5e-5], [1.6e-4, 8.0e-5], [2.0e-4, 1.0e-4]],
            "ood": {"mode": "explicit", "out_values": [[2.0e-4, 1.0e-4]]},
            "episodes_per_param": 2,
            "t_total": 16,
            "dt": 1.0,
            "record_every": 120,
        },
    }),
    mini={"dataset": {"t_total": 6, "record_every": 20}},
    setup=lambda cfg, s: [],
    timed=lambda cfg, s, p: [gen_data(cfg, p), pretrain(cfg, p / DATASET, p)],
)

WORKLOADS = {w.name: w for w in (TRAIN_NS32, EVAL_NS32, PREP_GS32)}
