"""Command-line orchestration.

Commands: gen-data, pretrain, train, eval, inspect-codebook, sweep-k.
Every experiment setting comes from the config file: commands that read one
take --config PATH, and flags carry only paths, eval's --split and
--dump-predictions, and train's --no-augment ablation. Commands that write a
directory require --out DIR. Config values are validated before any work
starts.
Exit codes: 0 success, 2 configuration/usage error, 3 numeric failure,
4 checkpoint/dataset incompatibility. SPARK_LOG={error|info|debug} controls
logging. Every command is reproducible from its config and inputs: re-runs
produce byte-identical dataset and checkpoint payloads (manifest timestamps
aside).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import datetime
import logging
import os
import sys
import zlib
from pathlib import Path

import numpy as np

from . import __version__
from . import autodiff as ad
from .checkpoint import ModelCheckpoint, load_checkpoint, save_checkpoint
from .config import ExperimentConfig, describe_config, load_config, with_augment
from .datagen import (
    SPLIT_IN,
    SPLIT_OUT,
    Episode,
    EpisodeDataset,
    load_dataset,
    make_ood_split,
    save_dataset,
    simulate_navier_stokes,
    simulate_reaction_diffusion,
)
from .dynamics import EpochRow, train_dynamics
from .encoder import EncoderStack
from .errors import (
    ConfigError,
    ContractViolation,
    FormatError,
    IncompatibilityError,
    NumericError,
)
from .evaluation import evaluate_split
from .grids import GridGraph
from .rng import derive_seed
from .serialization import (
    KIND_DYNAMICS,
    KIND_PRETRAIN,
    check_config_compatibility,
    check_dataset_compatibility,
    checkpoint_config,
    dataset_meta,
    pretrained_tensors,
    rebuild_dynamics,
    rebuild_pretrained,
    stored_codebook,
    stored_config,
)
from .state_dictionary import Codebook, codebook_perplexity, pretrain

log = logging.getLogger("sparkpde")

K_SWEEP_GRID = (1, 3, 5, 7, 9, 11)


def _setup_logging() -> None:
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("SPARK_LOG", "error").lower(), logging.ERROR
    )
    logging.basicConfig(stream=sys.stderr, level=level, format="%(levelname)s %(message)s")


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_csv(path: Path, header: list[str], rows: list[list | tuple]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _make_dir(path: Path) -> Path:
    """Create ``path`` and its parents; a path that cannot be a directory is a
    usage error. Commands call this after their checks and before any work."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc.strerror or exc}")
    return path


@contextlib.contextmanager
def _failure_note(path: Path):
    """Remove a ``path`` left by an earlier run, then write to it the message
    of a ``NumericError`` the block raises (which still propagates)."""
    path.unlink(missing_ok=True)
    try:
        yield
    except NumericError as exc:
        path.write_text(str(exc) + "\n", encoding="utf-8")
        raise


# -- gen-data ----------------------------------------------------------------------


def _simulate(cfg: ExperimentConfig, grid: GridGraph, jobs) -> list[Episode]:
    """Every (delta, split, seed) job's episode, from one stacked solver call.
    An episode stores the parameters its solver read: (nu,) for Navier-Stokes,
    (d_u, d_v) for Gray-Scott, where one value gives both diffusivities."""
    ds_cfg = cfg.dataset
    seeds = [seed for _, _, seed in jobs]
    steps = (ds_cfg.t_total - 1) * ds_cfg.record_every
    if ds_cfg.generator == "navier_stokes":
        params = [(delta[0],) for delta, _, _ in jobs]
        trajectories = simulate_navier_stokes(
            grid,
            nu=[p[0] for p in params],
            ic_seed=seeds,
            steps=steps,
            dt=ds_cfg.dt,
            record_every=ds_cfg.record_every,
            ic_modes=ds_cfg.ic_modes,
        )
    else:
        params = [(delta[0], delta[1] if len(delta) > 1 else delta[0]) for delta, _, _ in jobs]
        trajectories = simulate_reaction_diffusion(
            grid,
            d_u=[p[0] for p in params],
            d_v=[p[1] for p in params],
            feed=ds_cfg.feed,
            kill=ds_cfg.kill,
            ic_seed=seeds,
            steps=steps,
            dt=ds_cfg.dt,
            record_every=ds_cfg.record_every,
            reaction_strength=ds_cfg.reaction_strength,
            ic_modes=ds_cfg.ic_modes,
        )
    return [
        Episode(delta=delta, x=x, seed=seed, split=split)
        for delta, x, (_, split, seed) in zip(params, trajectories, jobs)
    ]


def cmd_gen_data(args) -> int:
    cfg = load_config(args.config)
    ds_cfg = cfg.dataset
    grid = GridGraph(ds_cfg.grid.height, ds_cfg.grid.width)
    in_params, out_params = make_ood_split(ds_cfg.params, ds_cfg.ood)
    out = _make_dir(Path(args.out))

    jobs = []
    for split, params in ((SPLIT_IN, in_params), (SPLIT_OUT, out_params)):
        for delta in params:
            for rep in range(ds_cfg.episodes_per_param):
                stream = f"datagen/{delta!r}/{rep}"
                jobs.append((delta, split, derive_seed(cfg.seed, stream)))

    episodes = _simulate(cfg, grid, jobs)

    channel_names = (
        ["vorticity"] if ds_cfg.generator == "navier_stokes" else ["u", "v"]
    )
    ds = EpisodeDataset(grid=grid, channel_names=channel_names, episodes=episodes)

    data_path = out / "dataset.spds"
    save_dataset(ds, str(data_path))

    n_in = len(ds.split_indices(SPLIT_IN))
    n_out = len(ds.split_indices(SPLIT_OUT))
    crc = zlib.crc32(data_path.read_bytes()) & 0xFFFFFFFF
    manifest = [
        f"generator: {ds_cfg.generator}",
        f"grid: {grid.height}x{grid.width}",
        f"dt: {ds_cfg.dt!r}  record_every: {ds_cfg.record_every}  frames: {ds_cfg.t_total}",
        f"episodes: {len(episodes)} (in-domain {n_in}, out-domain {n_out})",
        f"in-domain parameters ({len(in_params)}): {[list(p) for p in in_params]}",
        f"out-domain parameters ({len(out_params)}): {[list(p) for p in out_params]}",
        f"root seed: {cfg.seed}",
        f"dataset crc32: {crc:#010x}",
        f"generated_at: {datetime.datetime.now().isoformat()}",
    ]
    (out / "manifest.txt").write_text("\n".join(manifest) + "\n", encoding="utf-8")
    print(f"wrote {data_path} ({len(episodes)} episodes, {n_in} in / {n_out} out)")
    return 0


# -- pretrain ----------------------------------------------------------------------


def cmd_pretrain(args) -> int:
    cfg = load_config(args.config)
    ds = load_dataset(args.dataset)
    grid = cfg.dataset.grid
    if (grid.height, grid.width) != (ds.grid.height, ds.grid.width):
        raise IncompatibilityError(
            f"grid {grid.height}x{grid.width} does not match dataset "
            f"{ds.grid.height}x{ds.grid.width}"
        )
    out = _make_dir(Path(args.out))
    ckpt_path = out / "pretrain.ckpt"
    with _failure_note(out / "pretrain.failed"):
        result = pretrain(ds, cfg.pretrain, seed=cfg.seed)
    snapshot = checkpoint_config(cfg, KIND_PRETRAIN, dataset_meta(ds))
    save_checkpoint(
        ModelCheckpoint(
            config=snapshot,
            tensors=pretrained_tensors(result.encoder, result.codebook),
        ),
        str(ckpt_path),
    )
    _write_csv(
        out / "pretrain_loss.csv",
        ["epoch", "loss", "perplexity"],
        [
            [i, loss, perp]
            for i, (loss, perp) in enumerate(
                zip(result.loss_history, result.perplexity_history)
            )
        ],
    )
    print(
        f"wrote {ckpt_path} (final loss {result.loss_history[-1]:.6f}, "
        f"perplexity {result.perplexity_history[-1]:.1f}, "
        f"{result.wallclock:.1f}s)"
    )
    return 0


# -- train -------------------------------------------------------------------------


def _load_checkpoint(path: str, kind: str) -> tuple[ModelCheckpoint, ExperimentConfig]:
    """A ``kind`` checkpoint and the config its snapshot records, parsed once."""
    ckpt = load_checkpoint(path)
    if ckpt.config.get("kind") != kind:
        raise IncompatibilityError(
            f"expected a {kind} checkpoint, got {ckpt.config.get('kind')!r}"
        )
    return ckpt, stored_config(ckpt.config)


def _load_pretrained(
    args, cfg: ExperimentConfig
) -> tuple[EpisodeDataset, EncoderStack, Codebook]:
    """The dataset and the pretrained encoder and codebook that ``train`` and
    ``sweep-k`` start from, checked against each other and against ``cfg``."""
    ds = load_dataset(args.dataset)
    ckpt, stored = _load_checkpoint(args.checkpoint, KIND_PRETRAIN)
    check_dataset_compatibility(stored, ckpt.config["meta"], ds)
    check_config_compatibility(stored, cfg)
    encoder, codebook = rebuild_pretrained(stored, ckpt.tensors, ds)
    return ds, encoder, codebook


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    ds, encoder, codebook = _load_pretrained(args, cfg)
    out = _make_dir(Path(args.out))

    aug = None if args.no_augment else cfg.augment
    with _failure_note(out / "train.failed"):
        result = train_dynamics(ds, encoder, codebook, cfg.dynamics, seed=cfg.seed, aug=aug)

    snapshot = checkpoint_config(
        cfg,
        KIND_DYNAMICS,
        {**dataset_meta(ds), "augmented": aug is not None, "tau": result.tau},
    )
    tensors = {name: t.data.copy() for name, t in ad.parameters(result.weights).items()}
    frozen = pretrained_tensors(encoder, codebook)
    tensors.update(frozen)
    save_checkpoint(
        ModelCheckpoint(
            config=snapshot, tensors=tensors, frozen_names=sorted(frozen)
        ),
        str(out / "dynamics.ckpt"),
    )
    _write_csv(
        out / "metrics.csv",
        [f.name for f in dataclasses.fields(EpochRow)],
        [dataclasses.astuple(row) for row in result.history],
    )
    print(
        f"wrote {out / 'dynamics.ckpt'} "
        f"(final train {result.history[-1].train_mse:.6f}, "
        f"val {result.history[-1].val_mse:.6f}, aug calls {result.augment_calls})"
    )
    return 0


# -- eval --------------------------------------------------------------------------


def cmd_eval(args) -> int:
    ckpt, cfg = _load_checkpoint(args.checkpoint, KIND_DYNAMICS)
    ds = load_dataset(args.dataset)
    check_dataset_compatibility(cfg, ckpt.config["meta"], ds)
    encoder, codebook = rebuild_pretrained(cfg, ckpt.tensors, ds)
    weights = rebuild_dynamics(cfg, ckpt.tensors, ds, codebook.dim)
    if not ds.split_indices(args.split):
        raise ContractViolation(f"dataset has no '{args.split}' episodes")
    out = _make_dir(Path(args.out))
    report, dump = evaluate_split(ds, encoder, weights, cfg.dynamics, args.split)
    _write_csv(
        out / f"metrics_{args.split}.csv",
        ["metric", "value"],
        [[name, value] for name, value in report.rows()],
    )
    for tag, spectrum in (("truth", report.spectrum_truth), ("pred", report.spectrum_pred)):
        ks, energy = spectrum
        _write_csv(
            out / f"spectrum_{tag}_{args.split}.csv",
            ["k", "energy"],
            [[int(k), float(e)] for k, e in zip(ks, energy)],
        )
    if args.dump_predictions:
        np.savez(
            out / f"predictions_{args.split}.npz",
            predictions=dump.predictions,
            targets=dump.targets,
            windows=np.array(dump.windows, dtype=np.int64),
        )
    print(
        f"split={args.split} windows={report.windows} "
        f"mse={report.mse:.6f} ssim={report.ssim:.4f} psnr={report.psnr:.2f}"
    )
    return 0


# -- inspect-codebook -----------------------------------------------------------------


def cmd_inspect_codebook(args) -> int:
    codebook = stored_codebook(load_checkpoint(args.checkpoint).tensors)
    usage = codebook.usage
    if args.csv:
        _make_dir(Path(args.csv).parent)
        if Path(args.csv).is_dir():
            raise ConfigError(f"--csv is a directory: {args.csv}")
    m, d = codebook.embeddings.shape
    print(f"codebook: M={m} D={d}")
    if usage.sum() > 0:
        print(f"perplexity: {codebook_perplexity(usage):.3f}")
    else:
        print("perplexity: n/a (no recorded usage)")
    width = 40
    for i in range(m):
        bar = "#" * int(round(width * usage[i] / max(1, usage.max())))
        print(f"  {i:4d} {usage[i]:10d} {bar}")
    if args.csv:
        _write_csv(Path(args.csv), ["entry", "count"], [[i, int(usage[i])] for i in range(m)])
        print(f"wrote {args.csv}")
    return 0


# -- sweep-k ---------------------------------------------------------------------------


def cmd_sweep_k(args) -> int:
    cfg = load_config(args.config)
    augs = [with_augment(cfg, mode="interpolate", k=k).augment for k in K_SWEEP_GRID]
    # train_dynamics verifies by checksum that it leaves these frozen.
    ds, encoder, codebook = _load_pretrained(args, cfg)
    out = _make_dir(Path(args.out))
    rows = []
    for k, aug in zip(K_SWEEP_GRID, augs):
        result = train_dynamics(ds, encoder, codebook, cfg.dynamics, seed=cfg.seed, aug=aug)
        row = [k, result.history[-1].train_mse, result.history[-1].val_mse]
        for split in (SPLIT_IN, SPLIT_OUT):
            if ds.split_indices(split):
                report, _ = evaluate_split(
                    ds, encoder, result.weights, cfg.dynamics, split, with_spectra=False
                )
                row.append(report.mse)
            else:
                row.append(float("nan"))
        rows.append(row)
        print(f"k={k}: train {row[1]:.6f} val {row[2]:.6f} in {row[3]:.6f} out {row[4]:.6f}")
    _write_csv(
        out / "sweep_k.csv",
        ["k", "train_mse", "val_mse", "in_mse", "out_mse"],
        rows,
    )
    print(f"wrote {out / 'sweep_k.csv'}")
    return 0


# -- entry point -------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparkpde",
        description=__doc__,
        epilog="configuration keys and defaults:\n" + describe_config(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"sparkpde {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, dataset=False, checkpoint=False, config=True, out=True):
        if config:
            p.add_argument("--config", required=True, help="YAML experiment config")
        if out:
            p.add_argument("--out", required=True, help="output directory")
        if dataset:
            p.add_argument("--dataset", required=True, help="dataset file (.spds)")
        if checkpoint:
            p.add_argument("--checkpoint", required=True, help="checkpoint file (.ckpt)")

    p = sub.add_parser("gen-data", help="generate a synthetic episode dataset")
    common(p)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("pretrain", help="pretrain encoder and state dictionary")
    common(p, dataset=True)
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("train", help="train the dynamics forecaster")
    common(p, dataset=True, checkpoint=True)
    p.add_argument("--no-augment", action="store_true", help="disable augmentation")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a dynamics checkpoint on a split")
    common(p, dataset=True, checkpoint=True, config=False)
    p.add_argument("--split", choices=["in", "out"], required=True)
    p.add_argument("--dump-predictions", action="store_true")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("inspect-codebook", help="print state dictionary statistics")
    common(p, checkpoint=True, config=False, out=False)
    p.add_argument("--csv", help="also write per-entry usage CSV here")
    p.set_defaults(fn=cmd_inspect_codebook)

    p = sub.add_parser("sweep-k", help="train/evaluate over the augmentation k grid")
    common(p, dataset=True, checkpoint=True)
    p.set_defaults(fn=cmd_sweep_k)

    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, FormatError, ContractViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except IncompatibilityError as exc:
        print(f"incompatible inputs: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
