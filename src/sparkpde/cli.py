"""Command-line orchestration.

Commands: gen-data, pretrain, train, eval, inspect-codebook, sweep-k.
Common flags: --config PATH, --seed U64, --out DIR. Config values and flag
overrides are validated before any work starts.
Exit codes: 0 success, 2 configuration/usage error, 3 numeric failure,
4 checkpoint/dataset incompatibility. SPARK_LOG={error|info|debug} controls
logging. Every command is reproducible from (config, seed): re-runs produce
byte-identical dataset and checkpoint payloads (manifest timestamps aside).
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import logging
import os
import sys
import zlib
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import ModelCheckpoint, load_checkpoint, save_checkpoint
from .config import (
    ExperimentConfig,
    describe_config,
    load_config,
    resolved_curriculum,
    validate_config,
)
from .datagen import (
    SPLIT_IN,
    SPLIT_OUT,
    EpisodeDataset,
    load_dataset,
    make_ood_split,
    save_dataset,
    simulate_navier_stokes,
    simulate_reaction_diffusion,
)
from .dynamics import train_dynamics
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
    dynamics_tensors,
    pretrained_tensors,
    rebuild_dynamics,
    rebuild_pretrained,
)
from .state_dictionary import codebook_perplexity, pretrain

log = logging.getLogger("sparkpde")

K_SWEEP_GRID = (1, 3, 5, 7, 9, 11)


def _setup_logging() -> None:
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("SPARK_LOG", "error").lower(), logging.ERROR
    )
    logging.basicConfig(stream=sys.stderr, level=level, format="%(levelname)s %(message)s")


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _load_config(args) -> ExperimentConfig:
    if not args.config:
        raise ConfigError("--config is required")
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def _with_augment(cfg: ExperimentConfig, **changes) -> ExperimentConfig:
    """A validated copy of ``cfg`` with augment keys replaced; ``cfg`` is untouched."""
    run = dataclasses.replace(cfg, augment=dataclasses.replace(cfg.augment, **changes))
    validate_config(run)
    return run


def _input_file(path: str | None, what: str) -> str:
    if not path or not Path(path).exists():
        raise ConfigError(f"{what} not found: {path}")
    if not Path(path).is_file():
        raise ConfigError(f"{what} is not a file: {path}")
    return path


def _load_dataset(path: str) -> EpisodeDataset:
    if not path:
        raise ConfigError("--dataset is required")
    return load_dataset(_input_file(path, "dataset"))


def _grid_from_config(cfg: ExperimentConfig) -> GridGraph:
    g = cfg.dataset.grid
    return GridGraph(
        g.height, g.width,
        connectivity=g.connectivity, periodic=g.periodic, normalization=g.normalization,
    )


def _attach_grid(ds: EpisodeDataset, grid: GridGraph) -> None:
    if (grid.height, grid.width) != (ds.grid.height, ds.grid.width):
        raise IncompatibilityError(
            f"grid {grid.height}x{grid.width} does not match dataset "
            f"{ds.grid.height}x{ds.grid.width}"
        )
    ds.grid = grid


def _make_dir(path: Path) -> Path:
    """Create ``path`` and its parents; a path that cannot be a directory is a
    usage error. Commands call this after their checks and before any work."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc.strerror or exc}")
    return path


def _out_dir(args, cfg: ExperimentConfig | None = None) -> Path:
    out = args.out or (cfg.out_dir if cfg else None)
    if not out:
        raise ConfigError("--out is required")
    return _make_dir(Path(out))


# -- gen-data ----------------------------------------------------------------------


def _simulate_episode(cfg: ExperimentConfig, grid: GridGraph, delta, split, seed):
    ds_cfg = cfg.dataset
    steps = (ds_cfg.t_total - 1) * ds_cfg.record_every
    if ds_cfg.generator == "navier_stokes":
        ep = simulate_navier_stokes(
            grid,
            nu=delta[0],
            ic_seed=seed,
            steps=steps,
            dt=ds_cfg.dt,
            forcing_amplitude=ds_cfg.forcing_amplitude,
            record_every=ds_cfg.record_every,
            ic_modes=ds_cfg.ic_modes,
            ic_amplitude=ds_cfg.ic_amplitude,
        )
    else:
        d_u = delta[0]
        d_v = delta[1] if len(delta) > 1 else delta[0]
        ep = simulate_reaction_diffusion(
            grid,
            d_u=d_u,
            d_v=d_v,
            feed=ds_cfg.feed,
            kill=ds_cfg.kill,
            ic_seed=seed,
            steps=steps,
            dt=ds_cfg.dt,
            record_every=ds_cfg.record_every,
            reaction_strength=ds_cfg.reaction_strength,
            ic_modes=ds_cfg.ic_modes,
        )
        ep.delta = np.array([d_u, d_v])
    ep.split = split
    return ep


def cmd_gen_data(args) -> int:
    cfg = _load_config(args)
    ds_cfg = cfg.dataset
    grid = _grid_from_config(cfg)
    ood_rule = (
        {"out_values": ds_cfg.ood.out_values}
        if ds_cfg.ood.mode == "explicit"
        else {"threshold": ds_cfg.ood.threshold, "direction": ds_cfg.ood.direction}
    )
    in_params, out_params = make_ood_split(ds_cfg.params, ood_rule)
    out = _out_dir(args, cfg)

    jobs = []
    for split, params in ((SPLIT_IN, in_params), (SPLIT_OUT, out_params)):
        for delta in params:
            for rep in range(ds_cfg.episodes_per_param):
                stream = f"datagen/{delta!r}/{rep}"
                jobs.append((delta, split, derive_seed(cfg.seed, stream)))

    episodes = [_simulate_episode(cfg, grid, delta, split, seed) for delta, split, seed in jobs]

    channel_names = (
        ["vorticity"] if ds_cfg.generator == "navier_stokes" else ["u", "v"]
    )
    ds = EpisodeDataset(grid=grid, channel_names=channel_names, episodes=episodes)
    ds.compute_normalization()

    data_path = out / "dataset.spds"
    save_dataset(ds, str(data_path))

    n_in = len(ds.split_episodes(SPLIT_IN))
    n_out = len(ds.split_episodes(SPLIT_OUT))
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
    cfg = _load_config(args)
    ds = _load_dataset(args.dataset)
    _attach_grid(ds, _grid_from_config(cfg))
    out = _out_dir(args, cfg)
    ckpt_path = out / "pretrain.ckpt"
    try:
        result = pretrain(ds, cfg.pretrain, seed=cfg.seed)
    except NumericError as exc:
        (out / "pretrain.failed").write_text(str(exc) + "\n", encoding="utf-8")
        raise
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


def _train_config(cfg: ExperimentConfig, args) -> ExperimentConfig:
    """``cfg`` with the --aug-*/--curriculum overrides applied, validated."""
    changes = {}
    for key, value in (("mode", args.aug_mode), ("k", args.aug_k), ("tau", args.aug_tau)):
        if value is not None:
            changes[key] = value
    if args.curriculum:
        try:
            start, ramp, pmax = args.curriculum.split(",")
            changes.update(start_epoch=int(start), ramp_epochs=int(ramp), max_ratio=float(pmax))
        except ValueError:
            raise ConfigError(
                f"--curriculum expects E0,R,PMAX (two integers and a ratio), "
                f"got {args.curriculum!r}"
            )
    return _with_augment(cfg, **changes)


def cmd_train(args) -> int:
    cfg = _load_config(args)
    aug = None if args.no_augment else _train_config(cfg, args).augment
    ds = _load_dataset(args.dataset)
    ckpt = load_checkpoint(_input_file(args.checkpoint, "pretrain checkpoint"))
    if ckpt.config.get("kind") != KIND_PRETRAIN:
        raise IncompatibilityError("train expects a pretrain checkpoint")
    check_dataset_compatibility(ckpt.config, ds)
    check_config_compatibility(ckpt.config, cfg)
    _, encoder, codebook, grid = rebuild_pretrained(ckpt.config, ckpt.tensors)
    _attach_grid(ds, grid)
    out = _out_dir(args, cfg)

    result = train_dynamics(ds, encoder, codebook, cfg.dynamics, seed=cfg.seed, aug=aug)

    meta = dataset_meta(ds)
    meta["d_latent"] = codebook.dim
    meta["augmented"] = aug is not None
    if aug is not None:
        start, ramp, pmax = resolved_curriculum(aug, cfg.dynamics.epochs)
        meta["augment"] = {
            "mode": aug.mode, "k": aug.k, "tau": result.tau,
            "start_epoch": start, "ramp_epochs": ramp, "max_ratio": pmax,
        }
    snapshot = checkpoint_config(cfg, KIND_DYNAMICS, meta)
    tensors = dynamics_tensors(result.weights)
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
        ["epoch", "train_mse", "val_mse", "aug_ratio", "wallclock"],
        [
            [row.epoch, row.train_mse, row.val_mse, row.aug_ratio, row.wallclock]
            for row in result.history
        ],
    )
    print(
        f"wrote {out / 'dynamics.ckpt'} "
        f"(final train {result.history[-1].train_mse:.6f}, "
        f"val {result.history[-1].val_mse:.6f}, aug calls {result.augment_calls})"
    )
    return 0


# -- eval --------------------------------------------------------------------------


def _load_dynamics_checkpoint(path: str):
    ckpt = load_checkpoint(_input_file(path, "checkpoint"))
    if ckpt.config.get("kind") != KIND_DYNAMICS:
        raise IncompatibilityError("eval expects a dynamics checkpoint")
    return ckpt


def cmd_eval(args) -> int:
    ckpt = _load_dynamics_checkpoint(args.checkpoint)
    ds = _load_dataset(args.dataset)
    check_dataset_compatibility(ckpt.config, ds)
    cfg, encoder, codebook, grid = rebuild_pretrained(ckpt.config, ckpt.tensors)
    _attach_grid(ds, grid)
    weights = rebuild_dynamics(
        ckpt.config, ckpt.tensors, grid, ds.n_channels, codebook.dim
    )
    split = {"in": SPLIT_IN, "out": SPLIT_OUT}[args.split]
    if not ds.split_episodes(split):
        raise ContractViolation(f"dataset has no '{split}' episodes")
    out = _out_dir(args, cfg)
    report, dump = evaluate_split(ds, encoder, weights, cfg.dynamics, split)
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
        f"split={args.split} windows={report.extras['windows']} "
        f"mse={report.mse:.6f} ssim={report.ssim:.4f} psnr={report.psnr:.2f}"
    )
    return 0


# -- inspect-codebook -----------------------------------------------------------------


def cmd_inspect_codebook(args) -> int:
    ckpt = load_checkpoint(_input_file(args.checkpoint, "checkpoint"))
    if "codebook.embeddings" not in ckpt.tensors:
        raise IncompatibilityError("checkpoint holds no codebook")
    entries = ckpt.tensors["codebook.embeddings"]
    usage = ckpt.tensors.get(
        "codebook.usage", np.zeros(entries.shape[0], dtype=np.int64)
    )
    if args.csv:
        _make_dir(Path(args.csv).parent)
        if Path(args.csv).is_dir():
            raise ConfigError(f"--csv is a directory: {args.csv}")
    m, d = entries.shape
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
    cfg = _load_config(args)
    augs = [_with_augment(cfg, mode="interpolate", k=k).augment for k in K_SWEEP_GRID]
    ds = _load_dataset(args.dataset)
    ckpt = load_checkpoint(_input_file(args.checkpoint, "pretrain checkpoint"))
    check_dataset_compatibility(ckpt.config, ds)
    check_config_compatibility(ckpt.config, cfg)
    # train_dynamics verifies by checksum that it leaves these frozen.
    _, encoder, codebook, grid = rebuild_pretrained(ckpt.config, ckpt.tensors)
    _attach_grid(ds, grid)
    out = _out_dir(args, cfg)
    rows = []
    for k, aug in zip(K_SWEEP_GRID, augs):
        result = train_dynamics(ds, encoder, codebook, cfg.dynamics, seed=cfg.seed, aug=aug)
        row = [k, result.history[-1].train_mse, result.history[-1].val_mse]
        for split in (SPLIT_IN, SPLIT_OUT):
            if ds.split_episodes(split):
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

    def common(p, dataset=False, checkpoint=False, config=True):
        if config:
            p.add_argument("--config", help="YAML experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the root seed")
        p.add_argument("--out", help="output directory")
        if dataset:
            p.add_argument("--dataset", help="dataset file (.spds)")
        if checkpoint:
            p.add_argument("--checkpoint", help="checkpoint file (.ckpt)")

    p = sub.add_parser("gen-data", help="generate a synthetic episode dataset")
    common(p)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("pretrain", help="pretrain encoder and state dictionary")
    common(p, dataset=True)
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("train", help="train the dynamics forecaster")
    common(p, dataset=True, checkpoint=True)
    p.add_argument("--no-augment", action="store_true", help="disable augmentation")
    p.add_argument("--aug-mode", choices=["snap", "interpolate"], default=None)
    p.add_argument("--aug-k", type=int, default=None)
    p.add_argument("--aug-tau", type=float, default=None)
    p.add_argument("--curriculum", default=None, metavar="E0,R,PMAX")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a dynamics checkpoint on a split")
    common(p, dataset=True, checkpoint=True, config=False)
    p.add_argument("--split", choices=["in", "out"], required=True)
    p.add_argument("--dump-predictions", action="store_true")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("inspect-codebook", help="print state dictionary statistics")
    common(p, checkpoint=True, config=False)
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
