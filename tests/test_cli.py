"""End-to-end CLI pipeline on a miniature experiment."""

from __future__ import annotations

import numpy as np
import pytest
import yaml

from sparkpde import cli, config, dynamics, evaluation, serialization, state_dictionary
from sparkpde.augment import curriculum_ratio
from sparkpde.autodiff import parameters
from sparkpde.checkpoint import load_checkpoint, save_checkpoint
from sparkpde.cli import main
from sparkpde.config import config_to_dict, load_config, settings
from sparkpde.datagen import load_dataset, reaction_diffusion
from sparkpde.grids import GridGraph
from sparkpde.rng import Xoshiro256StarStar
from sparkpde.serialization import rebuild_dynamics, rebuild_pretrained, stored_config

from helpers import with_table_shape, write_parameter_lengths

MICRO_CONFIG = """\
seed: 42
dataset:
  generator: navier_stokes
  grid: {height: 16, width: 16}
  params: [1.0e-2, 1.0e-3]
  ood: {mode: explicit, out_values: [1.0e-3]}
  episodes_per_param: 2
  t_total: 8
  dt: 5.0e-3
  record_every: 4
  ic_modes: 3
pretrain:
  epochs: 3
  batch_size: 16
  codebook_size: 12
  d_latent: 8
  hidden: 16
  attention_hidden: 8
  gnn_layers: 1
  k_max: 3
dynamics:
  t0: 3
  horizon: 3
  epochs: 4
  batch_size: 4
  ode_layers: 1
  k_max: 3
  decoder_hidden: 12
  substeps: 1
  val_fraction: 0.25
augment:
  mode: interpolate
  k: 2
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    config = root / "exp.yaml"
    config.write_text(MICRO_CONFIG, encoding="utf-8")
    data_dir = root / "data"
    assert main(["gen-data", "--config", str(config), "--out", str(data_dir)]) == 0
    pre_dir = root / "pre"
    assert (
        main(
            [
                "pretrain",
                "--config", str(config),
                "--dataset", str(data_dir / "dataset.spds"),
                "--out", str(pre_dir),
            ]
        )
        == 0
    )
    train_dir = root / "train"
    assert (
        main(
            [
                "train",
                "--config", str(config),
                "--dataset", str(data_dir / "dataset.spds"),
                "--checkpoint", str(pre_dir / "pretrain.ckpt"),
                "--out", str(train_dir),
            ]
        )
        == 0
    )
    return {
        "root": root,
        "config": config,
        "dataset": data_dir / "dataset.spds",
        "manifest": data_dir / "manifest.txt",
        "pretrain_ckpt": pre_dir / "pretrain.ckpt",
        "dynamics_ckpt": train_dir / "dynamics.ckpt",
        "metrics": train_dir / "metrics.csv",
    }


def test_artifacts_exist(workspace):
    for key in ("dataset", "manifest", "pretrain_ckpt", "dynamics_ckpt", "metrics"):
        assert workspace[key].exists(), key


def test_manifest_reports_split_sizes(workspace):
    text = workspace["manifest"].read_text()
    assert "in-domain parameters (1)" in text
    assert "out-domain parameters (1)" in text
    assert "episodes: 4 (in-domain 2, out-domain 2)" in text


def test_gen_data_reproducible(workspace, tmp_path):
    out2 = tmp_path / "again"
    assert main(["gen-data", "--config", str(workspace["config"]), "--out", str(out2)]) == 0
    assert (out2 / "dataset.spds").read_bytes() == workspace["dataset"].read_bytes()


def _rd_config(tmp_path, **dataset) -> str:
    """The micro config as a Gray-Scott run whose last parameter is out-of-domain."""
    data = yaml.safe_load(MICRO_CONFIG)
    data["dataset"].update(
        {
            "generator": "reaction_diffusion",
            "params": [[1.0e-5, 1.0e-5], [2.0e-5, 2.0e-5]],
            "ood": {"mode": "explicit", "out_values": [[2.0e-5, 2.0e-5]]},
            **dataset,
        }
    )
    path = tmp_path / "rd.yaml"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return str(path)


def test_gen_data_checks_every_episode_before_stepping(tmp_path, monkeypatch, capsys):
    # The last job's diffusivity breaks the stability bound at dt = 1.
    def no_step(*args):
        raise AssertionError("stepped before every episode was checked")

    monkeypatch.setattr(reaction_diffusion, "_laplacian", no_step)
    config = _rd_config(tmp_path, params=[[1.0e-5, 1.0e-5], [1.0e-1, 1.0e-1]],
                        ood={"mode": "explicit", "out_values": [[1.0e-1, 1.0e-1]]}, dt=1.0)
    out = tmp_path / "out"
    assert main(["gen-data", "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "episode 2 (d_u=0.1, d_v=0.1, seed " in err
    assert "stability" in err
    assert not (out / "dataset.spds").exists()


def test_gen_data_divergence_exits_3_naming_the_episode(tmp_path, capsys):
    # Explicit Euler on the reaction terms blows up at dt = 20 with F = k = 0.3.
    config = _rd_config(tmp_path, dt=20.0, feed=0.3, kill=0.3)
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["gen-data", "--config", config, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "reaction-diffusion diverged at step 7 in episode 0 (d_u=1e-05, d_v=1e-05, seed " in err
    assert not (out / "dataset.spds").exists()


def _nan_on_call(monkeypatch, module, name, call, make_nan):
    """Replace ``module.name`` by a wrapper whose ``call``-th result (from 1)
    is passed through ``make_nan``."""
    real = getattr(module, name)
    calls = []

    def patched(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(1)
        return make_nan(out) if len(calls) == call else out

    monkeypatch.setattr(module, name, patched)


def _micro_config(tmp_path, section, **values) -> str:
    data = yaml.safe_load(MICRO_CONFIG)
    data[section].update(values)
    path = tmp_path / "micro.yaml"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return str(path)


def test_pretrain_divergence_leaves_pretrain_failed(workspace, tmp_path, monkeypatch, capsys):
    # Batch size 4 over the 16 in-domain frames (2 episodes of 8) makes 4
    # batches per epoch, so the 7th loss is epoch 1, batch 2.
    config = _micro_config(tmp_path, "pretrain", batch_size=4)
    _nan_on_call(monkeypatch, state_dictionary, "pretrain_loss", 7, lambda loss: loss * np.nan)
    out = tmp_path / "pre"
    argv = ["pretrain", "--config", config, "--dataset", str(workspace["dataset"])]
    assert main(argv + ["--out", str(out)]) == 3
    message = "pretraining diverged at epoch 1, batch 2"
    assert message in capsys.readouterr().err
    assert (out / "pretrain.failed").read_text(encoding="utf-8") == message + "\n"
    assert not (out / "pretrain.ckpt").exists()
    # A run that succeeds in the same directory removes the stale note.
    monkeypatch.undo()
    assert main(argv + ["--out", str(out)]) == 0
    assert (out / "pretrain.ckpt").exists() and not (out / "pretrain.failed").exists()


def test_train_divergence_leaves_train_failed(workspace, tmp_path, monkeypatch, capsys):
    # Batch size 1 over the 4 training windows makes 4 batches per epoch, so
    # the 7th loss is epoch 1, batch 2.
    config = _micro_config(tmp_path, "dynamics", batch_size=1)
    _nan_on_call(monkeypatch, dynamics, "dynamics_loss", 7, lambda out: (out[0], np.nan))
    out = tmp_path / "train"
    assert main(_train_argv(workspace, out, config=config)) == 3
    message = "dynamics training diverged at epoch 1, batch 2"
    assert message in capsys.readouterr().err
    assert (out / "train.failed").read_text(encoding="utf-8") == message + "\n"
    assert not (out / "dynamics.ckpt").exists()
    monkeypatch.undo()
    assert main(_train_argv(workspace, out, config=config)) == 0
    assert (out / "dynamics.ckpt").exists() and not (out / "train.failed").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_eval_divergence_exits_3_naming_the_windows(workspace, tmp_path, capsys):
    # An ODE bias at the top of the float range overflows the first RK4 step.
    ckpt = load_checkpoint(str(workspace["dynamics_ckpt"]))
    ckpt.tensors["dynamics.0.b"] = np.full_like(ckpt.tensors["dynamics.0.b"], 1e308)
    bad = tmp_path / "diverging.ckpt"
    save_checkpoint(ckpt, str(bad))
    ds = load_dataset(str(workspace["dataset"]))
    windows = [(e, 0) for e, ep in enumerate(ds.episodes) if ep.split == "out"]
    argv = ["eval", "--checkpoint", str(bad), "--dataset", str(workspace["dataset"]),
            "--split", "out", "--out", str(tmp_path / "eval")]
    assert main(argv) == 3
    message = (
        f"numeric failure: forecast of split 'out' windows (episode, start) "
        f"{windows[:evaluation.BATCH_SIZE]}: integration diverged at t=1"
    )
    assert message in capsys.readouterr().err


def test_pretrain_reproducible(workspace, tmp_path):
    out2 = tmp_path / "pre2"
    assert (
        main(
            [
                "pretrain",
                "--config", str(workspace["config"]),
                "--dataset", str(workspace["dataset"]),
                "--out", str(out2),
            ]
        )
        == 0
    )
    assert (out2 / "pretrain.ckpt").read_bytes() == workspace["pretrain_ckpt"].read_bytes()


def test_train_reproducible(workspace, tmp_path):
    out2 = tmp_path / "train2"
    assert (
        main(
            [
                "train",
                "--config", str(workspace["config"]),
                "--dataset", str(workspace["dataset"]),
                "--checkpoint", str(workspace["pretrain_ckpt"]),
                "--out", str(out2),
            ]
        )
        == 0
    )
    assert (out2 / "dynamics.ckpt").read_bytes() == workspace["dynamics_ckpt"].read_bytes()


def test_metrics_follow_curriculum(workspace):
    cfg = load_config(str(workspace["config"]))
    lines = workspace["metrics"].read_text().strip().splitlines()
    header = lines[0].split(",")
    idx_epoch = header.index("epoch")
    idx_ratio = header.index("aug_ratio")
    for line in lines[1:]:
        cells = line.split(",")
        epoch = int(cells[idx_epoch])
        assert float(cells[idx_ratio]) == curriculum_ratio(epoch, cfg.augment)


def test_no_augment_run(workspace, tmp_path):
    out = tmp_path / "noaug"
    assert (
        main(
            [
                "train",
                "--config", str(workspace["config"]),
                "--dataset", str(workspace["dataset"]),
                "--checkpoint", str(workspace["pretrain_ckpt"]),
                "--out", str(out),
                "--no-augment",
            ]
        )
        == 0
    )
    lines = (out / "metrics.csv").read_text().strip().splitlines()
    ratios = [float(line.split(",")[3]) for line in lines[1:]]
    assert all(r == 0.0 for r in ratios)
    ckpt = load_checkpoint(str(out / "dynamics.ckpt"))
    assert ckpt.config["meta"]["augmented"] is False


def test_eval_both_splits_and_dump(workspace, tmp_path):
    out = tmp_path / "eval"
    for split in ("in", "out"):
        assert (
            main(
                [
                    "eval",
                    "--checkpoint", str(workspace["dynamics_ckpt"]),
                    "--dataset", str(workspace["dataset"]),
                    "--split", split,
                    "--out", str(out),
                    "--dump-predictions",
                ]
            )
            == 0
        )
        assert (out / f"metrics_{split}.csv").exists()
        assert (out / f"spectrum_truth_{split}.csv").exists()
        assert (out / f"spectrum_pred_{split}.csv").exists()
        assert (out / f"predictions_{split}.npz").exists()


def test_eval_totals_match_independent_recomputation(workspace, tmp_path):
    out = tmp_path / "eval2"
    assert (
        main(
            [
                "eval",
                "--checkpoint", str(workspace["dynamics_ckpt"]),
                "--dataset", str(workspace["dataset"]),
                "--split", "in",
                "--out", str(out),
                "--dump-predictions",
            ]
        )
        == 0
    )
    dump = np.load(out / "predictions_in.npz")
    recomputed = float(np.mean((dump["predictions"] - dump["targets"]) ** 2))
    rows = {}
    for line in (out / "metrics_in.csv").read_text().strip().splitlines()[1:]:
        name, value = line.split(",")
        rows[name] = float(value)
    assert abs(rows["mse"] - recomputed) < 1e-12


def test_inspect_codebook(workspace, tmp_path, capsys):
    csv_path = tmp_path / "new-dir" / "usage.csv"
    assert (
        main(
            [
                "inspect-codebook",
                "--checkpoint", str(workspace["pretrain_ckpt"]),
                "--csv", str(csv_path),
            ]
        )
        == 0
    )
    captured = capsys.readouterr()
    assert "codebook: M=12 D=8" in captured.out
    assert "perplexity" in captured.out
    assert csv_path.exists()
    assert len(csv_path.read_text().strip().splitlines()) == 13  # header + 12 entries


def test_missing_dataset_is_config_error(workspace):
    code = main(
        [
            "pretrain",
            "--config", str(workspace["config"]),
            "--dataset", "/nonexistent/ds.spds",
            "--out", "/tmp/ignored",
        ]
    )
    assert code == 2


def test_mismatched_latent_width_refused(workspace, tmp_path):
    bad_cfg = tmp_path / "bad.yaml"
    bad_cfg.write_text(
        MICRO_CONFIG.replace("d_latent: 8", "d_latent: 16"), encoding="utf-8"
    )
    code = main(
        [
            "train",
            "--config", str(bad_cfg),
            "--dataset", str(workspace["dataset"]),
            "--checkpoint", str(workspace["pretrain_ckpt"]),
            "--out", str(tmp_path / "bad-train"),
        ]
    )
    assert code == 4


@pytest.mark.parametrize("command", ["train", "sweep-k"])
@pytest.mark.parametrize(
    "old,new,key",
    [
        ("  hidden: 16", "  hidden: 24", "pretrain.hidden"),
        ("  gnn_layers: 1", "  gnn_layers: 1\n  mu: 0.5", "pretrain.mu"),
    ],
    ids=["hidden", "mu"],
)
def test_pretrain_section_must_match_checkpoint(workspace, tmp_path, capsys, command, old, new, key):
    # The frozen encoder is what the checkpoint's pretrain section describes;
    # eval rebuilds it from the training config, so any other value is refused.
    assert old in MICRO_CONFIG
    cfg = tmp_path / "changed.yaml"
    cfg.write_text(MICRO_CONFIG.replace(old, new), encoding="utf-8")
    out = tmp_path / "out"
    code = main(
        [
            command,
            "--config", str(cfg),
            "--dataset", str(workspace["dataset"]),
            "--checkpoint", str(workspace["pretrain_ckpt"]),
            "--out", str(out),
        ]
    )
    assert code == 4
    err = capsys.readouterr().err
    assert key in err
    assert err.count("pretrain.") == 1  # only the differing key is named
    assert not out.exists()


def test_eval_missing_split_errors(workspace, tmp_path):
    # build a dataset with no OOD episodes
    cfg_text = MICRO_CONFIG.replace(
        "ood: {mode: explicit, out_values: [1.0e-3]}",
        "ood: {mode: explicit, out_values: []}",
    )
    cfg_path = tmp_path / "noood.yaml"
    cfg_path.write_text(cfg_text, encoding="utf-8")
    data_dir = tmp_path / "noood-data"
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(data_dir)]) == 0
    code = main(
        [
            "eval",
            "--checkpoint", str(workspace["dynamics_ckpt"]),
            "--dataset", str(data_dir / "dataset.spds"),
            "--split", "out",
            "--out", str(tmp_path / "eval-out"),
        ]
    )
    assert code == 2


def test_unreadable_config_rejected(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("dataset: {generator: warp_drive}\n", encoding="utf-8")
    assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2


# (dotted key, invalid value): every key with a rule, plus the cross-field
# probes (k_max > min(H,W)/2 = 8, augment.k > codebook_size = 12,
# t_total < t0 + horizon = 6, a non-positive viscosity).
INVALID_VALUES = [
    ("seed", -1),
    ("seed", 2**64),
    ("dataset.generator", "warp_drive"),
    ("dataset.grid.height", 0),
    ("dataset.grid.width", -16),
    ("dataset.params", []),
    ("dataset.params", ["fast"]),
    ("dataset.params", [1.0e-2, -1.0e-3]),
    ("dataset.ood.mode", "random"),
    ("dataset.ood.out_values", [[1.0e-3, "x"]]),
    ("dataset.ood.direction", "sideways"),
    ("dataset.episodes_per_param", 0),
    ("dataset.t_total", 0),
    ("dataset.t_total", 5),
    ("dataset.dt", 0.0),
    ("dataset.record_every", 0),
    ("dataset.ic_modes", 0),
    ("dataset.feed", 0.5),
    ("dataset.kill", -0.1),
    ("dataset.reaction_strength", -1.0),
    ("pretrain.epochs", 0),
    ("pretrain.batch_size", 0),
    ("pretrain.lr", 0.0),
    ("pretrain.mu", -0.25),
    ("pretrain.gamma", -1.0),
    ("pretrain.codebook_size", 1),
    ("pretrain.d_latent", 0),
    ("pretrain.hidden", 0),
    ("pretrain.attention_hidden", 0),
    ("pretrain.gnn_layers", 0),
    ("pretrain.k_max", -1),
    ("pretrain.k_max", 9),
    ("dynamics.t0", 0),
    ("dynamics.horizon", 0),
    ("dynamics.lambda_reg", -1.0e-6),
    ("dynamics.solver", "rk9"),
    ("dynamics.substeps", 0),
    ("dynamics.ode_layers", 0),
    ("dynamics.k_max", -1),
    ("dynamics.k_max", 9),
    ("dynamics.decoder_hidden", 0),
    ("dynamics.epochs", 0),
    ("dynamics.lr", -3.0e-3),
    ("dynamics.batch_size", 0),
    ("dynamics.val_fraction", -0.5),
    ("dynamics.val_fraction", 1.0),
    ("dynamics.window_stride", 0),
    ("augment.mode", "mixup"),
    ("augment.k", 0),
    ("augment.k", 13),
    ("augment.tau", -1.0),
    ("augment.tau", 0.0),
    ("augment.start_epoch", -2),
    ("augment.ramp_epochs", -2),
    ("augment.max_ratio", 1.5),
]


# Keys the schema no longer has: a config that still sets one, to any value,
# is refused at load rather than run with the one remaining behaviour.
REMOVED_KEYS = [
    ("dataset.grid.periodic", False),
    ("dataset.grid.connectivity", 6),
    ("dataset.grid.normalization", "max"),
    ("pretrain.activation", "relu"),
    ("dynamics.activation", "relu"),
    ("pretrain.lr_decay", "bogus"),
    ("pretrain.param_transform", "log2"),
    ("pretrain.reseed_dead_codes", True),
    ("dynamics.lr_decay", "bogus"),
    ("dynamics.attention_activation", "gelu"),
    ("dynamics.spectral_adjacency", "both"),
    ("dynamics.layer_output", "mean"),
    ("dynamics.eval_stride", -1),
    ("out_dir", "runs/experiment"),
    ("dataset.ic_amplitude", -1.0),
    ("dataset.forcing_amplitude", 0.0),
]


def test_invalid_values_cover_every_rule():
    keys = {key for key, _ in INVALID_VALUES}
    schema = {key for key, _, _ in settings()}
    ruled = {key for key, f, _ in settings() if f.metadata["rule"]}
    assert ruled <= keys <= schema
    assert not {key for key, _ in REMOVED_KEYS} & schema


@pytest.mark.parametrize("key,value", INVALID_VALUES + REMOVED_KEYS, ids=lambda v: str(v))
def test_invalid_config_value_exits_2_before_any_work(key, value, tmp_path, capsys):
    data = yaml.safe_load(MICRO_CONFIG)
    *parents, leaf = key.split(".")
    section = data
    for part in parents:
        section = section.setdefault(part, {})
    section[leaf] = value
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump(data), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["gen-data", "--config", str(config), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_dataset_directory_is_config_error(workspace, tmp_path, capsys):
    out = tmp_path / "pre"
    code = main(
        ["pretrain", "--config", str(workspace["config"]), "--dataset", str(tmp_path),
         "--out", str(out)]
    )
    assert code == 2
    assert "dataset is not a file" in capsys.readouterr().err
    assert not out.exists()


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the output path was checked")


@pytest.mark.parametrize("under_file", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize(
    "command", ["gen-data", "pretrain", "train", "eval", "sweep-k", "inspect-codebook"]
)
def test_unusable_output_path_exits_2_before_any_work(
    workspace, tmp_path, monkeypatch, capsys, command, under_file
):
    # The output directory is an existing file, or lies under one.
    for work in ("simulate_navier_stokes", "pretrain", "train_dynamics", "evaluate_split"):
        monkeypatch.setattr(cli, work, _no_work)
    blocker = tmp_path / "blocker"
    blocker.write_text("", encoding="utf-8")
    out = blocker / "sub" if under_file else blocker
    argv = _argv(workspace, command, out)
    if command == "inspect-codebook":
        argv += ["--csv", str(out / "usage.csv")]
    assert main([command] + argv) == 2
    assert "cannot create output directory" in capsys.readouterr().err


def test_inconsistent_tensor_table_exits_2(workspace, tmp_path, capsys):
    # A valid CRC over a table whose codebook shape (12, 9) needs more bytes
    # than the 12 x 8 values stored.
    bad = tmp_path / "bad.ckpt"
    blob = workspace["pretrain_ckpt"].read_bytes()
    bad.write_bytes(with_table_shape(blob, "codebook.embeddings", (12, 8), (12, 9)))
    assert main(["inspect-codebook", "--checkpoint", str(bad)]) == 2
    assert "'codebook.embeddings' holds 768 bytes" in capsys.readouterr().err


def test_mixed_parameter_lengths_exit_2(workspace, tmp_path, capsys):
    mixed = tmp_path / "mixed.spds"
    write_parameter_lengths(str(workspace["dataset"]), str(mixed), [2, 1, 1, 1])
    out = tmp_path / "pre"
    argv = ["pretrain", "--config", str(workspace["config"]), "--dataset", str(mixed),
            "--out", str(out)]
    assert main(argv) == 2
    assert "got lengths [1, 2]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["inspect-codebook", "train"])
@pytest.mark.parametrize(
    "tensor, change, message",
    [
        ("codebook.usage", "drop", "'codebook.usage' must have shape (12,), got none"),
        ("codebook.usage", "shorten", "'codebook.usage' must have shape (12,), got (11,)"),
        ("codebook.embeddings", "drop", "'codebook.embeddings' must have shape (M, D)"),
    ],
    ids=["no-usage", "short-usage", "no-embeddings"],
)
def test_stored_codebook_needs_both_tensors_of_m_entries(
    workspace, tmp_path, capsys, command, tensor, change, message
):
    ckpt = load_checkpoint(str(workspace["pretrain_ckpt"]))
    if change == "drop":
        del ckpt.tensors[tensor]
    else:
        ckpt.tensors[tensor] = ckpt.tensors[tensor][:-1]
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(ckpt, str(bad))
    out = tmp_path / "train"
    argv = {
        "inspect-codebook": ["inspect-codebook", "--checkpoint", str(bad)],
        "train": _train_argv(workspace, out, checkpoint=bad),
    }[command]
    assert main(argv) == 4
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_inspect_codebook_csv_directory_exits_2(workspace, tmp_path, capsys):
    argv = ["inspect-codebook", "--checkpoint", str(workspace["pretrain_ckpt"])]
    assert main(argv + ["--csv", str(tmp_path)]) == 2
    assert "--csv is a directory" in capsys.readouterr().err


def _rebuild(workspace):
    """The models the workspace's checkpoints hold, and the two tensor tables."""
    ds = load_dataset(str(workspace["dataset"]))
    pre = load_checkpoint(str(workspace["pretrain_ckpt"]))
    encoder, codebook = rebuild_pretrained(stored_config(pre.config), pre.tensors, ds)
    dyn = load_checkpoint(str(workspace["dynamics_ckpt"]))
    weights = rebuild_dynamics(stored_config(dyn.config), dyn.tensors, ds, codebook.dim)
    return (encoder, codebook, weights), pre.tensors, dyn.tensors


def test_checkpoint_rebuild_draws_no_random_numbers(workspace, monkeypatch):
    def no_draws(self, n=None):
        raise AssertionError("a checkpoint rebuild drew random numbers")

    monkeypatch.setattr(Xoshiro256StarStar, "normal", no_draws)
    _rebuild(workspace)


def test_rebuild_assigns_every_parameter(workspace):
    # Each table holds exactly the names ad.parameters yields (plus the usage
    # counts), and a rebuild, whose tensors start at zero, assigns every one.
    (encoder, codebook, weights), pre, dyn = _rebuild(workspace)
    frozen, trained = parameters(encoder, codebook), parameters(weights)
    assert sorted(pre) == sorted([*frozen, "codebook.usage"])
    assert sorted(dyn) == sorted([*frozen, *trained, "codebook.usage"])
    for name, t in {**frozen, **trained}.items():
        assert t.data.tobytes() == dyn[name].tobytes(), name
    assert codebook.usage.tobytes() == pre["codebook.usage"].tobytes()


def test_help_documents_config_keys(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for key in ("dataset.generator", "pretrain.codebook_size", "augment.k", "dynamics.substeps"):
        assert key in out


def test_sweep_k_emits_comparison_csv(workspace, tmp_path):
    out = tmp_path / "sweep"
    assert (
        main(
            [
                "sweep-k",
                "--config", str(workspace["config"]),
                "--dataset", str(workspace["dataset"]),
                "--checkpoint", str(workspace["pretrain_ckpt"]),
                "--out", str(out),
            ]
        )
        == 0
    )
    lines = (out / "sweep_k.csv").read_text().strip().splitlines()
    assert lines[0] == "k,train_mse,val_mse,in_mse,out_mse"
    ks = [int(line.split(",")[0]) for line in lines[1:]]
    assert ks == [1, 3, 5, 7, 9, 11]


def _train_argv(workspace, out, config=None, checkpoint=None):
    return [
        "train",
        "--config", str(config or workspace["config"]),
        "--dataset", str(workspace["dataset"]),
        "--checkpoint", str(checkpoint or workspace["pretrain_ckpt"]),
        "--out", str(out),
    ]


def _argv(workspace, command, out):
    """Arguments that ``command`` runs with on the workspace, writing to ``out``."""
    config = ["--config", str(workspace["config"])]
    dataset = ["--dataset", str(workspace["dataset"])]
    pre = ["--checkpoint", str(workspace["pretrain_ckpt"])]
    return {
        "gen-data": config,
        "pretrain": config + dataset,
        "train": config + dataset + pre,
        "eval": ["--checkpoint", str(workspace["dynamics_ckpt"]), "--split", "in"] + dataset,
        "sweep-k": config + dataset + pre,
        "inspect-codebook": pre,
    }[command] + ([] if command == "inspect-codebook" else ["--out", str(out)])


def test_snapshot_stores_each_setting_once(workspace, tmp_path):
    # experiment is the config that ran, with the -1 curriculum defaults
    # resolved; meta holds only what no config key holds.
    data = yaml.safe_load(MICRO_CONFIG)
    data["augment"].update(k=5, start_epoch=-1, ramp_epochs=-1, max_ratio=0.4)
    cfg = tmp_path / "aug.yaml"
    cfg.write_text(yaml.safe_dump(data), encoding="utf-8")
    out = tmp_path / "train"
    assert main(_train_argv(workspace, out, config=cfg)) == 0
    snapshot = load_checkpoint(str(out / "dynamics.ckpt")).config
    expected = load_config(str(workspace["config"]))
    expected.augment.k = 5
    expected.augment.max_ratio = 0.4
    expected.augment.start_epoch, expected.augment.ramp_epochs = 1, 1  # 20%, 30% of 4
    assert snapshot["experiment"] == config_to_dict(expected)
    assert sorted(snapshot["meta"]) == ["augmented", "channel_names", "d_delta", "d_obs", "tau"]
    assert snapshot["meta"]["tau"] > 0
    pre = load_checkpoint(str(workspace["pretrain_ckpt"])).config
    assert pre["experiment"] == config_to_dict(load_config(str(workspace["config"])))
    assert sorted(pre["meta"]) == ["channel_names", "d_delta", "d_obs"]


@pytest.mark.parametrize("command", ["train", "sweep-k"])
def test_grid_section_must_match_checkpoint(workspace, tmp_path, capsys, command):
    # The pretrain checkpoint (and the dataset) were made on a 16x16 grid.
    cfg = tmp_path / "grid16x12.yaml"
    cfg.write_text(
        MICRO_CONFIG.replace("{height: 16, width: 16}", "{height: 16, width: 12}"),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    argv = _train_argv(workspace, out, config=cfg)
    assert main([command] + argv[1:]) == 4
    err = capsys.readouterr().err
    assert "dataset.grid.width" in err
    assert "dataset.grid.height" not in err
    assert not out.exists()


def test_pretrain_grid_must_match_dataset(workspace, tmp_path, capsys):
    cfg = tmp_path / "grid8.yaml"
    cfg.write_text(
        MICRO_CONFIG.replace("{height: 16, width: 16}", "{height: 8, width: 8}"),
        encoding="utf-8",
    )
    out = tmp_path / "pre"
    argv = ["pretrain", "--config", str(cfg), "--dataset", str(workspace["dataset"]),
            "--out", str(out)]
    assert main(argv) == 4
    assert "grid 8x8 does not match dataset 16x16" in capsys.readouterr().err
    assert not out.exists()


def test_each_command_builds_one_grid_graph(workspace, tmp_path, monkeypatch):
    # The graph is a function of the dataset's H x W, so a command builds it
    # once: gen-data from the config, the others in load_dataset.
    built = []
    init = GridGraph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GridGraph, "__init__", counting_init)
    for command in ("gen-data", "pretrain", "train", "eval", "sweep-k"):
        built.clear()
        assert main([command] + _argv(workspace, command, tmp_path / command)) == 0
        assert built == [(16, 16)], command


@pytest.mark.parametrize("command", ["train", "sweep-k"])
def test_dynamics_checkpoint_refused_where_pretrain_expected(workspace, tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = _train_argv(workspace, out, checkpoint=workspace["dynamics_ckpt"])
    assert main([command] + argv[1:]) == 4
    assert "expected a pretrain checkpoint" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key,default",
    [
        ("dataset.grid.connectivity", 4),
        ("dataset.grid.normalization", "row"),
        ("pretrain.activation", "gelu"),
        ("dynamics.activation", "gelu"),
        ("out_dir", "runs/experiment"),
        ("dataset.ic_amplitude", 1.0),
        ("dataset.forcing_amplitude", 0.0),
    ],
)
def test_snapshot_with_removed_key_exits_4(workspace, tmp_path, capsys, key, default):
    # A checkpoint written while the key existed, holding its only value.
    ckpt = load_checkpoint(str(workspace["dynamics_ckpt"]))
    *parents, leaf = key.split(".")
    section = ckpt.config["experiment"]
    for part in parents:
        section = section[part]
    section[leaf] = default
    stale = tmp_path / "stale.ckpt"
    save_checkpoint(ckpt, str(stale))
    out = tmp_path / "eval"
    argv = ["eval", "--checkpoint", str(stale), "--dataset", str(workspace["dataset"]),
            "--split", "in", "--out", str(out)]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert key in err
    assert "must be made again" in err
    assert not out.exists()


def test_stale_checkpoint_snapshot_exits_4(workspace, tmp_path, capsys):
    # A snapshot written with a key the schema no longer has.
    ckpt = load_checkpoint(str(workspace["dynamics_ckpt"]))
    ckpt.config["experiment"]["dynamics"]["layer_output"] = "sum"
    stale = tmp_path / "stale.ckpt"
    save_checkpoint(ckpt, str(stale))
    out = tmp_path / "eval"
    argv = ["eval", "--checkpoint", str(stale), "--dataset", str(workspace["dataset"]),
            "--split", "in", "--out", str(out)]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert "dynamics.layer_output" in err
    assert "must be made again" in err
    assert not out.exists()


# Flags for settings that only the config file sets, and flags a command
# does not read.
@pytest.mark.parametrize(
    "command,flag",
    [
        ("eval", "--seed"),
        ("inspect-codebook", "--seed"),
        ("inspect-codebook", "--out"),
        ("train", "--aug-k"),
        ("train", "--aug-mode"),
        ("train", "--aug-tau"),
        ("train", "--curriculum"),
        ("gen-data", "--seed"),
        ("train", "--seed"),
        ("sweep-k", "--seed"),
    ],
)
def test_commands_refuse_flags_they_ignore(workspace, tmp_path, capsys, command, flag):
    out = tmp_path / "d"
    value = {"--seed": "1", "--out": str(out), "--aug-k": "5", "--aug-mode": "snap",
             "--aug-tau": "0.5", "--curriculum": "1,2,0.5"}[flag]
    with pytest.raises(SystemExit) as exc:
        main([command] + _argv(workspace, command, out) + [flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen-data", "pretrain", "train", "eval", "sweep-k"])
def test_out_is_required(workspace, tmp_path, monkeypatch, capsys, command):
    # There is no default output directory: a command that writes one exits 2
    # without --out and writes nothing, in the working directory or elsewhere.
    monkeypatch.chdir(tmp_path)
    argv = _argv(workspace, command, tmp_path / "d")
    with pytest.raises(SystemExit) as exc:
        main([command] + argv[: argv.index("--out")])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command,calls", [("train", 2), ("eval", 1), ("sweep-k", 2)])
def test_each_snapshot_is_parsed_once(workspace, tmp_path, monkeypatch, command, calls):
    # The config file (train, sweep-k) and the checkpoint snapshot are each
    # read into a config once per command.
    parsed = []
    original = config.config_from_dict

    def counting(data):
        parsed.append(data)
        return original(data)

    for module in (config, serialization):
        monkeypatch.setattr(module, "config_from_dict", counting)
    assert main([command] + _argv(workspace, command, tmp_path / "out")) == 0
    assert len(parsed) == calls
