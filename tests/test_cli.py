"""End-to-end CLI pipeline on a miniature experiment."""

from __future__ import annotations

import numpy as np
import pytest
import yaml

from sparkpde import cli
from sparkpde.augment import curriculum_ratio
from sparkpde.checkpoint import load_checkpoint
from sparkpde.cli import main
from sparkpde.config import FIELD_DOCS, RULES, load_config
from sparkpde.rng import Xoshiro256StarStar
from sparkpde.serialization import rebuild_dynamics, rebuild_pretrained

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
        assert float(cells[idx_ratio]) == curriculum_ratio(
            epoch, cfg.augment, cfg.dynamics.epochs
        )


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
        ("  gnn_layers: 1", "  gnn_layers: 1\n  activation: tanh", "pretrain.activation"),
    ],
    ids=["hidden", "activation"],
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
    ("dataset.generator", "warp_drive"),
    ("dataset.grid.height", 0),
    ("dataset.grid.width", -16),
    ("dataset.grid.connectivity", 6),
    ("dataset.grid.normalization", "max"),
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
    ("dataset.ic_amplitude", -1.0),
    ("dataset.feed", 0.5),
    ("dataset.kill", -0.1),
    ("dataset.reaction_strength", -1.0),
    ("pretrain.epochs", 0),
    ("pretrain.batch_size", 0),
    ("pretrain.lr", 0.0),
    ("pretrain.lr_decay", "bogus"),
    ("pretrain.mu", -0.25),
    ("pretrain.gamma", -1.0),
    ("pretrain.codebook_size", 1),
    ("pretrain.d_latent", 0),
    ("pretrain.hidden", 0),
    ("pretrain.attention_hidden", 0),
    ("pretrain.gnn_layers", 0),
    ("pretrain.k_max", -1),
    ("pretrain.k_max", 9),
    ("pretrain.activation", "relu"),
    ("pretrain.param_transform", "log2"),
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
    ("dynamics.lr_decay", "bogus"),
    ("dynamics.batch_size", 0),
    ("dynamics.val_fraction", -0.5),
    ("dynamics.val_fraction", 1.0),
    ("dynamics.window_stride", 0),
    ("dynamics.activation", "relu"),
    ("dynamics.attention_activation", "gelu"),
    ("dynamics.spectral_adjacency", "both"),
    ("dynamics.layer_output", "mean"),
    ("dynamics.eval_stride", -1),
    ("augment.mode", "mixup"),
    ("augment.k", 0),
    ("augment.k", 13),
    ("augment.tau", -1.0),
    ("augment.tau", 0.0),
    ("augment.start_epoch", -2),
    ("augment.ramp_epochs", -2),
    ("augment.max_ratio", 1.5),
]


def test_invalid_values_cover_every_rule():
    keys = {key for key, _ in INVALID_VALUES}
    assert set(RULES) <= keys <= set(FIELD_DOCS)


@pytest.mark.parametrize("key,value", INVALID_VALUES, ids=lambda v: str(v))
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


@pytest.mark.parametrize(
    "extra,message",
    [
        (["--aug-k", "0"], "augment.k"),
        (["--aug-k", "13"], "augment.k"),
        (["--aug-tau", "-1"], "augment.tau"),
        (["--curriculum", "x,1,0.5"], "--curriculum"),
        (["--curriculum", "1,2"], "--curriculum"),
        (["--curriculum", "1,2,1.5"], "augment.max_ratio"),
    ],
)
def test_train_overrides_validated_before_any_work(workspace, tmp_path, capsys, extra, message):
    out = tmp_path / "train"
    argv = [
        "train",
        "--config", str(workspace["config"]),
        "--dataset", str(workspace["dataset"]),
        "--checkpoint", str(workspace["pretrain_ckpt"]),
        "--out", str(out),
    ]
    assert main(argv + extra) == 2
    assert message in capsys.readouterr().err
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
    config = ["--config", str(workspace["config"])]
    dataset = ["--dataset", str(workspace["dataset"])]
    pre = ["--checkpoint", str(workspace["pretrain_ckpt"])]
    argv = {
        "gen-data": config + ["--out", str(out)],
        "pretrain": config + dataset + ["--out", str(out)],
        "train": config + dataset + pre + ["--out", str(out)],
        "eval": ["--checkpoint", str(workspace["dynamics_ckpt"]), "--split", "in"]
        + dataset + ["--out", str(out)],
        "sweep-k": config + dataset + pre + ["--out", str(out)],
        "inspect-codebook": pre + ["--csv", str(out / "usage.csv")],
    }[command]
    assert main([command] + argv) == 2
    assert "cannot create output directory" in capsys.readouterr().err


def test_inspect_codebook_csv_directory_exits_2(workspace, tmp_path, capsys):
    argv = ["inspect-codebook", "--checkpoint", str(workspace["pretrain_ckpt"])]
    assert main(argv + ["--csv", str(tmp_path)]) == 2
    assert "--csv is a directory" in capsys.readouterr().err


def test_checkpoint_rebuild_draws_no_random_numbers(workspace, monkeypatch):
    def no_draws(self, n=None):
        raise AssertionError("a checkpoint rebuild drew random numbers")

    monkeypatch.setattr(Xoshiro256StarStar, "normal", no_draws)
    pre = load_checkpoint(str(workspace["pretrain_ckpt"]))
    _, encoder, codebook, grid = rebuild_pretrained(pre.config, pre.tensors)
    dyn = load_checkpoint(str(workspace["dynamics_ckpt"]))
    weights = rebuild_dynamics(dyn.config, dyn.tensors, grid, d_obs=1, d_latent=codebook.dim)
    for params, tensors in ((encoder.params(), pre.tensors), (weights.params(), dyn.tensors)):
        for name, t in params.items():
            assert t.data.tobytes() == tensors[name].tobytes()


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
