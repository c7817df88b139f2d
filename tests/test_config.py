"""Strict config parsing and documented defaults."""

from __future__ import annotations

import pytest

from sparkpde.cli import main
from sparkpde.config import (
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    describe_config,
    load_config,
    settings,
    with_augment,
)
from sparkpde.errors import ConfigError


def test_empty_config_gives_defaults():
    cfg = config_from_dict({})
    assert cfg.seed == 0
    assert cfg.dataset.grid.height == 32
    assert cfg.pretrain.mu == 0.25
    assert cfg.pretrain.gamma == 1.0
    assert cfg.pretrain.codebook_size == 64
    assert cfg.dynamics.solver == "rk4"
    assert cfg.dynamics.substeps == 4
    assert cfg.augment.k == 3
    assert cfg.augment.mode == "interpolate"


def test_unknown_key_rejected_with_path():
    with pytest.raises(ConfigError, match="dataset.gird"):
        config_from_dict({"dataset": {"gird": {}}})
    with pytest.raises(ConfigError, match="pretrain.mue"):
        config_from_dict({"pretrain": {"mue": 0.3}})


def test_type_errors_rejected():
    with pytest.raises(ConfigError, match="expected int"):
        config_from_dict({"dynamics": {"epochs": "ten"}})
    with pytest.raises(ConfigError, match="expected float"):
        config_from_dict({"pretrain": {"lr": "fast"}})


def test_nested_overrides_apply():
    cfg = config_from_dict(
        {
            "seed": 7,
            "dataset": {"grid": {"height": 16, "width": 16}, "params": [1e-3]},
            "dynamics": {"t0": 3, "horizon": 3},
        }
    )
    assert cfg.seed == 7
    assert cfg.dataset.grid.height == 16
    assert cfg.dynamics.t0 == 3


def test_validation_catches_short_episodes():
    with pytest.raises(ConfigError, match="t_total"):
        config_from_dict({"dataset": {"t_total": 4}})


def test_params_checked_against_their_generator_and_each_other():
    # Gray-Scott reads one value (both diffusivities) or two, Navier-Stokes
    # one; entries equal as vectors derive the same episode seeds, in any
    # spelling; an explicit out-of-domain value must be one of the entries.
    rd = {"generator": "reaction_diffusion", "params": [1e-5, [1e-5, 2e-5]]}
    assert config_from_dict({"dataset": rd}).dataset.params == [1e-5, [1e-5, 2e-5]]
    bad = [
        ({**rd, "params": [[1e-5, 2e-5, 3e-5]]}, "one or two non-negative values for reaction"),
        ({**rd, "params": [[1e-5, -2e-5]]}, "one or two non-negative values for reaction"),
        ({"params": [[1e-3, 7.0]]}, "must be one positive value for navier_stokes"),
        ({"params": [1e-3, ["1.0e-3"]]}, "repeats another entry"),
        ({**rd, "params": [[1e-5, 2e-5], [1e-5, 2e-5]]}, "repeats another entry"),
        ({"params": [1e-3, 1e-4], "ood": {"out_values": [[1e-4, 1e-4]]}},
         "out_values entry .* matches no dataset.params entry"),
    ]
    for dataset, message in bad:
        with pytest.raises(ConfigError, match=message):
            config_from_dict({"dataset": dataset})
    # A threshold rule reads no out_values; an empty list loads (gen-data then
    # warns that the out-domain set is empty).
    threshold = {"mode": "threshold", "out_values": [5.0], "threshold": 2e-3}
    config_from_dict({"dataset": {"params": [1e-3, 1e-2], "ood": threshold}})
    config_from_dict({"dataset": {"params": [1e-3], "ood": {"out_values": []}}})


def test_tau_accepts_null_and_number():
    cfg = config_from_dict({"augment": {"tau": None}})
    assert cfg.augment.tau is None
    cfg = config_from_dict({"augment": {"tau": 0.5}})
    assert cfg.augment.tau == 0.5


def test_describe_config_covers_every_key():
    # Each schema key is listed exactly once, with its default and its doc.
    lines = describe_config().splitlines()
    keys = [key for key, _, _ in settings()]
    assert len(keys) == len(set(keys)) == 47
    assert [line.split(" = ")[0].strip() for line in lines[0::2]] == keys
    for (key, f, _), doc in zip(settings(), lines[1::2]):
        assert f.metadata["doc"] and doc.strip() == f.metadata["doc"], key
    for key in ("dataset.generator", "dataset.grid.height", "augment.max_ratio", "seed"):
        assert key in keys
    assert "  dataset.generator = 'navier_stokes'" in lines
    assert "  pretrain.codebook_size = 64" in lines


def test_yaml_loading(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text("seed: 3\ndataset:\n  params: [0.01, 0.001]\n", encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg.seed == 3
    assert cfg.dataset.params == [0.01, 0.001]
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "missing.yaml"))


def test_dotless_float_literals_load(tmp_path):
    # YAML 1.1 reads 1e-3 (no dot) as a string; float keys accept it.
    path = tmp_path / "exp.yaml"
    path.write_text("pretrain:\n  lr: 1e-3\naugment:\n  tau: 2e-1\n", encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg.pretrain.lr == 0.001
    assert cfg.augment.tau == 0.2
    path.write_text("pretrain:\n  lr: abc\n", encoding="utf-8")
    out = tmp_path / "data"
    assert main(["gen-data", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()


def test_resolved_curriculum_percent_defaults():
    # The -1 defaults resolve once, at load, against dynamics.epochs.
    cfg = config_from_dict({"dynamics": {"epochs": 20}})
    assert (cfg.augment.start_epoch, cfg.augment.ramp_epochs) == (4, 6)  # 20%, 30%
    assert cfg.augment.max_ratio == 0.5
    cfg = config_from_dict({"dynamics": {"epochs": 50}})
    assert (cfg.augment.start_epoch, cfg.augment.ramp_epochs) == (10, 15)
    cfg = config_from_dict({"augment": {"start_epoch": 2, "ramp_epochs": 5}})
    assert (cfg.augment.start_epoch, cfg.augment.ramp_epochs) == (2, 5)
    # The override copy resolves too, and leaves its source untouched.
    run = with_augment(cfg, start_epoch=-1, ramp_epochs=-1)
    assert (run.augment.start_epoch, run.augment.ramp_epochs) == (4, 6)
    assert (cfg.augment.start_epoch, cfg.augment.ramp_epochs) == (2, 5)
    # A resolved config round-trips unchanged.
    assert config_from_dict(config_to_dict(run)) == run
    assert ExperimentConfig().augment.start_epoch == -1  # the documented default
