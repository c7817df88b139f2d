"""Experiment configuration: strict schema, documented defaults, YAML loading.

Config files are YAML with four sections (dataset, pretrain, dynamics,
augment) plus top-level seed/out_dir. Parsing is strict: unknown keys are
rejected with their dotted path, wrong types are rejected, and every field
has the default listed in ``describe_config``. The sections are also the
runtime configs of the stages; ``validate_config`` holds every value rule
and runs at load, where the -1 curriculum defaults are also resolved, so no
stage sees an invalid or unresolved value.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass, field
from typing import Any, Optional

import yaml

from .datagen.reaction_diffusion import FEED_RANGE, KILL_RANGE
from .errors import ConfigError

GENERATORS = ("navier_stokes", "reaction_diffusion")
SOLVERS = ("rk4", "euler")
AUG_MODES = ("snap", "interpolate")


@dataclass
class GridSection:
    height: int = 32
    width: int = 32


@dataclass
class OodSection:
    mode: str = "explicit"  # explicit | threshold
    out_values: list = field(default_factory=list)
    threshold: float = 0.0
    direction: str = "below"


@dataclass
class DatasetSection:
    generator: str = "navier_stokes"
    grid: GridSection = field(default_factory=GridSection)
    params: list = field(default_factory=lambda: [1e-2, 3e-3, 1e-3, 3e-4])
    ood: OodSection = field(default_factory=OodSection)
    episodes_per_param: int = 4
    t_total: int = 24
    dt: float = 2e-3
    record_every: int = 25
    ic_modes: int = 4
    ic_amplitude: float = 1.0
    forcing_amplitude: float = 0.0
    feed: float = 0.04
    kill: float = 0.06
    reaction_strength: float = 1.0


@dataclass
class PretrainSection:
    epochs: int = 20
    batch_size: int = 32
    lr: float = 2e-3
    mu: float = 0.25
    gamma: float = 1.0
    codebook_size: int = 64
    d_latent: int = 32
    hidden: int = 64
    attention_hidden: int = 32
    gnn_layers: int = 2
    k_max: int = 8


@dataclass
class DynamicsSection:
    t0: int = 10
    horizon: int = 10
    lambda_reg: float = 1e-6
    solver: str = "rk4"
    substeps: int = 4
    ode_layers: int = 2
    k_max: int = 8
    decoder_hidden: int = 64
    epochs: int = 20
    lr: float = 3e-3
    batch_size: int = 8
    val_fraction: float = 0.15
    window_stride: int = 1


@dataclass
class AugmentSection:
    mode: str = "interpolate"
    k: int = 3
    tau: Optional[float] = None  # None: calibrated from training latents
    start_epoch: int = -1  # -1: 20% of dynamics epochs, resolved at load
    ramp_epochs: int = -1  # -1: 30% of dynamics epochs, resolved at load
    max_ratio: float = 0.5


@dataclass
class ExperimentConfig:
    seed: int = 0
    out_dir: str = "runs/experiment"
    dataset: DatasetSection = field(default_factory=DatasetSection)
    pretrain: PretrainSection = field(default_factory=PretrainSection)
    dynamics: DynamicsSection = field(default_factory=DynamicsSection)
    augment: AugmentSection = field(default_factory=AugmentSection)


FIELD_DOCS = {
    "seed": "root seed in [0, 2^64); all randomness derives from it through named substreams",
    "out_dir": "default output directory (overridden by --out)",
    "dataset.generator": "trajectory generator: navier_stokes | reaction_diffusion",
    "dataset.grid.height": "grid rows H",
    "dataset.grid.width": "grid columns W",
    "dataset.params": "physical parameter values (scalars, or [D_u, D_v] pairs)",
    "dataset.ood.mode": "out-of-domain rule: explicit | threshold",
    "dataset.ood.out_values": "parameter values held out as out-of-domain",
    "dataset.ood.threshold": "threshold for the threshold rule",
    "dataset.ood.direction": "out-of-domain side of the threshold: below | above",
    "dataset.episodes_per_param": "episodes generated per parameter value",
    "dataset.t_total": "recorded frames per episode",
    "dataset.dt": "solver time step",
    "dataset.record_every": "solver steps between recorded frames",
    "dataset.ic_modes": "initial-condition band limit (max |k|)",
    "dataset.ic_amplitude": "initial-condition standard deviation",
    "dataset.forcing_amplitude": "sinusoidal forcing amplitude (0 = unforced)",
    "dataset.feed": "reaction feed rate (reaction_diffusion)",
    "dataset.kill": "reaction kill rate (reaction_diffusion)",
    "dataset.reaction_strength": "scales reaction terms (0 = pure diffusion)",
    "pretrain.epochs": "pretraining epochs",
    "pretrain.batch_size": "frames per pretraining batch",
    "pretrain.lr": "Adam learning rate",
    "pretrain.mu": "commitment loss weight",
    "pretrain.gamma": "codebook loss weight",
    "pretrain.codebook_size": "state dictionary entries M",
    "pretrain.d_latent": "latent width D",
    "pretrain.hidden": "GNN/decoder hidden width",
    "pretrain.attention_hidden": "channel-attention MLP hidden width",
    "pretrain.gnn_layers": "GNN encoder depth L",
    "pretrain.k_max": "retained Fourier modes per axis in channel attention",
    "dynamics.t0": "history length fed to the forecaster",
    "dynamics.horizon": "forecast steps",
    "dynamics.lambda_reg": "weight-decay coefficient on dynamics parameters",
    "dynamics.solver": "ODE solver: rk4 | euler",
    "dynamics.substeps": "solver steps per unit time",
    "dynamics.ode_layers": "Fourier graph ODE layers L",
    "dynamics.k_max": "retained Fourier modes per axis in the ODE",
    "dynamics.decoder_hidden": "forecast decoder hidden width",
    "dynamics.epochs": "training epochs",
    "dynamics.lr": "Adam learning rate",
    "dynamics.batch_size": "windows per batch",
    "dynamics.val_fraction": "fraction of windows held out for validation",
    "dynamics.window_stride": "stride between training windows",
    "augment.mode": "latent augmentation: snap | interpolate",
    "augment.k": "top-k codes blended by interpolation",
    "augment.tau": "interpolation temperature (null: calibrated from data)",
    "augment.start_epoch": "curriculum start epoch (-1: 20% of epochs)",
    "augment.ramp_epochs": "curriculum ramp length (-1: 30% of epochs)",
    "augment.max_ratio": "final fraction of augmented samples",
}


def _finite_float(value) -> float | None:
    """``value`` as a finite float, or None if it is not a finite number.
    Numeric strings count: YAML 1.1 reads 1e-3 and 3e-05 as strings."""
    try:
        out = float(value)
    except (TypeError, ValueError):
        return None
    return out if math.isfinite(out) else None


def _coerce(value: Any, target_type: type, path: str) -> Any:
    if target_type is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if target_type is float and isinstance(value, str):
        parsed = _finite_float(value)
        if parsed is not None:
            return parsed
    if target_type is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if target_type is bool and isinstance(value, bool):
        return value
    if target_type is str and isinstance(value, str):
        return value
    if target_type is list and isinstance(value, list):
        return value
    raise ConfigError(f"{path}: expected {target_type.__name__}, got {type(value).__name__}")


def _build_section(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'}: expected a mapping")
    hints = typing.get_type_hints(cls)
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - known
    if unknown:
        first = sorted(unknown)[0]
        where = f"{path}.{first}" if path else first
        raise ConfigError(f"{where}: unknown key")
    kwargs = {}
    for name in known:
        if name not in data:
            continue
        sub_path = f"{path}.{name}" if path else name
        value = data[name]
        hint = hints[name]
        if dataclasses.is_dataclass(hint):
            kwargs[name] = _build_section(hint, value, sub_path)
        elif typing.get_origin(hint) is typing.Union and type(None) in typing.get_args(hint):
            inner = next(t for t in typing.get_args(hint) if t is not type(None))
            kwargs[name] = None if value is None else _coerce(value, inner, sub_path)
        else:
            kwargs[name] = _coerce(value, hint, sub_path)
    return cls(**kwargs)


def config_from_dict(data: dict) -> ExperimentConfig:
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    return _checked(_build_section(ExperimentConfig, data, ""))


def with_augment(cfg: ExperimentConfig, **changes) -> ExperimentConfig:
    """A checked copy of ``cfg`` with augment keys replaced; ``cfg`` is untouched."""
    return _checked(
        dataclasses.replace(cfg, augment=dataclasses.replace(cfg.augment, **changes))
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}")
    return config_from_dict(data)


def _one_of(*choices):
    return (lambda v: v in choices, f"must be one of {' | '.join(map(str, choices))}")


def _at_least(low):
    return (lambda v: v >= low, f"must be at least {low}")


def _within(low, high):
    return (lambda v: low <= v <= high, f"must lie in [{low}, {high}]")


_POSITIVE = (lambda v: v > 0, "must be positive")
_NON_NEGATIVE = _at_least(0)
_EPOCH_OR_DEFAULT = (lambda v: v >= -1, "must be -1 (percent-of-epochs default) or >= 0")


def _param_values(value) -> list[float] | None:
    """The components of one parameter entry (a number or a list of finite
    numbers, numeric strings included), or None if it is not one."""
    values = value if isinstance(value, list) else [value]
    out = [_finite_float(v) for v in values]
    return out if out and None not in out else None


def _params_ok(entries) -> bool:
    return all(_param_values(p) is not None for p in entries)


# One rule per documented key that constrains its value on its own; the
# cross-field rules are in ``validate_config``.
RULES = {
    "seed": (lambda v: 0 <= v < 2**64, "must lie in [0, 2^64)"),
    "dataset.generator": _one_of(*GENERATORS),
    "dataset.grid.height": _at_least(1),
    "dataset.grid.width": _at_least(1),
    "dataset.params": (
        lambda v: bool(v) and _params_ok(v),
        "must be a non-empty list of numbers or lists of numbers",
    ),
    "dataset.ood.mode": _one_of("explicit", "threshold"),
    "dataset.ood.out_values": (_params_ok, "entries must be numbers or lists of numbers"),
    "dataset.ood.direction": _one_of("below", "above"),
    "dataset.episodes_per_param": _at_least(1),
    "dataset.dt": _POSITIVE,
    "dataset.record_every": _at_least(1),
    "dataset.ic_modes": _at_least(1),
    "dataset.ic_amplitude": _NON_NEGATIVE,
    "dataset.feed": _within(*FEED_RANGE),
    "dataset.kill": _within(*KILL_RANGE),
    "dataset.reaction_strength": _NON_NEGATIVE,
    "pretrain.epochs": _at_least(1),
    "pretrain.batch_size": _at_least(1),
    "pretrain.lr": _POSITIVE,
    "pretrain.mu": _NON_NEGATIVE,
    "pretrain.gamma": _NON_NEGATIVE,
    "pretrain.codebook_size": _at_least(2),
    "pretrain.d_latent": _at_least(1),
    "pretrain.hidden": _at_least(1),
    "pretrain.attention_hidden": _at_least(1),
    "pretrain.gnn_layers": _at_least(1),
    "pretrain.k_max": _NON_NEGATIVE,
    "dynamics.t0": _at_least(1),
    "dynamics.horizon": _at_least(1),
    "dynamics.lambda_reg": _NON_NEGATIVE,
    "dynamics.solver": _one_of(*SOLVERS),
    "dynamics.substeps": _at_least(1),
    "dynamics.ode_layers": _at_least(1),
    "dynamics.k_max": _NON_NEGATIVE,
    "dynamics.decoder_hidden": _at_least(1),
    "dynamics.epochs": _at_least(1),
    "dynamics.lr": _POSITIVE,
    "dynamics.batch_size": _at_least(1),
    "dynamics.val_fraction": (lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)"),
    "dynamics.window_stride": _at_least(1),
    "augment.mode": _one_of(*AUG_MODES),
    "augment.k": _at_least(1),
    "augment.tau": (lambda v: v is None or v > 0, "must be positive or null"),
    "augment.start_epoch": _EPOCH_OR_DEFAULT,
    "augment.ramp_epochs": _EPOCH_OR_DEFAULT,
    "augment.max_ratio": _within(0.0, 1.0),
}


def _lookup(cfg: ExperimentConfig, key: str):
    value = cfg
    for part in key.split("."):
        value = getattr(value, part)
    return value


def validate_config(cfg: ExperimentConfig) -> None:
    """Every value rule of the schema; raises ConfigError naming the key."""
    for key, (ok, what) in RULES.items():
        value = _lookup(cfg, key)
        if not ok(value):
            raise ConfigError(f"{key} {what} (got {value!r})")
    ds, pre, dyn, aug = cfg.dataset, cfg.pretrain, cfg.dynamics, cfg.augment
    if ds.t_total < dyn.t0 + dyn.horizon:
        raise ConfigError(
            f"dataset.t_total={ds.t_total} too short for t0+horizon="
            f"{dyn.t0 + dyn.horizon}"
        )
    half = min(ds.grid.height, ds.grid.width) // 2
    for key, k_max in (("pretrain.k_max", pre.k_max), ("dynamics.k_max", dyn.k_max)):
        if k_max > half:
            raise ConfigError(
                f"{key}={k_max} exceeds floor(min(height, width)/2)={half}"
            )
    if aug.k > pre.codebook_size:
        raise ConfigError(
            f"augment.k={aug.k} exceeds pretrain.codebook_size={pre.codebook_size}"
        )
    # navier_stokes reads a viscosity, reaction_diffusion two diffusivities
    positive = ds.generator == "navier_stokes"
    for p in ds.params:
        if any(v <= 0 if positive else v < 0 for v in _param_values(p)):
            raise ConfigError(
                f"dataset.params entry {p!r} must be "
                f"{'positive' if positive else 'non-negative'} for {ds.generator}"
            )


def _checked(cfg: ExperimentConfig) -> ExperimentConfig:
    """``cfg`` validated, with the -1 curriculum defaults replaced by 20% and
    30% of ``dynamics.epochs``, so no stage resolves them again."""
    validate_config(cfg)
    aug, epochs = cfg.augment, cfg.dynamics.epochs
    if aug.start_epoch < 0:
        aug.start_epoch = int(round(0.2 * epochs))
    if aug.ramp_epochs < 0:
        aug.ramp_epochs = max(1, int(round(0.3 * epochs)))
    return cfg


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return dataclasses.asdict(cfg)


def describe_config() -> str:
    """Every config key with its default, for --help."""
    lines = []

    def walk(cls, prefix: str, instance):
        for f in dataclasses.fields(cls):
            sub = f"{prefix}.{f.name}" if prefix else f.name
            value = getattr(instance, f.name)
            if dataclasses.is_dataclass(value):
                walk(type(value), sub, value)
            else:
                doc = FIELD_DOCS.get(sub, "")
                lines.append(f"  {sub} = {value!r}\n      {doc}")

    walk(ExperimentConfig, "", ExperimentConfig())
    return "\n".join(lines)

