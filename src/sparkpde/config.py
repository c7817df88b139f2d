"""Experiment configuration: strict schema, documented defaults, YAML loading.

Config files are YAML with four sections (dataset, pretrain, dynamics,
augment) plus the top-level seed, and they are the only source of the
experiment's settings. Each key is declared once, by ``setting``: its default,
its ``--help`` line and the rule its value must meet on its own; ``settings``
enumerates them. Parsing is strict: unknown keys are rejected with their
dotted path, and wrong types are rejected. The sections are also the runtime
configs of the stages; ``validate_config`` checks every value rule and the
cross-key rules, and runs at load, where the -1 curriculum defaults are also
resolved, so no stage sees an invalid or unresolved value.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass, field
from typing import Any, Optional

import yaml

from .datagen.dataset import parameter_vector
from .datagen.reaction_diffusion import FEED_RANGE, KILL_RANGE
from .errors import ConfigError

GENERATORS = ("navier_stokes", "reaction_diffusion")
SOLVERS = ("rk4", "euler")
AUG_MODES = ("snap", "interpolate")


def _finite_float(value) -> float | None:
    """``value`` as a finite float, or None if it is not a finite number.
    Numeric strings count: YAML 1.1 reads 1e-3 and 3e-05 as strings."""
    try:
        out = float(value)
    except (TypeError, ValueError):
        return None
    return out if math.isfinite(out) else None


def _one_of(*choices):
    return (lambda v: v in choices, f"must be one of {' | '.join(map(str, choices))}")


def _at_least(low):
    return (lambda v: v >= low, f"must be at least {low}")


def _within(low, high):
    return (lambda v: low <= v <= high, f"must lie in [{low}, {high}]")


_POSITIVE = (lambda v: v > 0, "must be positive")
_NON_NEGATIVE = _at_least(0)
_EPOCH_OR_DEFAULT = (lambda v: v >= -1, "must be -1 (percent-of-epochs default) or >= 0")


def _params_ok(entries) -> bool:
    """Each entry is a finite number or a non-empty list of finite numbers,
    numeric strings included; ``parameter_vector`` reads its components."""
    lists = [p if isinstance(p, list) else [p] for p in entries]
    return all(values and None not in map(_finite_float, values) for values in lists)


def setting(default, doc: str, rule: tuple | None = None):
    """One config key: its default, its ``--help`` line, and the (check,
    message) rule its value meets on its own. Cross-key rules are in
    ``validate_config``."""
    if isinstance(default, list):
        return field(default_factory=lambda: list(default), metadata={"doc": doc, "rule": rule})
    return field(default=default, metadata={"doc": doc, "rule": rule})


@dataclass
class GridSection:
    height: int = setting(32, "grid rows H", _at_least(1))
    width: int = setting(32, "grid columns W", _at_least(1))


@dataclass
class OodSection:
    mode: str = setting(
        "explicit", "out-of-domain rule: explicit | threshold", _one_of("explicit", "threshold")
    )
    out_values: list = setting(
        [],
        "parameter values held out as out-of-domain",
        (_params_ok, "entries must be numbers or lists of numbers"),
    )
    threshold: float = setting(0.0, "threshold for the threshold rule")
    direction: str = setting(
        "below", "out-of-domain side of the threshold: below | above", _one_of("below", "above")
    )


@dataclass
class DatasetSection:
    generator: str = setting(
        "navier_stokes",
        "trajectory generator: navier_stokes | reaction_diffusion",
        _one_of(*GENERATORS),
    )
    grid: GridSection = field(default_factory=GridSection)
    params: list = setting(
        [1e-2, 3e-3, 1e-3, 3e-4],
        "physical parameter values (scalars, or [D_u, D_v] pairs)",
        (
            lambda v: bool(v) and _params_ok(v),
            "must be a non-empty list of numbers or lists of numbers",
        ),
    )
    ood: OodSection = field(default_factory=OodSection)
    episodes_per_param: int = setting(4, "episodes generated per parameter value", _at_least(1))
    t_total: int = setting(24, "recorded frames per episode")
    dt: float = setting(2e-3, "solver time step", _POSITIVE)
    record_every: int = setting(25, "solver steps between recorded frames", _at_least(1))
    ic_modes: int = setting(4, "initial-condition band limit (max |k|)", _at_least(1))
    feed: float = setting(0.04, "reaction feed rate (reaction_diffusion)", _within(*FEED_RANGE))
    kill: float = setting(0.06, "reaction kill rate (reaction_diffusion)", _within(*KILL_RANGE))
    reaction_strength: float = setting(
        1.0, "scales reaction terms (0 = pure diffusion)", _NON_NEGATIVE
    )


@dataclass
class PretrainSection:
    epochs: int = setting(20, "pretraining epochs", _at_least(1))
    batch_size: int = setting(32, "frames per pretraining batch", _at_least(1))
    lr: float = setting(2e-3, "Adam learning rate", _POSITIVE)
    mu: float = setting(0.25, "commitment loss weight", _NON_NEGATIVE)
    gamma: float = setting(1.0, "codebook loss weight", _NON_NEGATIVE)
    codebook_size: int = setting(64, "state dictionary entries M", _at_least(2))
    d_latent: int = setting(32, "latent width D", _at_least(1))
    hidden: int = setting(64, "GNN/decoder hidden width", _at_least(1))
    attention_hidden: int = setting(32, "channel-attention MLP hidden width", _at_least(1))
    gnn_layers: int = setting(2, "GNN encoder depth L", _at_least(1))
    k_max: int = setting(
        8, "retained Fourier modes per axis in channel attention", _NON_NEGATIVE
    )


@dataclass
class DynamicsSection:
    t0: int = setting(10, "history length fed to the forecaster", _at_least(1))
    horizon: int = setting(10, "forecast steps", _at_least(1))
    lambda_reg: float = setting(
        1e-6, "weight-decay coefficient on dynamics parameters", _NON_NEGATIVE
    )
    solver: str = setting("rk4", "ODE solver: rk4 | euler", _one_of(*SOLVERS))
    substeps: int = setting(4, "solver steps per unit time", _at_least(1))
    ode_layers: int = setting(2, "Fourier graph ODE layers L", _at_least(1))
    k_max: int = setting(8, "retained Fourier modes per axis in the ODE", _NON_NEGATIVE)
    decoder_hidden: int = setting(64, "forecast decoder hidden width", _at_least(1))
    epochs: int = setting(20, "training epochs", _at_least(1))
    lr: float = setting(3e-3, "Adam learning rate", _POSITIVE)
    batch_size: int = setting(8, "windows per batch", _at_least(1))
    val_fraction: float = setting(
        0.15,
        "fraction of windows held out for validation",
        (lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)"),
    )
    window_stride: int = setting(1, "stride between training windows", _at_least(1))


@dataclass
class AugmentSection:
    mode: str = setting(
        "interpolate", "latent augmentation: snap | interpolate", _one_of(*AUG_MODES)
    )
    k: int = setting(3, "top-k codes blended by interpolation", _at_least(1))
    tau: Optional[float] = setting(
        None,
        "interpolation temperature (null: calibrated from data)",
        (lambda v: v is None or v > 0, "must be positive or null"),
    )
    start_epoch: int = setting(-1, "curriculum start epoch (-1: 20% of epochs)", _EPOCH_OR_DEFAULT)
    ramp_epochs: int = setting(-1, "curriculum ramp length (-1: 30% of epochs)", _EPOCH_OR_DEFAULT)
    max_ratio: float = setting(0.5, "final fraction of augmented samples", _within(0.0, 1.0))


@dataclass
class ExperimentConfig:
    seed: int = setting(
        0,
        "root seed in [0, 2^64); all randomness derives from it through named substreams",
        (lambda v: 0 <= v < 2**64, "must lie in [0, 2^64)"),
    )
    dataset: DatasetSection = field(default_factory=DatasetSection)
    pretrain: PretrainSection = field(default_factory=PretrainSection)
    dynamics: DynamicsSection = field(default_factory=DynamicsSection)
    augment: AugmentSection = field(default_factory=AugmentSection)


def settings(section=None, prefix: str = ""):
    """(dotted key, field, value) of every key of ``section`` (by default a
    default ``ExperimentConfig``), in declaration order."""
    section = ExperimentConfig() if section is None else section
    for f in dataclasses.fields(section):
        value = getattr(section, f.name)
        if dataclasses.is_dataclass(value):
            yield from settings(value, f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}", f, value


def _coerce(value: Any, target_type: type, path: str) -> Any:
    if target_type is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if target_type is float and isinstance(value, str):
        parsed = _finite_float(value)
        if parsed is not None:
            return parsed
    if target_type is int and isinstance(value, int) and not isinstance(value, bool):
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
    except IsADirectoryError:
        raise ConfigError(f"config path is not a file: {path}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file is unreadable: {path}: {exc}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}")
    return config_from_dict(data)


def validate_config(cfg: ExperimentConfig) -> None:
    """Every value rule of the schema; raises ConfigError naming the key."""
    for key, f, value in settings(cfg):
        rule = f.metadata["rule"]
        if rule and not rule[0](value):
            raise ConfigError(f"{key} {rule[1]} (got {value!r})")
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
    # navier_stokes reads one viscosity, reaction_diffusion one or two
    # diffusivities (one value gives both). An entry's vector derives its
    # episodes' seeds, so equal entries would repeat the same episodes.
    positive = ds.generator == "navier_stokes"
    vectors = [parameter_vector(p) for p in ds.params]
    for p, vec in zip(ds.params, vectors):
        if len(vec) > (1 if positive else 2) or any(v <= 0 if positive else v < 0 for v in vec):
            raise ConfigError(
                f"dataset.params entry {p!r} must be "
                f"{'one positive value' if positive else 'one or two non-negative values'} "
                f"for {ds.generator}"
            )
        if vectors.count(vec) > 1:
            raise ConfigError(f"dataset.params entry {p!r} repeats another entry")
    for p in ds.ood.out_values if ds.ood.mode == "explicit" else []:
        if parameter_vector(p) not in vectors:
            raise ConfigError(f"dataset.ood.out_values entry {p!r} matches no dataset.params entry")


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
    """Every config key with its default and its doc, for --help."""
    return "\n".join(
        f"  {key} = {value!r}\n      {f.metadata['doc']}" for key, f, value in settings()
    )
