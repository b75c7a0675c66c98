"""Run configuration: dataclasses, defaults, and strict JSON parsing.

Config files are JSON with four sections (model, loss, optimizer, data)
plus a few top-level scalars. Every omitted field takes the documented
default; unknown keys anywhere are hard errors so typos cannot silently
change a run. ``RunConfig.to_dict`` produces the fully resolved echo that
gets embedded in checkpoints, metrics files, and reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .circuits import MAX_QUBITS
from .errors import ConfigError

ACTIVATIONS = ("relu", "tanh")
AGGREGATIONS = ("mean_logits", "attention_pool")
DATA_KINDS = ("tsv", "synthetic")
SYNTH_TASKS = ("majority", "sentiment")


@dataclass
class ModelConfig:
    qubits: int = 8
    window: int = 16
    stride: int | None = None           # None: non-overlapping (stride = window)
    degree: int = 5
    embed_dim: int = 32
    embed_layers: int = 3
    ff_layers: int = 6
    hidden: int = 64
    dropout: float = 0.1
    activation: str = "relu"
    aggregation: str = "mean_logits"
    measurement_mask: list[bool] | None = None
    normalize_lcu: bool = True
    init_angle_scale: float = 0.01
    init_coeff_noise: float = 0.01

    @property
    def effective_stride(self) -> int:
        return self.window if self.stride is None else self.stride

    def validate(self) -> None:
        if not (2 <= self.qubits <= MAX_QUBITS):
            raise ConfigError(f"model.qubits must be in 2..{MAX_QUBITS}, got {self.qubits}")
        if self.window < 1:
            raise ConfigError(f"model.window must be >= 1, got {self.window}")
        if self.stride is not None and self.stride < 1:
            raise ConfigError(f"model.stride must be >= 1, got {self.stride}")
        if self.degree < 1:
            raise ConfigError(f"model.degree must be >= 1, got {self.degree}")
        for name in ("embed_dim", "embed_layers", "ff_layers", "hidden"):
            if getattr(self, name) < 1:
                raise ConfigError(f"model.{name} must be >= 1, got {getattr(self, name)}")
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigError(f"model.dropout must be in [0, 1), got {self.dropout}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"model.activation must be one of {ACTIVATIONS}")
        if self.aggregation not in AGGREGATIONS:
            raise ConfigError(f"model.aggregation must be one of {AGGREGATIONS}")
        if self.measurement_mask is not None:
            want = 3 * self.qubits
            if len(self.measurement_mask) != want:
                raise ConfigError(
                    f"model.measurement_mask needs {want} entries for qubits={self.qubits}, "
                    f"got {len(self.measurement_mask)}")
            if not any(self.measurement_mask):
                raise ConfigError("model.measurement_mask keeps no feature")
        if self.init_angle_scale < 0 or self.init_coeff_noise < 0:
            raise ConfigError("model init scales must be >= 0")


@dataclass
class LossConfig:
    tau: float = 0.5
    lambda_ps: float = 0.1
    lambda_l1: float = 0.0
    lambda_smooth: float = 0.0
    lambda_l2: float = 0.0

    def validate(self) -> None:
        if not (0.0 < self.tau < 1.0):
            raise ConfigError(f"loss.tau must be in (0, 1), got {self.tau}")
        for name in ("lambda_ps", "lambda_l1", "lambda_smooth", "lambda_l2"):
            if getattr(self, name) < 0:
                raise ConfigError(f"loss.{name} must be >= 0")


@dataclass
class OptimizerConfig:
    lr_max: float = 1e-3
    lr_min: float = 1e-5
    weight_decay: float = 0.01
    batch_size: int = 32
    epochs: int = 10
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def validate(self) -> None:
        if self.lr_max <= 0 or self.lr_min <= 0:
            raise ConfigError("optimizer learning rates must be > 0")
        if self.lr_min > self.lr_max:
            raise ConfigError(f"optimizer.lr_min {self.lr_min} exceeds lr_max {self.lr_max}")
        if self.weight_decay < 0:
            raise ConfigError("optimizer.weight_decay must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("optimizer.batch_size must be >= 1")
        if self.epochs < 0:
            raise ConfigError("optimizer.epochs must be >= 0")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError("optimizer betas must be in [0, 1)")
        if not self.eps > 0:
            raise ConfigError(f"optimizer.eps must be > 0, got {self.eps}")


@dataclass
class DataConfig:
    kind: str = "synthetic"
    train: str | None = None
    val: str | None = None
    test: str | None = None
    task: str = "majority"
    size: int = 2500
    data_seed: int = 0
    distractor_vocab: int = 8
    min_freq: int = 2
    max_vocab: int = 20000

    def validate(self) -> None:
        if self.kind not in DATA_KINDS:
            raise ConfigError(f"data.kind must be one of {DATA_KINDS}")
        if self.kind == "tsv":
            missing = [k for k in ("train", "val", "test") if getattr(self, k) is None]
            if missing:
                raise ConfigError(f"data.kind 'tsv' needs paths for {missing}")
        else:
            if self.task not in SYNTH_TASKS:
                raise ConfigError(f"data.task must be one of {SYNTH_TASKS}")
            if self.size < 10:
                raise ConfigError("data.size must be >= 10")
            if self.distractor_vocab < 1:
                raise ConfigError("data.distractor_vocab must be >= 1")
        if self.min_freq < 1:
            raise ConfigError("data.min_freq must be >= 1")
        if self.max_vocab < 2:
            raise ConfigError("data.max_vocab must be >= 2 (PAD and UNK)")


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    data: DataConfig = field(default_factory=DataConfig)
    seed: int = 0
    out_dir: str = "runs/default"

    def validate(self) -> "RunConfig":
        for name in _SECTIONS:
            for key, value in vars(getattr(self, name)).items():
                # JSON's NaN and Infinity parse as floats; no field takes them
                if isinstance(value, float) and not math.isfinite(value):
                    raise ConfigError(f"{name}.{key} must be finite, got {value}")
        self.model.validate()
        self.loss.validate()
        self.optimizer.validate()
        self.data.validate()
        return self

    def to_dict(self) -> dict:
        """Fully resolved echo, suitable for embedding in artifacts."""
        return asdict(self)


_SECTIONS = {
    "model": ModelConfig,
    "loss": LossConfig,
    "optimizer": OptimizerConfig,
    "data": DataConfig,
}

_SCALARS = ("seed", "out_dir")


def _check_type(value, annotation: str, where: str) -> None:
    """Match a JSON value to a field's annotation: a bool is not an int, a
    float field takes an int, and an ``X | None`` field takes null."""
    kind, *rest = annotation.split(" | ")
    if value is None:
        ok = rest == ["None"]
    elif kind == "list[bool]":
        ok = isinstance(value, list) and all(isinstance(v, bool) for v in value)
    elif kind == "float":
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    else:
        ok = type(value).__name__ == kind
    if not ok:
        raise ConfigError(f"'{where}' must be {annotation.replace(' | None', ' or null')}, "
                          f"got {value!r}")


def _build_section(cls, payload: dict, where: str):
    if not isinstance(payload, dict):
        raise ConfigError(f"section '{where}' must be an object")
    obj = cls()
    fields = obj.__dataclass_fields__
    unknown = sorted(set(payload) - set(fields))
    if unknown:
        raise ConfigError(f"unknown key(s) in '{where}': {', '.join(unknown)}")
    for key, value in payload.items():
        _check_type(value, fields[key].type, f"{where}.{key}")
        setattr(obj, key, value)
    return obj


def from_dict(raw: dict) -> RunConfig:
    """Parse and validate a config mapping. Unknown keys are hard errors."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    known = set(_SECTIONS) | set(_SCALARS)
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {', '.join(unknown)}")
    cfg = RunConfig()
    for name, cls in _SECTIONS.items():
        if name in raw:
            setattr(cfg, name, _build_section(cls, raw[name], name))
    for name in _SCALARS:
        if name in raw:
            _check_type(raw[name], RunConfig.__dataclass_fields__[name].type, name)
            setattr(cfg, name, raw[name])
    return cfg.validate()


def load_file(path: str | Path) -> RunConfig:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read config file {p}: {e}") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"config file {p} is not UTF-8 text: {e}") from e
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {p} is not valid JSON: {e}") from e
    return from_dict(raw)
