"""Run configuration: hyperparameters, presets, the flat config file reader,
and the seeded random sub-streams every component draws from."""

from __future__ import annotations

import dataclasses
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .files import read_lines

VARIANT_FULL = "full"
VARIANT_NO_LINKS = "no-links"
VARIANT_CHAIN = "chain"
VARIANTS = (VARIANT_FULL, VARIANT_NO_LINKS, VARIANT_CHAIN)

PRESET_NAMES = ("sst", "ag")


class ConfigError(RuntimeError):
    """Bad configuration value, key, or file syntax."""


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run, checked when built and fixed
    afterwards: derive a variant with ``dataclasses.replace``.

    ``attention_dim`` defaults to ``view_dim`` and ``hidden_dim`` to half the
    concatenated view width when left unset.
    """

    views: int = 8
    view_dim: int = 200
    attention_dim: int | None = None
    embed_dim: int = 300
    dropout: float = 0.2
    lr_scale: float = 0.0005
    rho: float = 0.95
    epsilon: float = 1e-6
    batch_size: int = 50
    max_epochs: int = 30
    patience: int = 5
    seed: int = 0
    variant: str = VARIANT_FULL
    conv_features: bool = True
    two_layer_classifier: bool = True
    hidden_dim: int | None = None
    min_count: int = 1

    def __post_init__(self) -> None:
        self.validate()

    def resolved_attention_dim(self) -> int:
        return self.attention_dim if self.attention_dim is not None else self.view_dim

    def resolved_hidden_dim(self) -> int:
        if self.hidden_dim is not None:
            return self.hidden_dim
        return max(1, (self.views * self.view_dim) // 2)

    def validate(self) -> None:
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            types, kind, _ = _KINDS[field.type]
            # bool is an Integral, so only a bool field may hold one.
            if isinstance(value, bool) != (field.type == "bool") or not isinstance(value, types):
                raise ConfigError(f"{field.name} must be {kind}, got {value!r}")
            least = _LEAST.get(field.name)
            if least is not None and value is not None and value < least:
                raise ConfigError(f"{field.name} must be >= {least}, got {value}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        if not 0.0 <= self.rho < 1.0:
            raise ConfigError(f"rho must lie in [0, 1), got {self.rho}")
        if not 0.0 < self.epsilon <= sys.float_info.max:
            raise ConfigError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not 0.0 <= self.lr_scale <= sys.float_info.max:
            raise ConfigError(f"lr_scale must be >= 0 and finite, got {self.lr_scale}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")


def preset(name: str) -> TrainConfig:
    """Named hyperparameter bundles for the two reference corpora."""
    if name == "sst":
        return TrainConfig()
    if name == "ag":
        return TrainConfig(batch_size=23, view_dim=100)
    raise ConfigError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_optional_int(text: str) -> int | None:
    if text.lower() == "none":
        return None
    return int(text)


# Field annotations are strings under ``from __future__ import annotations``.
# The builtin types come first: isinstance against an abstract class is slow.
_KINDS = {  # annotation: (types a value must have, name in messages, file parser)
    "int": ((int, numbers.Integral), "an integer", int),
    "int | None": ((int, type(None), numbers.Integral), "an integer or None",
                   _parse_optional_int),
    "float": ((float, int, numbers.Real), "a real number", float),
    "bool": (bool, "a boolean", _parse_bool),
    "str": (str, "a string", str),
}
_LEAST = {f.name: 0 if f.name in ("patience", "seed") else 1
          for f in dataclasses.fields(TrainConfig) if f.type.startswith("int")}
_FIELD_PARSERS = {f.name: _KINDS[f.type][2] for f in dataclasses.fields(TrainConfig)}


def parse_config_text(text: str, base: TrainConfig | None = None,
                      source: str = "<config>") -> TrainConfig:
    """Read ``key = value`` lines (# comments allowed) over a base config."""
    config = base if base is not None else TrainConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        parser = _FIELD_PARSERS.get(key)
        if parser is None:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        try:
            config = dataclasses.replace(config, **{key: parser(value)})
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {exc}") from None
    return config


def load_config(path, base: TrainConfig | None = None) -> TrainConfig:
    text = "".join(line for _, line in read_lines(path, ConfigError))
    return parse_config_text(text, base=base, source=str(path))


def config_from_dict(data: dict) -> TrainConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
    known = {f.name for f in dataclasses.fields(TrainConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    return TrainConfig(**data)


# Fixed tags keep each consumer on its own stream, so adding draws to one
# component never shifts the randomness seen by another.
_STREAM_TAGS = {"init": 1, "embeddings": 2, "shuffle": 3, "dropout": 4, "data": 5}


def seed_stream(seed: int, name: str) -> np.random.Generator:
    """Independent generator for one named consumer of the run seed."""
    try:
        tag = _STREAM_TAGS[name]
    except KeyError:
        raise ValueError(f"unknown stream {name!r}; choose from {sorted(_STREAM_TAGS)}") from None
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))
