"""Run configuration: hyperparameters, presets, the flat config file format,
and the seeded random sub-streams every component draws from."""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

import numpy as np

VARIANT_FULL = "full"
VARIANT_NO_LINKS = "no-links"
VARIANT_CHAIN = "chain"
VARIANTS = (VARIANT_FULL, VARIANT_NO_LINKS, VARIANT_CHAIN)

PRESET_NAMES = ("sst", "ag")


class ConfigError(RuntimeError):
    """Bad configuration value, key, or file syntax."""


@dataclass
class TrainConfig:
    """Hyperparameters for one training run.

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

    def resolved_attention_dim(self) -> int:
        return self.attention_dim if self.attention_dim is not None else self.view_dim

    def resolved_hidden_dim(self) -> int:
        if self.hidden_dim is not None:
            return self.hidden_dim
        return max(1, (self.views * self.view_dim) // 2)

    def validate(self) -> None:
        sizes = ("views", "view_dim", "embed_dim", "batch_size", "max_epochs",
                 "min_count", "patience", "seed")
        for name in sizes + ("attention_dim", "hidden_dim"):
            value = getattr(self, name)
            if value is None and name not in sizes:
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.views < 1:
            raise ConfigError(f"views must be >= 1, got {self.views}")
        for name in ("view_dim", "embed_dim", "batch_size", "max_epochs", "min_count"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("attention_dim", "hidden_dim"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be >= 1 when set, got {value}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        if not 0.0 <= self.rho < 1.0:
            raise ConfigError(f"rho must lie in [0, 1), got {self.rho}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ConfigError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not (math.isfinite(self.lr_scale) and self.lr_scale >= 0.0):
            raise ConfigError(f"lr_scale must be >= 0 and finite, got {self.lr_scale}")
        if self.patience < 0:
            raise ConfigError(f"patience must be >= 0, got {self.patience}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
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


def _parse_variant(text: str) -> str:
    if text not in VARIANTS:
        raise ValueError(f"not a variant: {text!r}")
    return text


_FIELD_PARSERS = {
    "views": int,
    "view_dim": int,
    "attention_dim": _parse_optional_int,
    "embed_dim": int,
    "dropout": float,
    "lr_scale": float,
    "rho": float,
    "epsilon": float,
    "batch_size": int,
    "max_epochs": int,
    "patience": int,
    "seed": int,
    "variant": _parse_variant,
    "conv_features": _parse_bool,
    "two_layer_classifier": _parse_bool,
    "hidden_dim": _parse_optional_int,
    "min_count": int,
}


def parse_config_text(text: str, base: TrainConfig | None = None,
                      source: str = "<config>") -> TrainConfig:
    """Read ``key = value`` lines (# comments allowed) over a base config."""
    updates = {}
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
            updates[key] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {exc}") from None
    config = dataclasses.replace(base if base is not None else TrainConfig(), **updates)
    config.validate()
    return config


def load_config(path, base: TrainConfig | None = None) -> TrainConfig:
    with open(path, encoding="utf-8") as handle:
        return parse_config_text(handle.read(), base=base, source=str(path))


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def config_to_text(config: TrainConfig) -> str:
    """Serialize in field order; unset optional fields are omitted.

    ``parse_config_text(config_to_text(c))`` reproduces ``c`` exactly.
    """
    lines = []
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if value is None:
            continue
        lines.append(f"{field.name} = {_format_value(value)}")
    return "\n".join(lines) + "\n"


def save_config(path, config: TrainConfig) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(config_to_text(config))


def config_to_dict(config: TrainConfig) -> dict:
    return dataclasses.asdict(config)


def config_from_dict(data: dict) -> TrainConfig:
    known = {f.name for f in dataclasses.fields(TrainConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    config = TrainConfig(**data)
    config.validate()
    return config


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
