"""Flat training/model configuration with file and override plumbing.

The on-disk format is one JSON object keyed by field name. It is the format
`train` writes as a run's `config.json`, so that file reproduces the run.
Every field of TrainConfig is addressable by its field name; command-line
flags override file values, which override the defaults here.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

ENCODERS = ("coattention", "lstm")
# exact JSON value types per field annotation, so a bool never passes for a
# number; a float field also takes an int
_JSON_TYPES = {"bool": (bool,), "int": (int,), "float": (int, float), "str": (str,)}


class ConfigError(ValueError):
    """Raised for unknown keys, malformed values, or invariant violations."""


@dataclass
class TrainConfig:
    lr: float = 1e-3
    epochs: int = 200
    batch_size: int = 8
    seed: int = 7
    ga: bool = True
    encoder: str = "coattention"
    layers: int = 2
    heads: int = 2
    d_model: int = 16
    d_token: int = 16
    dropout: float = 0.1
    patience: int = 20

    def validate(self) -> "TrainConfig":
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ConfigError(f"lr must be finite and non-negative, got {self.lr}")
        for name in ("epochs", "batch_size", "layers", "heads", "d_model",
                     "d_token", "patience"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.d_model % 2 != 0:
            raise ConfigError(f"d_model must be even (bidirectional halves), got {self.d_model}")
        if self.d_model % self.heads != 0:
            raise ConfigError(f"heads={self.heads} must divide d_model={self.d_model}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.encoder not in ENCODERS:
            raise ConfigError(f"encoder must be one of {ENCODERS}, got {self.encoder!r}")
        return self

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, blob: str) -> "TrainConfig":
        try:
            mapping = json.loads(blob)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(mapping, dict):
            raise ConfigError(f"config must be a JSON object, got {type(mapping).__name__}")
        return cls.from_mapping(mapping)

    @classmethod
    def read(cls, path) -> "TrainConfig":
        """Read a JSON config file; any failure is a ConfigError naming it."""
        try:
            with open(path, "rb") as fh:
                return cls.from_json(fh.read().decode("utf-8"))
        except (ConfigError, OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc

    @classmethod
    def from_mapping(cls, mapping: dict) -> "TrainConfig":
        """Build and validate a config whose values have their fields' JSON types."""
        kinds = {f.name: str(f.type) for f in dataclasses.fields(cls)}
        unknown = set(mapping) - set(kinds)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        values = {}
        for key, value in mapping.items():
            kind = kinds[key]
            if type(value) not in _JSON_TYPES[kind]:
                raise ConfigError(f"{key} must be {kind}, got {value!r}")
            values[key] = float(value) if kind == "float" else value
        return cls(**values).validate()

    def with_overrides(self, overrides: dict) -> "TrainConfig":
        merged = dataclasses.asdict(self)
        merged.update({k: v for k, v in overrides.items() if v is not None})
        return type(self).from_mapping(merged)
