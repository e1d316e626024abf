"""Flat key=value run configuration.

A UTF-8 file with one option per line, `#` comments and blank lines
allowed. Unknown keys are rejected and every value is validated against
its domain at parse time (floats must be finite), so a typo fails the run
before any compute happens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import UsageError
from .model import PRESETS


@dataclass
class RunConfig:
    """Every setting of a training run. The crop length is the preset's
    input length and the class boundary is `betadist.hard_label`; neither
    is a setting."""

    arch_preset: str = "paper"
    batch_size: int = 256
    learning_rate: float = 1e-3
    epochs: int = 10
    seed: int = 0
    label_eps: float = 0.01
    resample_min: float = 0.8
    resample_max: float = 1.25
    augment: bool = True
    bn_momentum: float = 0.1
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    soft_targets: bool = False

    def validate(self) -> "RunConfig":
        if self.arch_preset not in PRESETS:
            raise UsageError(
                f"arch_preset must be one of {sorted(PRESETS)}, "
                f"got {self.arch_preset!r}"
            )
        _require(self.batch_size >= 2 and self.batch_size % 2 == 0,
                 f"batch_size must be even and >= 2, got {self.batch_size}")
        _require(self.learning_rate >= 0.0,
                 f"learning_rate must be >= 0, got {self.learning_rate}")
        _require(self.epochs >= 0, f"epochs must be >= 0, got {self.epochs}")
        _require(self.seed >= 0, f"seed must be >= 0, got {self.seed}")
        _require(0.0 < self.label_eps < 0.5,
                 f"label_eps must lie in (0, 0.5), got {self.label_eps}")
        _require(0.0 < self.resample_min <= self.resample_max,
                 "resample range must satisfy 0 < min <= max, got "
                 f"[{self.resample_min}, {self.resample_max}]")
        _require(0.0 < self.bn_momentum < 1.0,
                 f"bn_momentum must lie in (0,1), got {self.bn_momentum}")
        _require(0.0 < self.adam_beta1 < 1.0,
                 f"adam_beta1 must lie in (0,1), got {self.adam_beta1}")
        _require(0.0 < self.adam_beta2 < 1.0,
                 f"adam_beta2 must lie in (0,1), got {self.adam_beta2}")
        _require(self.adam_eps > 0.0, f"adam_eps must be > 0, got {self.adam_eps}")
        return self

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise UsageError(message)


def _parse_bool(raw: str, key: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise UsageError(f"config key {key!r}: expected a boolean, got {raw!r}")


def parse_config(path) -> RunConfig:
    """Read, type-check, and domain-validate a config file."""
    defaults = RunConfig()
    known = {f.name for f in fields(RunConfig)}
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"config file {path} is not UTF-8: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in known:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise UsageError(f"{path}:{lineno}: duplicate config key {key!r}")
        default = getattr(defaults, key)
        try:
            if isinstance(default, bool):
                values[key] = _parse_bool(value, key)
            elif isinstance(default, int):
                values[key] = int(value)
            elif isinstance(default, float):
                values[key] = float(value)
                if not math.isfinite(values[key]):
                    raise ValueError(f"{value!r} is not finite")
            else:
                values[key] = value
        except ValueError as exc:
            raise UsageError(
                f"{path}:{lineno}: bad value {value!r} for key {key!r}"
            ) from exc
    return RunConfig(**values).validate()
