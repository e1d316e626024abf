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
    """Every setting of a training run; only what runs vary is a setting.

    The crop length is the preset's input length and the class boundary
    is `betadist.hard_label`. Adam's moments (`nn.ADAM_BETA1/2`,
    `nn.ADAM_EPS`), the batch-norm momentum (`model.BN_MOMENTUM`), the
    label clip (`model.LABEL_EPS`) and the resample range
    (`data.AugmentConfig`) are constants."""

    arch_preset: str = "paper"
    batch_size: int = 256
    learning_rate: float = 1e-3
    epochs: int = 10
    seed: int = 0
    augment: bool = True
    soft_targets: bool = False

    def validate(self) -> "RunConfig":
        if self.arch_preset not in PRESETS:
            raise UsageError(
                f"arch_preset must be one of {sorted(PRESETS)}, "
                f"got {self.arch_preset!r}"
            )
        _require(self.batch_size >= 2 and self.batch_size % 2 == 0,
                 f"batch_size must be even and >= 2, got {self.batch_size}")
        # Adam moves each weight by up to about learning_rate per step, and
        # every initial weight of both presets lies within its Xavier bound
        # (at most 0.87), so a step above 1 only blows the network up.
        _require(0.0 <= self.learning_rate <= 1.0,
                 f"learning_rate must be in [0, 1], got {self.learning_rate}")
        _require(self.epochs >= 0, f"epochs must be >= 0, got {self.epochs}")
        _require(self.seed >= 0, f"seed must be >= 0, got {self.seed}")
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
