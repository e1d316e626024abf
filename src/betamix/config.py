"""Flat key=value run configuration.

A UTF-8 file with one option per line, `#` comments and blank lines
allowed, opened through `data.open_input` as every input file is (so a
leading byte-order mark is skipped). Unknown keys are rejected and floats
must be finite; a `RunConfig` checks every value against its domain when
it is built, so a typo fails the run before any compute happens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .data import open_input
from .errors import UsageError
from .model import PRESETS


@dataclass(frozen=True)
class RunConfig:
    """Every setting of a training run; only what runs vary is a setting.

    The crop length is the preset's input length and the class boundary
    is `betadist.hard_label`. Adam's moments (`nn.ADAM_BETA1/2`,
    `nn.ADAM_EPS`), the batch-norm momentum (`nn.BN_MOMENTUM`), the
    label clip (`model.LABEL_EPS`) and the resample range
    (`data.AugmentConfig`) are constants. `augment` has no effect when
    `soft_targets` is set, because the changepoint sampler never
    resamples. A config checks its values when built (UsageError) and
    cannot change after."""

    arch_preset: str = "paper"
    batch_size: int = 256
    learning_rate: float = 1e-3
    epochs: int = 10
    seed: int = 0
    augment: bool = True
    soft_targets: bool = False

    def __post_init__(self):
        # Types first, so a library caller's 8.0 or "no" is a usage error
        # rather than a TypeError mid-run or a string read as true; bool is
        # an int subclass, so it is refused where a number is wanted.
        for name, kinds in _TYPES.items():
            value = getattr(self, name)
            if not isinstance(value, kinds) or (
                    bool not in kinds and isinstance(value, bool)):
                names = " or ".join(kind.__name__ for kind in kinds)
                raise UsageError(f"{name} must be {names}, got {value!r}")
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


# The types each setting accepts.
_TYPES = {
    "arch_preset": (str,),
    "batch_size": (int,),
    "learning_rate": (int, float),
    "epochs": (int,),
    "seed": (int,),
    "augment": (bool,),
    "soft_targets": (bool,),
}


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
    """Read and type-check a config file; `RunConfig` checks domains."""
    defaults = RunConfig()
    known = {f.name for f in fields(RunConfig)}
    values = {}
    with open_input(path, "config file", UsageError, mode="r") as fh:
        try:
            lines = fh.readlines()
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
    return RunConfig(**values)
