"""Flat key=value run configuration.

A UTF-8 file with one option per line, `#` comments and blank lines
allowed, opened through `data.open_input` as every input file is (so a
leading byte-order mark is skipped). Unknown keys are rejected and floats
must be finite; a `RunConfig` checks every value against its domain when
it is built, so a typo fails the run before any compute happens. A
setting's annotation on `RunConfig` is its one type declaration: it picks
both the types a `RunConfig` accepts and the parser of its file text.
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
    cannot change after. Each field's annotation is the setting's one
    type declaration, read by the type check and by `parse_config`, so a
    new setting is one line here."""

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
        for field in fields(self):
            value = getattr(self, field.name)
            kinds = _ACCEPTS[field.type]
            if not isinstance(value, kinds) or (
                    bool not in kinds and isinstance(value, bool)):
                names = " or ".join(kind.__name__ for kind in kinds)
                raise UsageError(f"{field.name} must be {names}, got {value!r}")
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


# The types each annotation accepts, keyed by its text: `from __future__
# import annotations` leaves `Field.type` a string. An int is a float
# setting's value too.
_ACCEPTS = {"str": (str,), "int": (int,), "float": (int, float),
            "bool": (bool,)}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise UsageError(message)


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"{text!r} is not a boolean")


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


# The parser of each annotation's file text; each raises ValueError on
# text it cannot read.
_PARSERS = {"str": str, "int": int, "float": _parse_float, "bool": _parse_bool}


def parse_config(path) -> RunConfig:
    """Read and type-check a config file; `RunConfig` checks domains."""
    types = {f.name: f.type for f in fields(RunConfig)}
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
        if key not in types:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise UsageError(f"{path}:{lineno}: duplicate config key {key!r}")
        try:
            values[key] = _PARSERS[types[key]](value)
        except ValueError as exc:
            raise UsageError(
                f"{path}:{lineno}: bad value {value!r} for key {key!r}"
            ) from exc
    return RunConfig(**values)
