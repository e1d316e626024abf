"""Exception hierarchy shared across the package.

The split mirrors the CLI exit codes: usage/config mistakes (1), broken or
missing data on disk (2), and violated internal invariants (3). Plain
``ValueError`` is used for scalar math domain errors and is treated as an
internal failure when it escapes to the CLI.
"""


class BetamixError(Exception):
    """Base class for all package-specific errors."""


class UsageError(BetamixError):
    """Caller misuse: bad flags, bad config values, unusable dataset shape."""


class DataError(BetamixError):
    """On-disk data is missing, truncated, or malformed."""


class CheckpointError(DataError):
    """Base class for checkpoint load failures."""


class CorruptCheckpointError(CheckpointError):
    """Checkpoint file has a bad magic, is truncated, or fails to parse."""


class UnsupportedVersionError(CheckpointError):
    """Checkpoint format version is not readable by this build."""


class TensorShapeError(CheckpointError):
    """A stored tensor's shape disagrees with the architecture it claims."""


class InternalError(BetamixError):
    """An invariant the library promises to maintain was observed broken."""


class NonFiniteOutputError(InternalError):
    """The network gave a record a non-finite (alpha, beta).

    Samples are bounded by data.MAX_ABS_SAMPLE, so only the weights can
    cause it. The commands that run a loaded checkpoint file it as a data
    error; during training, where the weights are the run's own, it stays
    an internal failure."""
