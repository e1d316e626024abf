"""Exception hierarchy shared across the package.

One class per CLI exit code: usage/config mistakes (UsageError, 1), broken
or missing data on disk (DataError, 2), and violated internal invariants
(InternalError, 3). A refused input file, a record, a manifest or a
checkpoint, raises DataError, whose message names the file and the check
that refused it. NonFiniteOutputError is the one class the CLI files by
command. Plain ``ValueError`` is used for scalar math domain errors and is
treated as an internal failure when it escapes to the CLI.
"""


class BetamixError(Exception):
    """Base class for all package-specific errors."""


class UsageError(BetamixError):
    """Caller misuse: bad flags, bad config values, unusable dataset shape."""


class DataError(BetamixError):
    """On-disk data is missing, truncated, or malformed."""


class InternalError(BetamixError):
    """An invariant the library promises to maintain was observed broken."""


class NonFiniteOutputError(InternalError):
    """The network gave a record a non-finite (alpha, beta).

    Samples are bounded by data.MAX_ABS_SAMPLE, so only the weights can
    cause it. The commands that run a loaded checkpoint file it as a data
    error; during training, where the weights are the run's own, it stays
    an internal failure."""
