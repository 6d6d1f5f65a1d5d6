"""Exception types shared across the package.

The CLI maps these onto exit codes (configuration errors -> 2; data
errors, diverged training and undefined statistics -> 3), so raise the
most specific type that applies.
"""


class BrainalignError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(BrainalignError):
    """Invalid configuration: bad shapes, unknown names, out-of-range settings."""


class DataFormatError(BrainalignError):
    """Malformed input data: truncated files, asymmetric RDMs, bad labels."""


class TrainingDivergedError(BrainalignError):
    """Loss or energy became non-finite during training."""

    def __init__(self, message, epoch=None):
        super().__init__(message)
        self.epoch = epoch


class UndefinedStatisticError(BrainalignError):
    """A statistic is undefined for the given input (e.g. constant vector)."""
