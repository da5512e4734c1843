"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: ConfigError -> 1, DataError -> 2,
NumericError -> 3.
"""

import math


class UpbandError(Exception):
    """Base class for all package errors."""


class ShapeError(UpbandError):
    """Array shapes incompatible with the requested operation."""


class ConfigError(UpbandError):
    """Bad configuration: unknown key, invalid value, divisibility violation."""


class DataError(UpbandError):
    """Bad input data: missing files, malformed audio, empty corpus."""


class NumericError(UpbandError):
    """Non-finite value where a finite one is required."""


class WavFormatError(DataError):
    """Malformed or unsupported RIFF/WAVE file."""


class CheckpointError(DataError):
    """Unreadable or version-incompatible checkpoint file."""


def require_positive(owner: str, **values) -> None:
    """Refuse, as a ConfigError, any value that is not a finite number > 0."""
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"{owner}: {name} must be finite and > 0, got {value}")
