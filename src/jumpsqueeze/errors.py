"""Exception types shared across the package, and the number check that
turns a bad input value into a :class:`ConfigError`."""

import math


class TruncationError(ValueError):
    """A requested operation would leak significant population past the
    truncated Fock basis (or already has).

    Attributes
    ----------
    min_dim : int or None
        Advisory smallest truncation dimension expected to satisfy the
        tail-mass rule, when one can be estimated.
    """

    def __init__(self, message, min_dim=None):
        self.base_message = message
        if min_dim is not None:
            message = f"{message} (advisory minimum dimension: {min_dim})"
        super().__init__(message)
        self.min_dim = min_dim


class CutoffError(ValueError):
    """A summation cutoff is too small for the requested tolerance."""


class ConfigError(ValueError):
    """Configuration or input-file contents violate the schema."""


def check_number(value, where, minimum=None, strict=False):
    """Return ``value`` as a float after checking that it is a finite JSON
    number (not a boolean) and at least (``strict``: above) ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where}: must be finite, got {value!r}")
    if minimum is not None:
        if strict and not number > minimum:
            raise ConfigError(f"{where}: must be > {minimum}, got {value}")
        if not strict and not number >= minimum:
            raise ConfigError(f"{where}: must be >= {minimum}, got {value}")
    return number
