"""Exception types shared across the package, the input boundary (the
JSON reader and the document, number and integer checks that turn a bad
input into a :class:`ConfigError`) and the one atomic file writer."""

import json
import math
import os
import tempfile

SCHEMA_VERSION = 1


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


class ConfigError(ValueError):
    """Configuration or input-file contents violate the schema."""


def read_json(path, what):
    """Parse the UTF-8 JSON file at ``path``; ``what`` names the document
    in the error raised for an unreadable or malformed file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"malformed {what} JSON: {exc}") from exc


def atomic_write(path, text):
    """Write ``text`` as UTF-8 through a temp file plus rename, so a
    failure never leaves partial output; creates the directory."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def check_object(doc, where, allowed, required=()):
    """Return ``doc`` after checking that it is a JSON object whose keys
    are among ``allowed`` and include ``required``, with a
    ``schema_version``, if present, of exactly :data:`SCHEMA_VERSION`."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected a JSON object, "
                          f"got {type(doc).__name__}")
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(doc)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")
    if "schema_version" in doc:
        check_integer(doc["schema_version"], f"{where}.schema_version",
                      SCHEMA_VERSION, SCHEMA_VERSION)
    return doc


def check_number(value, where, minimum=None, strict=False, maximum=None,
                 scale=1.0):
    """Return ``scale * value`` after checking that ``value`` is a JSON
    number (not a boolean) and that the scaled value is finite, at least
    (``strict``: above) ``minimum`` and at most ``maximum``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        number = scale * float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where}: must be finite"
                          + (" in SI units" if scale != 1.0 else "")
                          + f", got {value!r}")
    return _in_range(number, where, minimum, strict, maximum)


def check_integer(value, where, minimum=None, maximum=None):
    """Return ``value`` after checking that it is a JSON integer (not a
    boolean) in ``[minimum, maximum]``; either bound may be None."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return _in_range(value, where, minimum, False, maximum)


def _in_range(number, where, minimum, strict, maximum):
    if minimum is not None and not (
            number > minimum if strict else number >= minimum):
        raise ConfigError(f"{where}: must be {'>' if strict else '>='} "
                          f"{minimum}, got {number}")
    if maximum is not None and not number <= maximum:
        raise ConfigError(f"{where}: must be <= {maximum}, got {number}")
    return number


def construct(cls, where, *args, **kwargs):
    """``cls(*args, **kwargs)``.  The class owns the domain of its values;
    its ValueError becomes a ConfigError naming ``where``."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
