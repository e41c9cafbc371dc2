"""Exception hierarchy shared by all stegolm modules.

Every error the toolkit raises on purpose derives from StegolmError so the
CLI can report a single machine-parsable line (``error: <ClassName>: <msg>``)
and exit nonzero. ``check_int`` is the one rule for integer arguments and
``check_real`` the one rule for real-valued ones.
"""

import math


class StegolmError(Exception):
    """Base class for all stegolm errors."""


class ConfigError(StegolmError, ValueError):
    """A configuration value is out of range (temperature, n-gram order, ...)."""


class CorpusError(StegolmError):
    """Invalid corpus input (empty token stream, bad token surface, ...)."""


class VocabFormatError(StegolmError):
    """Vocabulary file is malformed or violates the ordering invariants."""


class VocabMismatchError(StegolmError):
    """A key or model was built against a different vocabulary (hash check)."""


class KeyFormatError(StegolmError):
    """Key file is malformed."""


class KeyInvariantError(StegolmError):
    """Key breaks the partition: slot array of the wrong length or slot range,
    sentinel in a bin, unassigned carrier, empty or skewed bins, or a token listed twice."""


class KeyGenError(StegolmError):
    """Key generation parameters are unsatisfiable for this vocabulary."""


class ModelFormatError(StegolmError):
    """Model file is malformed or carries an unknown backend tag."""


class ModelOutputError(StegolmError, ValueError):
    """A model's next-token scores are NaN or overflow; it has no distribution."""


class TrainingError(StegolmError):
    """Training cannot proceed (corpus too small, divergence)."""


class EncodeError(StegolmError):
    """Payload cannot be embedded (degenerate key, empty block list, ...)."""


class DecodeError(StegolmError):
    """Stegotext cannot be decoded; carries the offending token position."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message if position is None else f"{message} (token position {position})")
        self.position = position


def check_int(name: str, value, low: int, high: int | None = None, error=ConfigError) -> int:
    """``value`` if it is a Python ``int`` (never a ``bool``, a float or a numpy
    integer: checked, not coerced) with ``low <= value``, and ``value < high``
    when ``high`` is given; otherwise ``error``."""
    if type(value) is int and low <= value and (high is None or value < high):
        return value
    bound = f">= {low}" if high is None else f"in [{low}, {high})"
    raise error(f"{name} must be an integer {bound}, not {value!r}")


def check_real(name: str, value, low: float, high: float = math.inf, *,
               low_open: bool = False) -> float:
    """``value`` if it is a Python ``int`` or ``float`` (numpy ``float64`` is a
    float; a bool, a string or another numpy scalar is not) with ``low <= value``
    (``low < value`` when ``low_open``) and ``value < high``; otherwise
    ``ConfigError``. NaN fails every comparison."""
    real = type(value) is int or isinstance(value, float)
    if real and (low < value if low_open else low <= value) and value < high:
        return value
    bound = f"{'(' if low_open else '['}{low}, {high})"
    raise ConfigError(f"{name} must be an int or float in {bound}, not {value!r}")
