"""Exception hierarchy shared by all stegolm modules.

Every error the toolkit raises on purpose derives from StegolmError so the
CLI can report a single machine-parsable line (``error: <ClassName>: <msg>``)
and exit nonzero.
"""


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
