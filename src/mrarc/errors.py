"""Exception types raised by the public API."""


class MrarcError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(MrarcError, ValueError):
    """Operands have incompatible shapes."""


class NonFiniteInput(MrarcError, ValueError):
    """An input array holds NaN or Inf."""


class NotSPD(MrarcError, ValueError):
    """Matrix is not symmetric positive definite."""


class ShapeMismatch(MrarcError, ValueError):
    """Argument rank or size does not match the atomic set."""


class NonPositiveGamma(MrarcError, ValueError):
    """Prox step size must be strictly positive."""


class UnsupportedKernel(MrarcError, ValueError):
    """Kernel variant is not admissible for this operation."""


class EmptyInput(MrarcError, ValueError):
    """Operation requires at least one sample."""


class IndexOutOfRange(MrarcError, IndexError):
    """Class index outside the dictionary's label range."""


class InconsistentModalities(MrarcError, ValueError):
    """Per-modality dictionaries disagree on atom count or labels."""


class EmptyQuerySet(MrarcError, ValueError):
    """Image-set classification needs at least one frame."""


class InvalidSpec(MrarcError, ValueError):
    """A data-generation or noise spec fails validation."""


class GeometryMismatch(MrarcError, ValueError):
    """Sample length and declared image shape disagree, or a patch does not fit."""


class ParseError(MrarcError, ValueError):
    """A data file could not be parsed."""

    def __init__(self, message, line=None, offset=None):
        self.line = line
        self.offset = offset
        if line is not None:
            message = f"line {line}: {message}"
        elif offset is not None:
            message = f"byte {offset}: {message}"
        super().__init__(message)


class MagicMismatch(MrarcError, ValueError):
    """Binary file does not start with the expected magic bytes."""


class ConfigError(MrarcError, ValueError):
    """Experiment configuration is missing or malformed."""
