"""Exception types shared across the package, each carrying its CLI exit code.

``exit_code`` is what ``marginfit`` exits with when the error reaches the
CLI: 2 for format, config and data problems (the default), 3 for invariant
violations, 4 for training divergence.
"""


class MarginfitError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class ZeroNorm(MarginfitError):
    """A vector that must be normalized has (numerically) zero or non-finite norm.

    ``row``, when given, is the vector's row in the array being normalized.
    """

    exit_code = 3

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class DimMismatch(MarginfitError):
    """Operands have incompatible shapes."""


class InvalidLabel(MarginfitError):
    """A label index is outside [0, C)."""


class UnknownClass(MarginfitError):
    """A class id is not present in the margin matrix."""

    exit_code = 3


class FormatError(MarginfitError):
    """A binary container is malformed (bad magic, truncation, size lie)."""


class NonFiniteData(MarginfitError):
    """Data contains NaN or Inf where finite values are required."""


class LabelOutOfRange(MarginfitError):
    """A stored label index is >= the declared class count."""


class InvariantViolation(MarginfitError):
    """Loaded or constructed data violates a documented invariant."""

    exit_code = 3


class DegenerateRange(MarginfitError):
    """Min-max normalization requested but all distances are equal."""

    exit_code = 3


class ConfigError(MarginfitError):
    """A configuration value or combination is invalid."""


class DivergenceError(MarginfitError):
    """Training produced a non-finite loss."""

    exit_code = 4


class EmptyGallery(MarginfitError):
    """Retrieval evaluation requires a non-empty gallery."""
