"""Exception types shared across the package."""


class ContmeasError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(ContmeasError, ValueError):
    """Operands have incompatible matrix dimensions or index sets."""


class NonHermitianInput(ContmeasError, ValueError):
    """A matrix required to be Hermitian exceeds the Hermiticity tolerance."""


class NotPositiveSemidefinite(ContmeasError, ValueError):
    """A matrix required to be PSD has an eigenvalue below the clip tolerance."""


class NumericRangeError(ContmeasError, ArithmeticError):
    """A path probability fell below the smallest normal float, so the
    states along it can no longer be normalized."""


class ModelSyntaxError(ContmeasError, ValueError):
    """Model document is not well-formed (carries line/column when known)."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class ShapeError(ContmeasError, ValueError):
    """Model document is well-formed but structurally invalid."""


class UnknownScenario(ContmeasError, ValueError):
    """Requested built-in scenario name does not exist."""


class InvalidParameters(ContmeasError, ValueError):
    """Generator parameters outside their admissible range."""


class BudgetExceeded(ContmeasError, RuntimeError):
    """Exhaustive enumeration would exceed the leaf budget."""


class GridMiss(ContmeasError, LookupError):
    """A requested time is not tracked on the record/reference grid."""
