"""Exception types shared across the package."""

__all__ = [
    "CnpError",
    "DomainError",
    "NotHermitianError",
    "NotPsdError",
    "SingularBlockError",
    "IllConditionedError",
    "DegenerateDataError",
    "ProblemFileError",
]


class CnpError(Exception):
    """Base class for every error raised by this package."""


class DomainError(CnpError):
    """Input lies outside the mathematical domain of an operation."""


class NotHermitianError(DomainError):
    """Matrix fails the Hermitian check beyond the residual tolerance."""


class NotPsdError(DomainError):
    """Matrix fails a positive-semidefiniteness precondition."""


class SingularBlockError(CnpError):
    """A designated pivot block is singular or numerically unusable.

    Raised by :func:`~cnpick.feasibility.matrix_ball` when its pivot
    matrix is too ill-conditioned to invert, in place of a silent
    pseudo-inverse.
    """

    def __init__(self, message, cond=None):
        super().__init__(message)
        self.cond = cond


class IllConditionedError(CnpError):
    """A linear operator is too ill-conditioned to solve reliably."""

    def __init__(self, message, cond=None):
        super().__init__(message)
        self.cond = cond


class DegenerateDataError(CnpError):
    """Data on the boundary of the admissible set (unique or no solution)."""


class ProblemFileError(CnpError):
    """Problem or chain file failed to parse or validate.

    ``location`` is the JSON path (or line/column for syntax errors) of the
    offending element.
    """

    def __init__(self, message, location=None):
        if location:
            message = f"{location}: {message}"
        super().__init__(message)
        self.location = location
