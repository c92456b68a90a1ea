"""Exception types shared across the package."""

__all__ = [
    "CnpError",
    "DomainError",
    "NotHermitianError",
    "NotPsdError",
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


class IllConditionedError(CnpError):
    """A linear operator is too ill-conditioned to solve reliably: the node part
    of :func:`~cnpick.pick.assemble_bundle` or the pivot matrix of
    :func:`~cnpick.feasibility.matrix_ball`.  ``cond`` measures it when known."""

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
