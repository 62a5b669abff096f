"""Exception hierarchy.

The CLI maps these onto exit codes: usage/contract problems exit 1, data
problems exit 2.
"""

__all__ = ["ExuberanceError", "DataError", "DegenerateFitError"]


class ExuberanceError(Exception):
    """Base class for all package-specific errors."""


class DataError(ExuberanceError, ValueError):
    """Raised when input data (files, series, tables) are unusable."""


class DegenerateFitError(ExuberanceError):
    """Raised when a regression window cannot support the requested fit.

    Typical causes: rank-deficient design (constant window), zero residual
    degrees of freedom, all-zero sign increments.
    """
