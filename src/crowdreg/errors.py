"""Exception types shared across the package."""

__all__ = [
    "CrowdError",
    "InvalidInputError",
    "NumericalFailureError",
    "PoolExhaustedError",
    "DataFormatError",
]


class CrowdError(Exception):
    """Base class for every package-specific error."""


class InvalidInputError(CrowdError, ValueError):
    """An argument violates a documented precondition."""


class NumericalFailureError(CrowdError, ArithmeticError):
    """A numerical routine produced an unusable result (divergence, loss of
    positive definiteness, non-positive Gamma rate)."""


class PoolExhaustedError(CrowdError, RuntimeError):
    """No candidates remain to select from."""


class DataFormatError(CrowdError, ValueError):
    """A data file could not be parsed; the message names the offending cell."""
