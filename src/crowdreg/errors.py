"""Exception types shared across the package, and the argument checks that
every public function runs on its scalar and array arguments.

A Python or numpy integer counts as an integer, and a Python or numpy integer
or float as a number; a bool is neither.  Each check returns the argument in
its checked form or raises :class:`InvalidInputError` naming the argument.
"""

import math
from numbers import Integral, Real

import numpy as np

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


def _is_int(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


def _integer(value, name: str, low: int, high: int | None = None) -> int:
    """``value`` as an ``int`` in ``[low, high]`` (``high`` None: no upper
    limit); a float or a bool is rejected, not truncated."""
    if not (_is_int(value) and low <= value
            and (high is None or value <= high)):
        limits = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise InvalidInputError(
            f"{name} must be an integer {limits}, got {value!r}")
    return int(value)


def _seed(value):
    """``value``, the argument ``seed``, as a generator seed: an integer >= 0
    as an ``int``, or a list, tuple or 1-d array of them as a list of
    ``int``.  ``None``, which would seed from the operating system, is
    rejected, so a seeded result is always reproducible."""
    if _is_int(value) and value >= 0:
        return int(value)
    words = value
    if isinstance(words, np.ndarray) and words.ndim == 1:
        words = words.tolist()
    if (isinstance(words, (list, tuple))
            and all(_is_int(v) and v >= 0 for v in words)):
        return [int(v) for v in words]
    raise InvalidInputError(f"seed must be an integer >= 0 or a sequence of "
                            f"them, got {value!r}")


def _positive(value, name: str) -> float:
    """``value`` as a ``float``, finite and > 0."""
    if not (_is_real(value) and 0 < value < math.inf):
        raise InvalidInputError(
            f"{name} must be a finite number > 0, got {value!r}")
    return float(value)


def _float_array(value, name: str) -> np.ndarray:
    """``value`` as a float array of any shape; a float array is returned as
    it is, not copied."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise InvalidInputError(
            f"{name} must be a number or an array of numbers") from None


def _finite_array(value, name: str, ndim: int) -> np.ndarray:
    """``value`` as a float array with ``ndim`` (1 or 2) dimensions and only
    finite entries; a float array is returned as it is, not copied."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.ndim != ndim or not np.isfinite(arr).all():
        raise InvalidInputError(
            f"{name} must be a finite {('vector', 'matrix')[ndim - 1]}")
    return arr
