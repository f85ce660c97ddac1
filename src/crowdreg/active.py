"""Instance selection by posterior variance, plus the identities that justify
it: the rank-one determinant shrinkage and the estimator-error sandwich."""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, PoolExhaustedError
from .model import WeightPosterior

__all__ = [
    "instance_score",
    "select_instance",
    "det_shrinkage",
    "error_contraction_bounds",
]


def instance_score(x, weights: WeightPosterior) -> float:
    """Predictive-variance score ``x' precision^-1 x`` (nonnegative)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != weights.dim:
        raise InvalidInputError(
            f"candidate must be a vector of dimension {weights.dim}"
        )
    return weights.quadform(x)


def select_instance(candidates, features, weights: WeightPosterior) -> int:
    """The candidate row of ``features`` with the largest score.

    ``candidates`` is an integer index array into the rows of ``features``;
    ties go to the lowest index.
    """
    candidates = np.asarray(candidates)
    if candidates.size == 0:
        raise PoolExhaustedError("candidate pool is empty")
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[1] != weights.dim:
        raise InvalidInputError("feature rows do not match posterior dimension")
    if (candidates.ndim != 1 or candidates.dtype.kind not in "iu"
            or candidates.min() < 0 or candidates.max() >= features.shape[0]):
        raise InvalidInputError("candidates must be row indices of features")
    scores = weights.quadform(features[candidates])
    return int(candidates[scores == scores.max()].min())


def det_shrinkage(weights: WeightPosterior, x, beta: float) -> float:
    """Covariance-determinant ratio after one more label on ``x``.

    Adding a label with precision ``beta`` turns the posterior precision P
    into P + beta x x', so by the matrix determinant lemma
    det(new covariance) / det(old covariance) = 1 / (1 + beta x' P^-1 x),
    a value in (0, 1].
    """
    if not beta > 0:
        raise InvalidInputError("beta must be positive")
    return 1.0 / (1.0 + beta * instance_score(x, weights))


def error_contraction_bounds(weights: WeightPosterior, x,
                             beta: float) -> tuple[float, float]:
    """Multiplicative bounds on the estimator error after one more label.

    The expected new error norm sits between ``lower * old`` and ``old``,
    where lower is the same rank-one factor as :func:`det_shrinkage`.
    """
    return det_shrinkage(weights, x, beta), 1.0
