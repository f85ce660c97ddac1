"""Instance selection by posterior variance, plus the identities that justify
it: the rank-one determinant shrinkage and the estimator-error sandwich."""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, PoolExhaustedError, _positive
from .model import WeightPosterior, _variances, predictive

__all__ = ["select_instance", "det_shrinkage", "error_contraction_bounds"]


def select_instance(candidates, features, weights: WeightPosterior) -> int:
    """The candidate row of ``features`` with the largest score.

    The score is the predictive variance ``x' cov x`` of :func:`predictive`,
    by its formula: computed against the posterior covariance for every row
    of ``features`` by one matrix product, and read at the candidates.
    ``candidates`` is an integer index array into the rows of ``features``;
    ties go to the lowest index.  A non-finite candidate row raises
    :class:`InvalidInputError`; rows outside ``candidates`` are not checked.
    """
    candidates = np.asarray(candidates)
    if candidates.size == 0:
        raise PoolExhaustedError("candidate pool is empty")
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[1] != weights.dim:
        raise InvalidInputError("feature rows do not match posterior dimension")
    if (candidates.ndim != 1 or candidates.dtype.kind not in "iu"
            or np.minimum.reduce(candidates) < 0
            or np.maximum.reduce(candidates) >= features.shape[0]):
        raise InvalidInputError("candidates must be row indices of features")
    # a non-finite row outside the candidates must not warn
    with np.errstate(invalid="ignore", over="ignore"):
        scores = _variances(features, weights.covariance)[candidates]
    # a non-finite score means a non-finite row, or a finite one overflowing
    if not (np.logical_and.reduce(np.isfinite(scores))
            or np.logical_and.reduce(np.isfinite(features[candidates]),
                                     axis=None)):
        raise InvalidInputError("candidate rows must be finite")
    scores = np.maximum(scores, 0.0)
    return int(np.minimum.reduce(
        candidates[scores == np.maximum.reduce(scores)]))


def det_shrinkage(weights: WeightPosterior, x, beta: float) -> float:
    """Covariance-determinant ratio after one more label on ``x``.

    Adding a label with precision ``beta`` turns the posterior precision P
    into P + beta x x', so by the matrix determinant lemma
    det(new covariance) / det(old covariance) = 1 / (1 + beta x' P^-1 x),
    a value in (0, 1].
    """
    beta = _positive(beta, "beta")
    return 1.0 / (1.0 + beta * predictive(x, weights)[1])


def error_contraction_bounds(weights: WeightPosterior, x,
                             beta: float) -> tuple[float, float]:
    """Multiplicative bounds on the estimator error after one more label.

    The expected new error norm sits between ``lower * old`` and ``old``,
    where lower is the same rank-one factor as :func:`det_shrinkage`.
    """
    return det_shrinkage(weights, x, beta), 1.0
