"""Dataset preprocessing: feature normalization and a sigmoid distance
transform whose reference points come from k-means."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, _finite_array, _integer, _positive

__all__ = [
    "TransformSpec",
    "Normalization",
    "fit_centers",
    "transform",
    "normalize",
    "apply_normalization",
]


@dataclass(frozen=True, eq=False)
class TransformSpec:
    """Parameters of the sigmoid distance transform.

    A vector x maps to one output per reference point R_b:
    1 / (1 + exp(-||x - R_b|| / s)).  Since the distance is nonnegative,
    every output lies in [0.5, 1).
    """

    centers: np.ndarray
    scale: float

    def __post_init__(self):
        object.__setattr__(self, "scale", _positive(self.scale, "scale"))
        centers = _finite_array(self.centers, "centers", 2)
        if centers.shape[0] < 1:
            raise InvalidInputError("centers must hold a reference point")
        object.__setattr__(self, "centers", centers)


def _squared_distances(X, centers):
    # scipy.spatial is a slow import that only sigmoid runs need
    from scipy.spatial.distance import cdist

    return cdist(X, centers, metric="sqeuclidean")


def _resolve_empty(X, assign, k):
    """Give every empty cluster the farthest point of the largest cluster.

    Returns the repaired assignment and its cluster sizes.
    """
    counts = np.bincount(assign, minlength=k)
    while np.any(counts == 0):
        empty = int(np.flatnonzero(counts == 0)[0])
        donor = int(np.argmax(counts))
        members = np.flatnonzero(assign == donor)
        center = X[members].mean(axis=0)
        far = members[np.argmax(((X[members] - center) ** 2).sum(axis=1))]
        assign[far] = empty
        counts[empty] += 1
        counts[donor] -= 1
    return assign, counts


def _lloyd(X, centers, max_iter=100):
    """Run Lloyd iterations from the given centers; returns the final centers.

    Each centroid step sums the clusters column by column with ``bincount``,
    adding rows in order from 0.0 as the masked mean ``X[mask].mean(axis=0)``
    does for two or more columns, so the centers match it to the bit.
    """
    k, d = centers.shape
    columns = np.ascontiguousarray(X.T)  # bincount reads contiguous weights
    assign = None
    for _ in range(max_iter):
        new_assign, counts = _resolve_empty(
            X, np.argmin(_squared_distances(X, centers), axis=1), k)
        if d == 1:  # a one-column masked mean sums pairwise, not row by row
            centers = np.vstack([X[new_assign == c].mean(axis=0)
                                 for c in range(k)])
        else:
            sums = [np.bincount(new_assign, weights=column, minlength=k)
                    for column in columns]
            centers = np.column_stack(sums) / counts[:, None]
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return centers


def fit_centers(X, k: int, seed) -> np.ndarray:
    """K-means reference points via Lloyd's algorithm.

    Initialization samples ``k`` distinct points uniformly with the seeded
    generator, so the result is deterministic given the seed.  Iterates to an
    assignment fixed point or 100 iterations.
    """
    X = _finite_array(X, "X", 2)
    if X.shape[0] < 1:
        raise InvalidInputError("X must hold a row")
    distinct = np.unique(X, axis=0)
    # at most one cluster per distinct point
    k = _integer(k, "k", 1, distinct.shape[0])
    rng = np.random.default_rng(seed)
    init = distinct[rng.choice(distinct.shape[0], size=k, replace=False)]
    return _lloyd(X, init)


def transform(x, spec: TransformSpec) -> np.ndarray:
    """Apply the sigmoid transform to one vector or row-wise to a matrix."""
    single = np.ndim(x) == 1
    rows = _finite_array(np.atleast_2d(x) if single else x, "x", 2)
    if rows.shape[1] != spec.centers.shape[1]:
        raise InvalidInputError(f"x has dimension {rows.shape[1]}, the "
                                f"reference points {spec.centers.shape[1]}")
    dist = np.sqrt(_squared_distances(rows, spec.centers))
    out = 1.0 / (1.0 + np.exp(-dist / spec.scale))
    return out[0] if single else out


class Normalization(NamedTuple):
    """Per-feature affine parameters fitted on training data."""

    mean: np.ndarray
    scale: np.ndarray


def apply_normalization(X, params: Normalization) -> np.ndarray:
    """Shift and scale with stored parameters; zero-variance features map to 0."""
    X = _finite_array(X, "X", 2)
    out = X - params.mean
    nonzero = params.scale > 0
    out[:, nonzero] /= params.scale[nonzero]
    out[:, ~nonzero] = 0.0
    return out


def normalize(X) -> tuple[np.ndarray, Normalization]:
    """Zero-mean, unit-standard-deviation features (population convention).

    Returns the normalized matrix and the affine parameters so that test data
    can be mapped through the identical transformation.
    """
    X = _finite_array(X, "X", 2)
    if X.size == 0:
        raise InvalidInputError("X must hold a value")
    params = Normalization(X.mean(axis=0), X.std(axis=0))
    return apply_normalization(X, params), params
