"""Dataset preprocessing: feature normalization and a sigmoid distance
transform whose reference points come from k-means."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (InvalidInputError, _finite_array, _integer, _positive,
                     _seed)

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


_EPS = np.finfo(float).eps
_TINY = np.finfo(float).smallest_subnormal
_QUARTER_MAX = np.finfo(float).max / 4


def _nearest(X, centers, norms, out):
    """Index of each row's nearest center, ties to the lowest index.

    Returns exactly ``np.argmin(_squared_distances(X, centers), axis=1)``,
    from one GEMM and ``cdist`` over only the rows the GEMM cannot certify.
    ``norms`` holds the rows' squared norms and ``out`` is a k × n float
    buffer that the call overwrites, so that ``_lloyd`` computes the one and
    allocates the other once for all its iterations.

    The GEMM gives G[k, i] = |c_k|² − 2 x_i·c_k, which is cdist's value D
    minus |x_i|², a constant per row.  Row i is certified when its runner-up
    G exceeds its best by more than 2τ_i, where τ_i bounds |Ĝ − (D̂ − |x_i|²)|
    over every center: the best is then cdist's unique argmin.  With u = ε/2,
    γ_m = m·u / (1 − m·u) and s = |x_i|² + maxₖ |c_k|², one factor at a time:

    - cdist: each term (x_j − c_j)² carries three rounding factors and the
      sum of d nonnegative terms d − 1 more, in any order, so
      |D̂ − D| ≤ γ_{d+2}·D, and D ≤ 2(|x|² + |c|²) ≤ 2s;
    - the product −2c·x has d terms of total size 2Σ|c_j x_j| ≤ s, so it is
      off by γ_d·s; the computed |c|² is off by γ_d·|c|² ≤ γ_d·s; adding the
      two rounds once more, on a sum of size at most 2s: |Ĝ − G| ≤ 2γ_{d+1}·s;
    - together at most 4γ_{d+2}·s ≤ 2(d + 3)·ε·s (for d < 2^25).  τ takes
      16(d + 3)·ε·s, which leaves a factor of 8 for the rounding of the
      norms, of s, of τ and of the margin itself.

    Gradual underflow adds at most 2^−1075 to each of the 3d products above
    and nothing to a sum, hence the absolute term 16(d + 3)·2^−1074 in τ.  A
    row with s above a quarter of the largest float, where a partial sum
    could overflow, is not certified, and neither is a row whose margin is
    NaN or a tie (margin 0).
    """
    n, d = X.shape
    cc = np.einsum("ij,ij->i", centers, centers)
    # an inf or NaN below only leaves its row uncertified
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.matmul(-2.0 * centers, X.T, out=out)
        g += cc[:, None]
        best = g.min(axis=0)
        nearest = np.zeros(n, dtype=np.intp)  # lowest index at the best value
        for c in range(centers.shape[0] - 1, 0, -1):
            np.putmask(nearest, g[c] == best, c)
        g[nearest, np.arange(n)] = np.inf
        s = norms + cc.max()
        tau = 16 * (d + 3) * (_EPS * s + _TINY)
        certified = (g.min(axis=0) - best > 2 * tau) & (s <= _QUARTER_MAX)
    rows = np.flatnonzero(~certified)
    if rows.size:
        nearest[rows] = np.argmin(_squared_distances(X[rows], centers),
                                  axis=1)
    return nearest


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

    Each assignment step is ``_nearest``: one GEMM into a k × n buffer
    allocated once per call, with ``cdist`` only for the rows its rounding
    certificate cannot decide, so it is cdist's argmin on every BLAS kernel.
    Each centroid step sums the clusters column by column with ``bincount``,
    adding rows in order from 0.0 as the masked mean ``X[mask].mean(axis=0)``
    does for two or more columns, so the centers match it to the bit.
    """
    k, d = centers.shape
    columns = np.ascontiguousarray(X.T)  # bincount reads contiguous weights
    norms = np.einsum("ij,ij->i", X, X)
    buffer = np.empty((k, X.shape[0]))
    assign = None
    for _ in range(max_iter):
        new_assign, counts = _resolve_empty(
            X, _nearest(X, centers, norms, buffer), k)
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
    assignment fixed point or 100 iterations.  Each row goes to the center
    nearest by ``cdist``'s squared distance (ties to the lowest index),
    whatever the BLAS kernel; see ``_lloyd``.
    """
    X = _finite_array(X, "X", 2)
    seed = _seed(seed)
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
