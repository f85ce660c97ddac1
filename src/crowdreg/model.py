"""Bayesian linear regression from multiple noisy annotators.

Each annotator corrupts the true response ``w @ x`` with zero-mean Gaussian
noise whose precision (inverse variance) reflects the effort spent.  A
Gaussian prior on the weight vector and an independent Gamma prior on every
annotator precision give the mean-field approximation

    q(w) = Normal(mean, precision^-1),   q(beta_j) = Gamma(shape_j, rate_j).

The weight update needs the expected annotator precisions and the precision
updates need the weight moments, so :func:`fit_variational` alternates the two
coordinate updates until no parameter moves more than a tolerance.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .errors import InvalidInputError, NumericalFailureError

__all__ = [
    "CrowdDataset",
    "WeightPosterior",
    "PrecisionPosterior",
    "FitReport",
    "default_weight_prior",
    "default_precision_priors",
    "vi_update_weights",
    "vi_update_precision",
    "fit_variational",
    "expected_precision",
    "predictive",
]

# Relative tolerance for the symmetry check on precision matrices.
_SYMMETRY_RTOL = 1e-10


def _frozen_array(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


def _check_label(i, j, y, n: int, m: int) -> float:
    if not (0 <= i < n and 0 <= j < m and math.isfinite(y)):
        raise InvalidInputError(f"label ({i}, {j}) = {y!r}: key out of range "
                                f"or label not finite")
    return float(y)


def _accumulate(stats, j, rows, ys) -> None:
    """Add the labels ``ys`` on ``rows`` to annotator ``j``'s statistics."""
    gram = (rows.T @ rows).ravel()
    for a, term in zip(stats, (gram, rows.T @ ys, ys @ ys, len(ys))):
        a[j] += term


@dataclass(frozen=True)
class CrowdDataset:
    """Feature matrix plus a sparse map of per-annotator labels.

    Construction validates every label.  :meth:`with_label` validates only
    the new one and adds it to a copy of the per-annotator sufficient
    statistics as one rank-one update: O(d^2) arithmetic per label.

    Parameters
    ----------
    instances : (n, d) array
        One row per data instance.
    labels : mapping
        ``(instance index, annotator index) -> label``.  An annotator may
        label any subset of the instances; instances may stay unlabeled.
    num_annotators : int
        Total number of annotators, including ones with no labels yet.
    """

    instances: np.ndarray
    labels: Mapping[tuple[int, int], float]
    num_annotators: int

    def __post_init__(self):
        inst = np.asarray(self.instances, dtype=float)
        if inst.ndim != 2 or inst.shape[1] < 1:
            raise InvalidInputError(
                f"instances must be a 2-D array with at least one feature, "
                f"got shape {inst.shape}"
            )
        if not np.all(np.isfinite(inst)):
            raise InvalidInputError("instances contain non-finite values")
        if self.num_annotators < 1:
            raise InvalidInputError("num_annotators must be at least 1")
        object.__setattr__(self, "instances", _frozen_array(inst))
        object.__setattr__(self, "labels", dict(self.labels))
        for (i, j), y in self.labels.items():
            _check_label(i, j, y, inst.shape[0], self.num_annotators)

    @property
    def n(self) -> int:
        return self.instances.shape[0]

    @property
    def d(self) -> int:
        return self.instances.shape[1]

    @property
    def total_labels(self) -> int:
        return len(self.labels)

    @property
    def label_counts(self) -> np.ndarray:
        """Number of labels provided by each annotator (read-only)."""
        counts = self._suffstats[3].view()
        counts.setflags(write=False)
        return counts

    @cached_property
    def _suffstats(self):
        """Per-annotator (X_j' X_j raveled, X_j' y_j, y_j' y_j, n_j), stacked."""
        m, d = self.num_annotators, self.d
        stats = (np.zeros((m, d * d)), np.zeros((m, d)), np.zeros(m),
                 np.zeros(m, dtype=int))
        grouped: dict[int, list[tuple[int, float]]] = defaultdict(list)
        for (i, j), y in self.labels.items():
            grouped[j].append((i, y))
        for j, pairs in grouped.items():
            idx = np.fromiter((i for i, _ in pairs), dtype=int, count=len(pairs))
            yv = np.fromiter((y for _, y in pairs), dtype=float, count=len(pairs))
            _accumulate(stats, j, self.instances[idx], yv)
        return stats

    def with_label(self, i: int, j: int, y: float) -> "CrowdDataset":
        """A new dataset with one extra label; the original is untouched."""
        if (i, j) in self.labels:
            raise InvalidInputError(f"label for ({i}, {j}) already present")
        y = _check_label(i, j, y, self.n, self.num_annotators)
        stats = tuple(a.copy() for a in self._suffstats)
        _accumulate(stats, j, self.instances[i:i + 1], np.array([y]))
        # Every other field is already validated: skip __post_init__.
        child = object.__new__(CrowdDataset)
        child.__dict__.update(instances=self.instances, _suffstats=stats,
                              labels={**self.labels, (i, j): y},
                              num_annotators=self.num_annotators)
        return child


@dataclass(frozen=True, eq=False)
class WeightPosterior:
    """Gaussian factor over the weight vector: ``Normal(mean, precision^-1)``.

    The precision matrix must be symmetric (to 1e-10 relative) and positive
    definite; construction fails otherwise.  The Cholesky factor is computed
    once and cached, so repeated solves against the same posterior are cheap.
    """

    mean: np.ndarray
    precision: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        prec = np.asarray(self.precision, dtype=float)
        if mean.ndim != 1:
            raise InvalidInputError("mean must be a 1-D vector")
        d = mean.shape[0]
        if prec.shape != (d, d):
            raise InvalidInputError(
                f"precision shape {prec.shape} does not match mean dimension {d}"
            )
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(prec))):
            raise InvalidInputError("posterior parameters must be finite")
        asym = np.abs(prec - prec.T).max()
        scale = max(np.abs(prec).max(), 1e-300)
        if asym > _SYMMETRY_RTOL * scale:
            raise InvalidInputError("precision matrix is not symmetric")
        object.__setattr__(self, "mean", _frozen_array(mean))
        object.__setattr__(self, "precision", _frozen_array(prec))
        try:
            self._chol
        except LinAlgError:
            raise NumericalFailureError(
                "precision matrix is not positive definite"
            ) from None

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @cached_property
    def _chol(self):
        return cho_factor(self.precision, lower=True)

    @cached_property
    def covariance(self) -> np.ndarray:
        cov = cho_solve(self._chol, np.eye(self.dim))
        return _frozen_array(0.5 * (cov + cov.T))

    def quadform(self, x: np.ndarray):
        """``x' precision^-1 x`` for a vector, or row-wise for a matrix."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise InvalidInputError(
                f"vector dimension {x.shape[-1]} does not match posterior "
                f"dimension {self.dim}"
            )
        if x.ndim == 1:
            return float(max(x @ cho_solve(self._chol, x), 0.0))
        if x.ndim == 2:
            sols = cho_solve(self._chol, x.T)
            return np.maximum(np.einsum("ij,ji->i", x, sols), 0.0)
        raise InvalidInputError("quadform expects a vector or a matrix of rows")


@dataclass(frozen=True)
class PrecisionPosterior:
    """Gamma factor over one annotator precision: ``Gamma(shape, rate)``."""

    shape: float
    rate: float

    def __post_init__(self):
        if not (np.isfinite(self.shape) and self.shape > 0):
            raise InvalidInputError(f"shape must be positive, got {self.shape}")
        if not (np.isfinite(self.rate) and self.rate > 0):
            raise InvalidInputError(f"rate must be positive, got {self.rate}")
        object.__setattr__(self, "shape", float(self.shape))
        object.__setattr__(self, "rate", float(self.rate))


@dataclass(frozen=True)
class FitReport:
    """Outcome of one variational fit."""

    iterations: int
    converged: bool
    final_delta: float


def default_weight_prior(d: int) -> WeightPosterior:
    """Zero mean, identity precision."""
    return WeightPosterior(np.zeros(d), np.eye(d))


def default_precision_priors(m: int) -> list[PrecisionPosterior]:
    """Gamma(1, 1) for every annotator."""
    return [PrecisionPosterior(1.0, 1.0) for _ in range(m)]


def expected_precision(posterior: PrecisionPosterior) -> float:
    """Posterior mean of an annotator precision: shape / rate."""
    return posterior.shape / posterior.rate


def _weight_step(stats, e, prior, prior_shift):
    """(mean, precision, covariance) of q(w) given the expected annotator
    precisions ``e``, or the prior's own arrays when no label carries weight.
    With :func:`_rate_step` it makes one sweep; neither validates its input.
    """
    grams, xty, _, counts = stats
    if not counts @ e > 0:  # e >= 0: no labeled annotator has weight
        return prior.mean, prior.precision, prior.covariance
    prec = prior.precision + (e @ grams).reshape(prior.dim, prior.dim)
    prec = 0.5 * (prec + prec.T)
    try:
        factor = cho_factor(prec, lower=True)
    except LinAlgError:
        raise NumericalFailureError(
            "weight update produced a non positive definite precision"
        ) from None
    # One solve gives the mean (first column) and the covariance.
    sol = cho_solve(factor, np.column_stack([prior_shift + e @ xty,
                                             np.eye(prior.dim)]),
                    check_finite=False)
    return sol[:, 0], prec, 0.5 * (sol[:, 1:] + sol[:, 1:].T)


def _rate_step(stats, mean, cov, prior_rates, paper_literal):
    """Gamma rates given the weight moments.

    ``grams @ vec(cov + mean mean')`` is each annotator's summed E[(x'w)^2].
    ``paper_literal`` gives the label-mean cross term the printed update's
    factor of one; the default factor of two is the mean-field expectation of
    the Gaussian likelihood, the form that passes the single-source check.
    """
    grams, xty, ysq, _ = stats
    second = grams @ (cov + np.outer(mean, mean)).ravel()
    cross = (1.0 if paper_literal else 2.0) * (xty @ mean)
    rates = prior_rates + 0.5 * (ysq - cross + second)
    # Unlabeled annotators keep their prior rate (> 0); NaN fails too.
    if not (0 < rates.min() and rates.max() < np.inf):
        raise NumericalFailureError(
            "precision update produced a non-positive rate; the weight "
            "posterior has likely diverged")
    return rates


def vi_update_weights(
    dataset: CrowdDataset,
    expected_betas: Sequence[float],
    prior: WeightPosterior,
) -> WeightPosterior:
    """Weight-factor update given expected annotator precisions.

    The posterior precision adds ``E[beta_j] x x'`` for every label of every
    annotator to the prior precision; the posterior mean solves the matching
    normal equations.  With no labels (or all expectations zero) the prior is
    returned unchanged.
    """
    e = np.asarray(expected_betas, dtype=float)
    m = dataset.num_annotators
    if e.shape != (m,) or not np.all(np.isfinite(e)) or np.any(e < 0):
        raise InvalidInputError(
            f"expected_betas must be {m} finite values >= 0, got {e!r}")
    if dataset.d != prior.dim:
        raise InvalidInputError("dataset and weight posterior dimensions differ")
    mean, prec, _ = _weight_step(dataset._suffstats, e, prior,
                                 prior.precision @ prior.mean)
    return prior if prec is prior.precision else WeightPosterior(mean, prec)


def vi_update_precision(
    dataset: CrowdDataset,
    weights: WeightPosterior,
    prior: PrecisionPosterior,
    j: int,
    paper_literal_gamma_update: bool = False,
) -> PrecisionPosterior:
    """Gamma-factor update for annotator ``j`` given the weight posterior.

    Shape grows by half the annotator's label count; the rate adds half the
    expected squared residual of those labels under ``q(w)``.  An annotator
    with no labels keeps the prior exactly.
    """
    if not 0 <= j < dataset.num_annotators:
        raise InvalidInputError(f"annotator index {j} out of range")
    if dataset.d != weights.dim:
        raise InvalidInputError("dataset and weight posterior dimensions differ")
    count = dataset.label_counts[j]
    if count == 0:
        return prior
    rate, = _rate_step(tuple(a[j:j + 1] for a in dataset._suffstats),
                       weights.mean, weights.covariance,
                       np.array([prior.rate]), paper_literal_gamma_update)
    return PrecisionPosterior(prior.shape + count / 2.0, rate)


def fit_variational(
    dataset: CrowdDataset,
    weight_prior: WeightPosterior,
    precision_priors: Sequence[PrecisionPosterior],
    tolerance: float = 1e-6,
    max_sweeps: int = 200,
    warm_start: tuple[WeightPosterior, Sequence[PrecisionPosterior]] | None = None,
    paper_literal_gamma_update: bool = False,
) -> tuple[WeightPosterior, list[PrecisionPosterior], FitReport]:
    """Alternate the weight and precision updates until they stop moving.

    Convergence is declared when the largest absolute change across the weight
    mean, weight precision and all Gamma parameters in one sweep falls below
    ``tolerance``.  Hitting ``max_sweeps`` first is not an error; the report
    records which happened.  ``warm_start`` seeds the sweep with posteriors
    from a previous fit, which makes incremental refits cheap.

    The priors and the warm start are validated once, on entry.  Each sweep
    works on the dataset's stacked sufficient statistics and factors the
    weight precision once; the posterior objects are built at the end.
    """
    m = dataset.num_annotators
    if not tolerance > 0:
        raise InvalidInputError("tolerance must be positive")
    if max_sweeps < 1:
        raise InvalidInputError("max_sweeps must be at least 1")
    start, start_precisions = warm_start or (weight_prior, precision_priors)
    for weights, precisions in ((weight_prior, precision_priors),
                                (start, start_precisions)):
        if weights.dim != dataset.d or len(precisions) != m:
            raise InvalidInputError(
                f"need dimension {dataset.d} and {m} precision factors, got "
                f"{weights.dim} and {len(precisions)}")

    stats = dataset._suffstats
    prior_shift = weight_prior.precision @ weight_prior.mean
    prior_shapes, prior_rates = np.array(
        [(p.shape, p.rate) for p in precision_priors]).T
    post_shapes = prior_shapes + dataset.label_counts / 2.0
    mean, prec = start.mean, start.precision
    shapes, rates = np.array([(p.shape, p.rate) for p in start_precisions]).T

    for sweeps in range(1, max_sweeps + 1):
        new_mean, new_prec, cov = _weight_step(
            stats, shapes / rates, weight_prior, prior_shift)
        new_rates = _rate_step(stats, new_mean, cov, prior_rates,
                               paper_literal_gamma_update)
        delta = float(max(
            np.abs(new_mean - mean).max(), np.abs(new_prec - prec).max(),
            np.abs(post_shapes - shapes).max(), np.abs(new_rates - rates).max()))
        mean, prec, shapes, rates = new_mean, new_prec, post_shapes, new_rates
        if delta < tolerance:
            break

    weights = WeightPosterior(mean, prec) if dataset.total_labels else weight_prior
    precisions = [PrecisionPosterior(s, r) for s, r in zip(shapes, rates)]
    return weights, precisions, FitReport(sweeps, delta < tolerance, delta)


def predictive(x: np.ndarray, weights: WeightPosterior) -> tuple[float, float]:
    """Posterior predictive mean and variance for a test point.

    The label of ``x`` is Gaussian with mean ``x @ posterior mean`` and
    variance ``x' precision^-1 x`` (zero only for ``x = 0``).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != weights.dim:
        raise InvalidInputError(
            f"test point must be a vector of dimension {weights.dim}"
        )
    return float(x @ weights.mean), weights.quadform(x)
