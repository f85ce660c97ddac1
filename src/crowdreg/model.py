"""Bayesian linear regression from multiple noisy annotators.

Each annotator corrupts the true response ``w @ x`` with zero-mean Gaussian
noise whose precision (inverse variance) reflects the effort spent.  A
Gaussian prior on the weight vector and an independent Gamma prior on every
annotator precision give the mean-field approximation

    q(w) = Normal(mean, precision^-1),   q(beta_j) = Gamma(shape_j, rate_j).

The weight update needs the expected annotator precisions and the precision
updates need the weight moments, so :func:`fit_variational` iterates the two
coordinate updates, accelerated by SQUAREM on the Gamma rates, until no rate
moves more than a relative tolerance.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

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


def _cholesky(prec: np.ndarray, failure: str) -> np.ndarray:
    """Lower Cholesky factor of ``prec`` from LAPACK's ``dpotrf``, with the
    upper triangle left as it was.  A non-finite or not positive definite
    ``prec`` raises :class:`NumericalFailureError` with the message
    ``failure``.
    """
    if np.isfinite(prec).all():
        factor, info = dpotrf(prec, lower=1, clean=0)
        if info == 0:
            return factor
    raise NumericalFailureError(failure)


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
    definite; construction fails otherwise.  Construction also computes the
    Cholesky factor (LAPACK ``dpotrf``), against which :attr:`covariance` and
    :meth:`quadform` solve with ``dpotrs``.
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
        object.__setattr__(self, "_factor", _cholesky(
            self.precision, "precision matrix is not positive definite"))

    @classmethod
    def _from_sweep(cls, mean, precision, factor, covariance):
        """A posterior from one weight step's arrays, which are consistent by
        construction: no checks, no second factorization."""
        post = object.__new__(cls)
        for a in (mean, precision, covariance):
            a.setflags(write=False)
        post.__dict__.update(mean=mean, precision=precision, _factor=factor,
                             covariance=covariance)
        return post

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @cached_property
    def covariance(self) -> np.ndarray:
        cov, _ = dpotrs(self._factor, np.eye(self.dim), lower=1)
        return _frozen_array(0.5 * (cov + cov.T))

    def quadform(self, x: np.ndarray) -> float:
        """``x' precision^-1 x`` for one vector."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise InvalidInputError("quadform expects a vector")
        if x.shape[0] != self.dim:
            raise InvalidInputError(
                f"vector dimension {x.shape[0]} does not match posterior "
                f"dimension {self.dim}"
            )
        if not np.isfinite(x).all():
            raise InvalidInputError("quadform input must be finite")
        sol, _ = dpotrs(self._factor, x, lower=1)
        return float(max(x @ sol, 0.0))


@dataclass(frozen=True, eq=False)
class PrecisionPosterior:
    """Gamma factors over the annotator precisions, ``q(beta_j) =
    Gamma(shape[j], rate[j])``: two equally long read-only vectors, validated
    once on construction."""

    shape: np.ndarray
    rate: np.ndarray

    def __post_init__(self):
        shape, rate = _frozen_array(self.shape), _frozen_array(self.rate)
        if not (shape.ndim == 1 and rate.shape == shape.shape and np.all(
                (0 < shape) & (shape < np.inf) & (0 < rate) & (rate < np.inf))):
            raise InvalidInputError(
                f"shape and rate must be equally long vectors of finite "
                f"values > 0, got {shape} and {rate}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "rate", rate)


@dataclass(frozen=True)
class FitReport:
    """Outcome of one variational fit.

    ``iterations`` counts sweeps, that is evaluations of the rate map, the
    SQUAREM stabilising sweeps included.  ``final_delta`` is the last kept
    sweep's largest relative rate change, ``max |F(r) - r| / F(r)``, and
    ``converged`` says whether it fell below the tolerance.
    """

    iterations: int
    converged: bool
    final_delta: float


def default_weight_prior(d: int) -> WeightPosterior:
    """Zero mean, identity precision."""
    return WeightPosterior(np.zeros(d), np.eye(d))


def default_precision_priors(m: int) -> PrecisionPosterior:
    """Gamma(1, 1) for every one of ``m`` annotators."""
    return PrecisionPosterior(np.ones(m), np.ones(m))


def expected_precision(posterior: PrecisionPosterior) -> np.ndarray:
    """Posterior mean of every annotator precision: shape / rate."""
    return posterior.shape / posterior.rate


def _weight_rhs(prior: WeightPosterior) -> np.ndarray:
    """``[P0 mu0 | I]``, Fortran-ordered: the right-hand side of every weight
    step under ``prior`` before the labels' term joins the first column."""
    rhs = np.empty((prior.dim, prior.dim + 1), order="F")
    rhs[:, 0] = prior.precision @ prior.mean
    rhs[:, 1:] = np.eye(prior.dim)
    return rhs


def _weight_step(stats, e, prior, rhs):
    """(mean, precision, Cholesky factor, covariance) of q(w) given the
    expected annotator precisions ``e``, or the prior's own arrays when no
    label carries weight.  ``rhs`` is :func:`_weight_rhs` of the prior.
    With :func:`_rate_step` it makes one sweep; neither validates its input.
    """
    grams, xty, _, counts = stats
    if not counts @ e > 0:  # e >= 0: no labeled annotator has weight
        return prior.mean, prior.precision, prior._factor, prior.covariance
    prec = prior.precision + (e @ grams).reshape(prior.dim, prior.dim)
    prec = 0.5 * (prec + prec.T)
    factor = _cholesky(prec, "weight update produced a non-finite or non "
                             "positive definite precision")
    # One solve gives the mean (first column) and the covariance.
    sol = rhs.copy(order="F")
    sol[:, 0] += e @ xty
    sol, _ = dpotrs(factor, sol, lower=1, overwrite_b=1)
    return sol[:, 0], prec, factor, 0.5 * (sol[:, 1:] + sol[:, 1:].T)


def _rate_step(stats, mean, cov, prior_rates):
    """Gamma rates given the weight moments.

    ``grams @ vec(cov + mean mean')`` is each annotator's summed E[(x'w)^2].
    The label-mean cross term carries the mean-field factor of two; the
    paper's printed update has a factor of one, which fails the
    single-source check.
    """
    grams, xty, ysq, _ = stats
    second = grams @ (cov + np.outer(mean, mean)).ravel()
    cross = 2.0 * (xty @ mean)
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
    step = _weight_step(dataset._suffstats, e, prior, _weight_rhs(prior))
    if step[1] is prior.precision:
        return prior
    return WeightPosterior._from_sweep(*step)


def vi_update_precision(
    dataset: CrowdDataset,
    weights: WeightPosterior,
    prior: PrecisionPosterior,
) -> PrecisionPosterior:
    """Gamma-factor update for every annotator given the weight posterior.

    Each shape grows by half the annotator's label count; each rate adds half
    the expected squared residual of those labels under ``q(w)``.  An
    annotator with no labels keeps its prior values exactly.
    """
    if dataset.d != weights.dim:
        raise InvalidInputError("dataset and weight posterior dimensions differ")
    if prior.shape.size != dataset.num_annotators:
        raise InvalidInputError(
            f"need {dataset.num_annotators} precision factors, got "
            f"{prior.shape.size}")
    rates = _rate_step(dataset._suffstats, weights.mean, weights.covariance,
                       prior.rate)
    return PrecisionPosterior(prior.shape + dataset.label_counts / 2.0, rates)


def _elbo(shapes, rates, q, prior) -> float:
    """Evidence lower bound, up to a constant, at the weight step's arrays
    ``q`` = (mean, precision, factor, covariance) and the rates that
    :func:`_rate_step` gives for that q(w).

    With the shapes at their posterior values and the rates optimal for
    q(w), the label and Gamma terms of the bound (Bishop, PRML section 10.3)
    reduce to ``-shapes @ log(rates)`` plus a constant.  The weight terms are
    ``-(tr(P0 cov) + (mean - mu0)' P0 (mean - mu0) + log det P) / 2``, and
    ``log det P`` is twice the summed log of the factor's diagonal.
    """
    mean, _, factor, cov = q
    dm = mean - prior.mean
    return float(-shapes @ np.log(rates) - np.log(factor.diagonal()).sum()
                 - 0.5 * ((prior.precision * cov).sum()
                          + dm @ prior.precision @ dm))


def _squarem_rates(r0, r1, r2):
    """SQUAREM extrapolation of the rate iterates ``r0 -> r1 -> r2``
    (Varadhan and Roland, Scand. J. Stat. 2008, step length
    ``min(-1, -|s| / |v|)``), or None when ``v = 0`` or the extrapolated
    rates are not all finite and positive."""
    s, v = r1 - r0, r2 - 2.0 * r1 + r0
    vv = v @ v
    if not vv > 0:
        return None
    alpha = min(-1.0, -math.sqrt((s @ s) / vv))
    trial = r0 - 2.0 * alpha * s + alpha * alpha * v
    return trial if np.isfinite(trial).all() and trial.min() > 0 else None


def fit_variational(
    dataset: CrowdDataset,
    weight_prior: WeightPosterior,
    precision_priors: PrecisionPosterior,
    tolerance: float = 1e-6,
    max_sweeps: int = 200,
    warm_start: tuple[WeightPosterior, PrecisionPosterior] | None = None,
) -> tuple[WeightPosterior, PrecisionPosterior, FitReport]:
    """Iterate the weight and precision updates to their joint fixed point.

    A sweep is the weight update at expected precisions ``shape / rate``
    followed by the rate update: a map ``F`` from the m Gamma rates to new
    rates, since the weight update is exact given the rates.  The first sweep
    runs from ``warm_start`` (or the priors), which makes incremental refits
    cheap.  Then each cycle runs two sweeps, ``r1 = F(r0)`` and
    ``r2 = F(r1)``, and extrapolates the rates by SQUAREM (Varadhan and
    Roland, Scand. J. Stat. 2008).  When the extrapolation ``r'`` is finite
    and positive, one more sweep ``F(r')`` stabilises it, and that sweep is
    kept only if the evidence lower bound there is not below the bound at
    ``r0``; otherwise the cycle keeps ``r2``.  A kept stabilising sweep's
    bound is the next cycle's bound at ``r0`` and is not computed again.

    Convergence is declared when one sweep changes no Gamma rate by
    ``tolerance`` or more relative to the new rate, ``max |F(r) - r| / F(r)``;
    that change is the report's ``final_delta``.  A first sweep that changes
    a Gamma shape (a label arrived since the warm start) never converges.
    Every sweep counts against ``max_sweeps`` and in the report's
    ``iterations``, the stabilising one included.  Hitting ``max_sweeps``
    first is not an error; the report records which happened.

    The priors and the warm start are validated once, on entry.  Each sweep
    works on the dataset's stacked sufficient statistics and factors the
    weight precision once (LAPACK ``dpotrf``); one ``dpotrs`` call then gives
    the mean and the covariance.  The returned weight posterior reuses the
    kept sweep's mean, precision, factor and covariance: it skips the
    symmetry check and the factorization that the public constructor runs.
    """
    m = dataset.num_annotators
    if not tolerance > 0:
        raise InvalidInputError("tolerance must be positive")
    if max_sweeps < 1:
        raise InvalidInputError("max_sweeps must be at least 1")
    start, start_precisions = warm_start or (weight_prior, precision_priors)
    for weights, precisions in ((weight_prior, precision_priors),
                                (start, start_precisions)):
        if weights.dim != dataset.d or precisions.shape.size != m:
            raise InvalidInputError(
                f"need dimension {dataset.d} and {m} precision factors, got "
                f"{weights.dim} and {precisions.shape.size}")

    stats = dataset._suffstats
    rhs = _weight_rhs(weight_prior)
    shapes = precision_priors.shape + dataset.label_counts / 2.0

    def sweep(e, rates):
        """F at expected precisions ``e``: the new rates, the weight step's
        arrays and the relative rate change from ``rates``."""
        q = _weight_step(stats, e, weight_prior, rhs)
        new = _rate_step(stats, q[0], q[3], precision_priors.rate)
        return new, q, float((np.abs(new - rates) / new).max())

    rates, q, delta = sweep(start_precisions.shape / start_precisions.rate,
                            start_precisions.rate)
    sweeps = 1
    converged = (delta < tolerance
                 and np.array_equal(shapes, start_precisions.shape))
    bound = None  # the bound at (rates, q), when a kept sweep computed it
    while not converged and sweeps < max_sweeps:
        r0, q0, bound0 = rates, q, bound
        bound = None
        for _ in range(2):  # r1 = F(r0), then r2 = F(r1)
            r1 = rates
            rates, q, delta = sweep(shapes / rates, rates)
            sweeps += 1
            converged = delta < tolerance
            if converged or sweeps == max_sweeps:
                break
        else:
            trial = _squarem_rates(r0, r1, rates)
            if trial is not None:
                stable = sweep(shapes / trial, trial)
                sweeps += 1
                if bound0 is None:
                    bound0 = _elbo(shapes, r0, q0, weight_prior)
                trial_bound = _elbo(shapes, stable[0], stable[1], weight_prior)
                if trial_bound >= bound0:
                    rates, q, delta = stable
                    bound = trial_bound
                    converged = delta < tolerance

    weights = (WeightPosterior._from_sweep(*q)
               if dataset.total_labels else weight_prior)
    return (weights, PrecisionPosterior(shapes, rates),
            FitReport(sweeps, converged, delta))


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
