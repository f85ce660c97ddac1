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

One LAPACK ``dposv`` call factors each weight precision and solves for its
mean and covariance.  It comes from scipy's compiled LAPACK wrapper, loaded by
file so that ``import crowdreg`` does not pay for ``scipy.linalg``'s package.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (InvalidInputError, NumericalFailureError, _finite_array,
                     _integer, _is_int, _is_real, _positive)

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

# Whole-array reductions called as ufunc methods: the ndarray methods
# ``.all()``, ``.min()``, ``.max()`` and ``.sum()`` reach the same reductions
# through a Python wrapper each, which the sweep would pay several times.
# For the same reason 0.5 is a 0-d array: a ufunc converts a Python float on
# every call.
_all, _min, _max, _sum = (np.logical_and.reduce, np.minimum.reduce,
                          np.maximum.reduce, np.add.reduce)
_HALF = np.array(0.5)
_HALF.flags.writeable = False


def _lapack_routines():
    """LAPACK's ``dposv`` from scipy's extension module
    ``scipy/linalg/_flapack``, loaded from its file.

    Importing it from ``scipy.linalg.lapack`` would run ``scipy.linalg``'s
    package ``__init__``, which takes most of ``import crowdreg``.  Python
    keeps one copy of the extension's functions, so this is the one that
    ``scipy.linalg`` gets.  The module is taken out of ``sys.modules``, where
    loading it puts it, so a later ``import scipy.linalg`` runs as usual.  If
    ``scipy.linalg`` holds it already, or the file is missing or fails to
    load, the routine comes from the public ``scipy.linalg.lapack``.
    """
    name = "scipy.linalg._flapack"
    scipy_spec = importlib.util.find_spec("scipy")
    if name not in sys.modules and scipy_spec is not None:
        for folder in scipy_spec.submodule_search_locations or ():
            for suffix in importlib.machinery.EXTENSION_SUFFIXES:
                path = os.path.join(folder, "linalg", "_flapack" + suffix)
                if not os.path.isfile(path):
                    continue
                try:
                    spec = importlib.util.spec_from_file_location(name, path)
                    flapack = importlib.util.module_from_spec(spec)
                    spec.loader.exec_module(flapack)
                except (ImportError, OSError):
                    continue
                finally:
                    sys.modules.pop(name, None)
                return flapack.dposv
    from scipy.linalg.lapack import dposv
    return dposv


# Called positionally, which f2py parses faster than keywords, in the order
# of its ``__doc__``: dposv(a, b, lower, overwrite_a, overwrite_b).
dposv = _lapack_routines()


def _frozen_array(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


def _trusted(cls, **fields):
    """A ``cls`` built from ``fields`` without ``__post_init__``: for arrays
    that the caller has just computed from checked input, which are frozen
    in place, not copied or checked again.  Never pass an array that a
    caller of the public API holds: it would turn read-only under them."""
    for v in fields.values():
        if isinstance(v, np.ndarray):
            v.setflags(write=False)
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _cholesky(prec: np.ndarray, failure: str, rhs: np.ndarray):
    """``(P^-1 b, factor, P^-1)`` for ``P = prec`` from one LAPACK ``dposv``
    over the Fortran-ordered ``rhs = [b | I]``, which it overwrites: the
    factor is P's lower Cholesky factor, its upper triangle left as it was,
    and the inverse is symmetrized.  A non-finite or not positive definite
    ``prec`` raises :class:`NumericalFailureError` with the message
    ``failure``."""
    if _all(np.isfinite(prec), axis=None):
        factor, sol, info = dposv(prec, rhs, 1, 0, 1)
        if info == 0:
            cov = sol[:, 1:] + sol[:, 1:].T
            cov *= _HALF
            return sol[:, 0], factor, cov
    raise NumericalFailureError(failure)


def _checked_labels(rows, annotators, values, n, m):
    """Read-only copies of the label vectors after the checks that
    :class:`CrowdDataset` lists, each over the whole array."""
    labels = [np.asarray(rows), np.asarray(annotators), np.asarray(values)]
    if {v.ndim for v in labels} != {1} or len({v.size for v in labels}) > 1:
        raise InvalidInputError(
            f"label {min(v.size for v in labels)}: rows, annotators and "
            f"values must be equally long vectors")
    rows, annotators, values = labels
    if not all(v.dtype.kind in kinds or not v.size
               for v, kinds in zip(labels, ("iu", "iu", "iuf"))):
        raise _label_error(0, rows[0], annotators[0], values[0], n, m)
    bad = ((rows < 0) | (rows >= n) | (annotators < 0) | (annotators >= m)
           | ~np.isfinite(values))
    if not bad.any():  # flag each repeat of an earlier (row, annotator) pair
        # one int64 key per pair, exact because __post_init__ bounds m * n;
        # the stable sort keeps a pair's labels in their given order
        key = annotators.astype(np.int64) * n + rows.astype(np.int64)
        order = np.argsort(key, kind="stable")
        key = key[order]
        bad[order[1:][key[1:] == key[:-1]]] = True
    if bad.any():
        k = int(bad.argmax())
        raise _label_error(k, rows[k], annotators[k], values[k], n, m)
    return [_frozen_array(v, t)
            for v, t in zip(labels, (np.intp, np.intp, float))]


def _label_error(k, row, annotator, value, n, m) -> InvalidInputError:
    return InvalidInputError(
        f"label {k} (row {row}, annotator {annotator}, value {value}): need "
        f"integer row in [0, {n}) and annotator in [0, {m}), a finite number "
        f"and a (row, annotator) pair not labeled before")


def _is_valid_block(columns, block, n, m) -> bool:
    """Whether a 2-D (b, k) ``block`` on ``columns`` passes, checked as a
    whole, what :func:`_checked_labels` checks label by label: 1 <= b <= m,
    k >= 1 distinct integer columns in [0, n), and finite numbers.  False
    says only that the labels need the label-by-label check."""
    b, k = block.shape
    if not (columns.ndim == 1 and 0 < b <= m and 0 < k == columns.size
            and columns.dtype.kind in "iu" and block.dtype.kind in "iuf"):
        return False
    s = np.sort(columns)
    return bool(0 <= int(s[0]) and int(s[-1]) < n and _all(s[1:] != s[:-1])
                and _all(np.isfinite(block), axis=None))


def _annotator_runs(rows, annotators, values):
    """Checked flat labels as runs of one annotator each, ``(j, j's rows, j's
    answers as a (1, k) block)``, in label order.  A generator: nothing of
    size m is allocated before the statistics are."""
    order = np.argsort(annotators, kind="stable")
    counts = np.bincount(annotators)
    labeling = np.flatnonzero(counts)
    stops = np.cumsum(counts[labeling]).tolist()
    for j, start, stop in zip(labeling.tolist(), [0, *stops], stops):
        idx = order[start:stop]
        yield j, rows[idx], values[idx][None]


def _statistics(instances, runs, m):
    """Per-annotator (X_j' X_j raveled, X_j' y_j, y_j' y_j, n_j), stacked.
    A run ``(lo, rows, answers)``, in which annotator ``lo + i`` gave
    ``answers[i]`` on ``rows``, costs one row gather and one Gram; the bits
    are those of each annotator's own matmuls from zero.  Its answers are
    copied first: a view may start 8 bytes off a 16-byte boundary, and some
    BLAS kernels (OpenBLAS's Prescott ``ddot``) then sum in another order."""
    d = instances.shape[1]
    try:
        gram, xty, ysq, counts = (np.zeros((m, d * d)), np.zeros((m, d)),
                                  np.zeros(m), np.zeros(m, np.intp))
    except MemoryError:
        raise InvalidInputError(
            f"num_annotators {m}: the m x d^2 statistics at d = {d} do not "
            f"fit in memory") from None
    for lo, rows, answers in runs:
        (b, k), x = answers.shape, instances[rows]
        xt = x.T
        gram[lo:lo + b], counts[lo:lo + b] = (xt @ x).ravel(), k
        for j, ys in enumerate(answers, lo):
            ys = ys.copy()
            xty[j], ysq[j] = xt @ ys, ys @ ys
    for a in (gram, xty, ysq):  # 0.0 + v, a sum from zero: -0.0 reads +0.0
        a += 0.0
    return gram, xty, ysq, counts


@dataclass(frozen=True, eq=False)
class CrowdDataset:
    """Feature matrix plus the crowd's labels as three equally long vectors.

    Label ``k`` is ``values[k]``, given by annotator ``annotators[k]`` (in
    ``[0, num_annotators)``) on instance ``rows[k]`` (a row of the (n, d)
    ``instances``).  An annotator labels any subset of the instances, each
    at most once.  The vectors are read-only copies in the given order,
    validated once on construction: integer indices (a float or bool index
    is rejected, not truncated), in range, finite values, no repeated
    ``(row, annotator)`` pair, found by one stable sort of the int64 keys
    ``annotator * n + row``.  An error names the position and the ``(row,
    annotator, value)`` of the first bad label.  ``num_annotators`` may not
    exceed the largest intp over ``max(n, 8 d^2)``, so that the keys and the
    m x d^2 statistics can be indexed.

    Block form: ``CrowdDataset(instances, columns, None, block,
    num_annotators)``, where ``block[j, c]`` is annotator ``j``'s answer on
    row ``columns[c]``.  It holds the labels ``rows = tile(columns, b)``,
    ``annotators = repeat(arange(b), k)`` and ``values = block.ravel()`` of
    a (b, k) block, and its vectors read so.  It is checked as a whole:
    between 1 and ``num_annotators`` annotators, at least one column, the
    columns distinct integers in ``[0, n)`` and the answers finite.  A valid
    block keeps read-only copies of its columns and of its answers, the
    latter C-ordered with ``values`` its ravel, and builds ``rows`` and
    ``annotators`` on their first read, which a fit never makes.  A block
    that fails is checked label by label, so the error is the one that the
    flat form gives for the same labels; a block that is not 2-D fails on
    its own.

    Both forms build the per-annotator sufficient statistics in the
    constructor, after every label check, with one row gather and one Gram
    per run of annotators that label the same rows in the same order: a
    valid block is one run, and flat labels are one run per labeling
    annotator.  A ``num_annotators`` whose m x d^2 statistics cannot be
    allocated fails naming it.  :meth:`with_label` checks only the new label
    and adds it to a copy of the statistics.
    """

    instances: np.ndarray
    rows: np.ndarray
    annotators: np.ndarray | None
    values: np.ndarray
    num_annotators: int

    def __post_init__(self):
        inst = _finite_array(self.instances, "instances", 2)
        if inst.shape[1] < 1:
            raise InvalidInputError("instances need at least one feature")
        # the m x d^2 float statistics and the m * n (row, annotator) keys
        # of _checked_labels must stay within intp
        n, d = inst.shape
        m = _integer(self.num_annotators, "num_annotators", 1,
                     np.iinfo(np.intp).max // max(n, 8 * d * d))
        inst = _frozen_array(inst)
        labels, runs = (self.rows, self.annotators, self.values), None
        if self.annotators is None:  # the block form, flattened here
            columns, block = np.asarray(self.rows), np.asarray(self.values)
            if block.ndim != 2:
                raise InvalidInputError(
                    f"values: a block of answers needs the shape "
                    f"(annotators, columns), got {block.shape}")
            b, k = block.shape
            if not _is_valid_block(columns, block, n, m):
                labels = (np.tile(columns, b), np.repeat(np.arange(b), k),
                          block.ravel())
            else:  # one value copy; rows and annotators wait for a read
                columns = _frozen_array(columns, np.intp)
                block = block.astype(float, order="C")
                block.setflags(write=False)
                runs = [(0, columns, block)]
                del self.__dict__["rows"], self.__dict__["annotators"]
                self.__dict__.update(values=block.ravel(), _block=(columns, b))
        if runs is None:
            labels = _checked_labels(*labels, n, m)
            runs = _annotator_runs(*labels)
            self.__dict__.update(zip(("rows", "annotators", "values"), labels))
        self.__dict__.update(instances=inst, num_annotators=m,
                             _suffstats=_statistics(inst, runs, m))

    def __getattr__(self, name):
        """A valid block's ``rows`` and ``annotators``, built on first read
        and kept: a fit reads neither."""
        block = self.__dict__.get("_block")
        if block is None or name not in ("rows", "annotators"):
            raise AttributeError(f"{type(self).__name__!r} object has no "
                                 f"attribute {name!r}")
        columns, b = block
        labels = {"rows": np.tile(columns, b),
                  "annotators": np.repeat(np.arange(b, dtype=np.intp),
                                          columns.size)}
        for v in labels.values():
            v.setflags(write=False)
        self.__dict__.update(labels)
        return labels[name]

    @property
    def n(self) -> int:
        return self.instances.shape[0]

    @property
    def d(self) -> int:
        return self.instances.shape[1]

    @property
    def total_labels(self) -> int:
        return self.values.size

    @property
    def label_counts(self) -> np.ndarray:
        """Number of labels provided by each annotator (read-only)."""
        counts = self._suffstats[3].view()
        counts.setflags(write=False)
        return counts

    def with_label(self, i: int, j: int, y: float) -> "CrowdDataset":
        """A new dataset with one extra label; the original is untouched.

        Checks the new label only.  Copies the m x d^2 statistics and the
        O(L) label vectors, then adds the label with O(d^2) arithmetic.
        """
        n, m, k = self.n, self.num_annotators, self.total_labels
        if not (_is_int(i) and _is_int(j) and _is_real(y)
                and 0 <= i < n and 0 <= j < m and math.isfinite(y)
                and not (self.rows[self.annotators == j] == i).any()):
            raise _label_error(k, i, j, y, n, m)
        y, x = float(y), self.instances[i]
        stats = tuple([a.copy() for a in self._suffstats])
        for a, term in zip(stats, ((x[:, None] * x).ravel(), x * y, y * y, 1)):
            a[j] += term
        labels = {}
        for name, v in (("rows", i), ("annotators", j), ("values", y)):
            old = getattr(self, name)
            grown = labels[name] = np.empty(k + 1, old.dtype)
            grown[:k], grown[k] = old, v
        return _trusted(CrowdDataset, instances=self.instances,
                        num_annotators=m, _suffstats=stats, **labels)


@dataclass(frozen=True, eq=False)
class WeightPosterior:
    """Gaussian factor over the weight vector: ``Normal(mean, precision^-1)``.

    The precision matrix must be symmetric (to 1e-10 relative) and positive
    definite; construction fails otherwise.  One ``dposv`` over ``[P mean |
    I]`` then gives the Cholesky factor and the read-only :attr:`covariance`,
    the symmetrized inverse of P.  The fit's weight step solves the same way,
    so a fitted posterior and one rebuilt from it hold the same bits.
    """

    mean: np.ndarray
    precision: np.ndarray

    def __post_init__(self):
        mean = _finite_array(self.mean, "mean", 1)
        prec = _finite_array(self.precision, "precision", 2)
        d = mean.shape[0]
        if prec.shape != (d, d):
            raise InvalidInputError(f"precision shape {prec.shape} does not "
                                    f"match mean dimension {d}")
        asym = np.abs(prec - prec.T).max()
        scale = max(np.abs(prec).max(), 1e-300)
        if asym > _SYMMETRY_RTOL * scale:
            raise InvalidInputError("precision matrix is not symmetric")
        object.__setattr__(self, "mean", _frozen_array(mean))
        object.__setattr__(self, "precision", _frozen_array(prec))
        _, factor, cov = _cholesky(
            self.precision, "precision matrix is not positive definite",
            self._rhs.copy(order="F"))
        for name, v in (("_factor", factor), ("covariance", cov)):
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @cached_property
    def _rhs(self) -> np.ndarray:
        """``[P mu | I]``, Fortran-ordered and read-only: the right-hand side
        of this posterior's solve and, as a prior, the start of every weight
        step's."""
        rhs = np.empty((self.dim, self.dim + 1), order="F")
        rhs[:, 0] = self.precision @ self.mean
        rhs[:, 1:] = np.eye(self.dim)
        rhs.setflags(write=False)
        return rhs


@dataclass(frozen=True, eq=False)
class PrecisionPosterior:
    """Gamma factors over the annotator precisions, ``q(beta_j) =
    Gamma(shape[j], rate[j])``: two equally long read-only vectors, validated
    once on construction."""

    shape: np.ndarray
    rate: np.ndarray

    def __post_init__(self):
        arrays = []
        for name in ("shape", "rate"):
            try:
                arrays.append(_frozen_array(getattr(self, name)))
            except (TypeError, ValueError):
                raise InvalidInputError(
                    f"{name} must be a vector of numbers") from None
        shape, rate = arrays
        if not (shape.ndim == 1 and rate.shape == shape.shape):
            raise InvalidInputError(
                f"shape and rate must be equally long vectors, got the "
                f"shapes {shape.shape} and {rate.shape}")
        bad = ~((0 < shape) & (shape < np.inf) & (0 < rate) & (rate < np.inf))
        if bad.any():
            j = int(bad.argmax())
            raise InvalidInputError(
                f"precision factor {j} (shape {shape[j]}, rate {rate[j]}): "
                f"need finite values > 0")
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
    d = _integer(d, "d", 1)
    return WeightPosterior(np.zeros(d), np.eye(d))


def default_precision_priors(m: int) -> PrecisionPosterior:
    """Gamma(1, 1) for every one of ``m`` annotators."""
    m = _integer(m, "m", 1)
    return PrecisionPosterior(np.ones(m), np.ones(m))


def expected_precision(posterior: PrecisionPosterior) -> np.ndarray:
    """Posterior mean of every annotator precision: shape / rate."""
    return posterior.shape / posterior.rate


# The fields of a WeightPosterior that hold the weight step's arrays, in the
# order that the step returns them.
_STEP_FIELDS = ("mean", "precision", "_factor", "covariance")


def _weight_step(stats, e, prior):
    """(mean, precision, Cholesky factor, covariance) of q(w) given the
    expected annotator precisions ``e``, some of them > 0 on labeled
    annotators (the caller's check).  With :func:`_rate_step` it makes one
    sweep; neither validates its input.
    """
    grams, xty, _, _ = stats
    sol = prior._rhs.copy(order="F")
    d = sol.shape[0]
    # 0.5 * (P + P') with P = P0 + E G, computed in place: each addition is
    # commutative, so the bits are those of the allocating expression.
    prec = np.dot(e, grams).reshape(d, d)
    prec += prior.precision
    sym = prec + prec.T
    sym *= _HALF
    sol[:, 0] += np.dot(e, xty)
    mean, factor, cov = _cholesky(sym, "weight update produced a non-finite "
                                  "or non positive definite precision", sol)
    return mean, sym, factor, cov


def _rate_step(stats, mean, cov, prior_rates):
    """Gamma rates given the weight moments.

    ``grams @ vec(cov + mean mean')`` is each annotator's summed E[(x'w)^2].
    The label-mean cross term carries the mean-field factor of two; the
    paper's printed update has a factor of one, which fails the
    single-source check.  The rates are
    ``prior + ((ysq - 2 xty @ mean) + second) / 2``, summed in that order.
    """
    grams, xty, ysq, _ = stats
    moment = mean[:, None] * mean
    moment += cov
    rates = np.dot(xty, mean)
    rates += rates  # x + x is 2 x, exactly
    np.subtract(ysq, rates, out=rates)
    rates += np.dot(grams, moment.ravel())
    rates *= _HALF
    rates += prior_rates
    # Unlabeled annotators keep their prior rate (> 0); NaN fails too.
    if not (0 < _min(rates) and _max(rates) < np.inf):
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
    e = _finite_array(expected_betas, "expected_betas", 1)
    m = dataset.num_annotators
    if e.shape != (m,) or np.any(e < 0):
        raise InvalidInputError(
            f"expected_betas must be {m} finite values >= 0, got {e!r}")
    if dataset.d != prior.dim:
        raise InvalidInputError("dataset and weight posterior dimensions differ")
    stats = dataset._suffstats
    if not stats[3] @ e > 0:  # no labeled annotator has weight
        return prior
    q = _weight_step(stats, e, prior)
    return _trusted(WeightPosterior, **dict(zip(_STEP_FIELDS, q)))


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
    return _trusted(PrecisionPosterior,
                    shape=prior.shape + dataset.label_counts / 2.0, rate=rates)


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
    dm, p0 = mean - prior.mean, prior.precision
    return float(np.dot(-shapes, np.log(rates))
                 - _sum(np.log(factor.diagonal()))
                 - 0.5 * (_sum(p0 * cov, axis=None)
                          + np.dot(np.dot(dm, p0), dm)))


def _squarem_rates(r0, r1, r2):
    """SQUAREM extrapolation of the rate iterates ``r0 -> r1 -> r2``
    (Varadhan and Roland, Scand. J. Stat. 2008, step length
    ``min(-1, -|s| / |v|)``), or None when ``v = 0`` or the extrapolated
    rates are not all finite and positive."""
    s, v = r1 - r0, r2 - (r1 + r1) + r0
    vv = np.dot(v, v)
    if not vv > 0:
        return None
    alpha = min(-1.0, -math.sqrt(np.dot(s, s) / vv))
    trial = r0 - 2.0 * alpha * s + alpha * alpha * v
    return trial if 0 < _min(trial) and _max(trial) < np.inf else None


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

    Validated once per fit, on entry: ``tolerance`` (finite, > 0),
    ``max_sweeps`` (an integer >= 1), and the dimension and annotator count
    of the priors and the warm start.  Whether the dataset holds any label
    is also read once: without labels every weight step is the prior, and
    with them every expected precision ``shape / rate`` is > 0, so no sweep
    tests for a weightless step.  Each sweep works on the dataset's stacked
    sufficient statistics, and one LAPACK ``dposv`` call factors the weight
    precision and solves for the mean and the covariance.  Three checks run
    on every sweep (the first two when a label is held) and raise
    :class:`NumericalFailureError`: the weight precision is finite before
    ``dposv``, ``dposv`` reports it positive definite, and every new rate
    lies in (0, inf).  The returned posteriors reuse the kept sweep's
    arrays, frozen in place: the weight posterior skips the symmetry check
    and the factorization that the public constructor runs, and the Gamma
    factors skip the range check that their rates already passed.
    """
    m = dataset.num_annotators
    tolerance = _positive(tolerance, "tolerance")
    max_sweeps = _integer(max_sweeps, "max_sweeps", 1)
    start, start_precisions = warm_start or (weight_prior, precision_priors)
    for weights, precisions in ((weight_prior, precision_priors),
                                (start, start_precisions)):
        if weights.dim != dataset.d or precisions.shape.size != m:
            raise InvalidInputError(
                f"need dimension {dataset.d} and {m} precision factors, got "
                f"{weights.dim} and {precisions.shape.size}")

    stats = dataset._suffstats
    shapes = precision_priors.shape + stats[3] / 2.0
    prior_rates = precision_priors.rate
    # Without labels every weight step is the prior's; with them, each
    # labeled annotator's expected precision shape / rate is > 0.
    prior_q = None if dataset.total_labels else (
        weight_prior.mean, weight_prior.precision, weight_prior._factor,
        weight_prior.covariance)

    def sweep(e, rates):
        """F at expected precisions ``e``: the new rates, the weight step's
        arrays and the relative rate change from ``rates``."""
        q = prior_q or _weight_step(stats, e, weight_prior)
        new = _rate_step(stats, q[0], q[3], prior_rates)
        change = new - rates
        np.abs(change, out=change)
        change /= new
        return new, q, float(_max(change))

    rates, q, delta = sweep(start_precisions.shape / start_precisions.rate,
                            start_precisions.rate)
    sweeps = 1
    converged = (delta < tolerance
                 and bool(_all(shapes == start_precisions.shape)))
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

    weights = weight_prior if prior_q else _trusted(
        WeightPosterior, **dict(zip(_STEP_FIELDS, q)))
    return (weights, _trusted(PrecisionPosterior, shape=shapes, rate=rates),
            FitReport(sweeps, converged, delta))


def _variances(rows: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """``x' cov x`` for every row ``x`` of ``rows``, by one matrix product."""
    return np.einsum("ij,ij->i", rows @ cov, rows)


def predictive(x: np.ndarray, weights: WeightPosterior) -> tuple[float, float]:
    """Posterior predictive mean and variance for a test point.

    The label of a finite vector ``x`` is Gaussian with mean
    ``x @ posterior mean`` and variance ``x' covariance x`` (zero only for
    ``x = 0``), clipped at 0 against rounding.  The variance is the
    instance-selection score of :mod:`crowdreg.active`, by the same formula.
    For this one row, numpy runs it through a matrix-vector kernel, whose
    last bits can differ from the matrix product over all rows that
    :func:`crowdreg.active.select_instance` scores (they did in 2,442 of
    3,000 random problems under OpenBLAS's SkylakeX kernel), so near-ties
    are ranked by ``select_instance``, and this variance may order them
    differently.
    """
    x = _finite_array(x, "x", 1)
    if x.shape[0] != weights.dim:
        raise InvalidInputError(
            f"x has dimension {x.shape[0]}, the posterior {weights.dim}")
    var = _variances(x[None], weights.covariance)[0]
    return float(x @ weights.mean), float(max(var, 0.0))
