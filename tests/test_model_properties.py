"""Property tests for the incremental dataset and the variational sweep."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crowdreg import (
    CrowdDataset,
    InvalidInputError,
    PrecisionPosterior,
    WeightPosterior,
    fit_variational,
    vi_update_precision,
    vi_update_weights,
)

PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def labeled_problems(draw):
    """Features, annotator count and a label map whose keys come in a random
    order (the order is the dict's insertion order)."""
    d = draw(st.integers(1, 5))
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, d))
    keys = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)),
                         unique=True, max_size=n * m))
    labels = {key: float(rng.normal(scale=3.0)) for key in keys}
    return X, m, labels, rng


def assert_stats_equal(a, b, rtol):
    for x, y in zip(a._suffstats, b._suffstats):
        np.testing.assert_allclose(x, y, rtol=rtol, atol=rtol)


@PROPERTY
@given(labeled_problems(), st.data())
def test_with_label_chain_matches_batch_build(problem, data):
    X, m, labels, _ = problem
    keys = list(labels)
    order = data.draw(st.permutations(keys))
    split = data.draw(st.integers(0, len(keys)))
    head = {k: labels[k] for k in order[:split]}
    ds = CrowdDataset(X, head, m)
    for k in order[split:]:
        ds = ds.with_label(*k, labels[k])
    batch = CrowdDataset(X, labels, m)
    assert ds.labels == batch.labels
    assert np.array_equal(ds.label_counts, batch.label_counts)
    assert_stats_equal(ds, batch, rtol=1e-12)


def reference_sweep(X, m, labels, e, prior, prior_rates, paper_literal):
    """One sweep from the raw labels, one label at a time."""
    mean, prec = prior.mean, prior.precision
    if labels:
        rhs = prec @ mean
        for (i, j), y in labels.items():
            prec = prec + e[j] * np.outer(X[i], X[i])
            rhs = rhs + e[j] * y * X[i]
        mean = np.linalg.solve(prec, rhs)
    cov = np.linalg.inv(prec)
    rates = np.array(prior_rates, dtype=float)
    shapes = np.zeros(m)
    for (i, j), y in labels.items():
        fit = X[i] @ mean
        cross = (1.0 if paper_literal else 2.0) * y * fit
        rates[j] += 0.5 * (y * y - cross + fit * fit + X[i] @ cov @ X[i])
        shapes[j] += 0.5
    return mean, prec, shapes, rates


def random_gamma(rng, m):
    return [PrecisionPosterior(*rng.uniform(0.5, 3.0, size=2)) for _ in range(m)]


def random_weights(rng, d):
    A = rng.normal(size=(d, d))
    prec = A @ A.T + np.eye(d)
    return WeightPosterior(rng.normal(size=d), 0.5 * (prec + prec.T))


@PROPERTY
@given(labeled_problems(), st.booleans())
def test_one_sweep_equals_public_updates_and_reference(problem, paper_literal):
    X, m, labels, rng = problem
    d = X.shape[1]
    ds = CrowdDataset(X, labels, m)
    prior, pprior = random_weights(rng, d), random_gamma(rng, m)
    start, start_gamma = random_weights(rng, d), random_gamma(rng, m)
    weights, gammas, report = fit_variational(
        ds, prior, pprior, max_sweeps=1, warm_start=(start, start_gamma),
        paper_literal_gamma_update=paper_literal)
    assert report.iterations == 1

    e = np.array([g.shape / g.rate for g in start_gamma])
    composed = vi_update_weights(ds, e, prior)
    composed_gammas = [vi_update_precision(ds, composed, pprior[j], j,
                                           paper_literal) for j in range(m)]
    mean, prec, gained, rates = reference_sweep(
        X, m, labels, e, prior, [g.rate for g in pprior], paper_literal)

    for other in (composed.mean, mean):
        np.testing.assert_allclose(weights.mean, other, rtol=1e-10,
                                   atol=1e-10)
    for other in (composed.precision, prec):
        np.testing.assert_allclose(weights.precision, other, rtol=1e-10,
                                   atol=1e-10)
    shapes = [g.shape for g in gammas]
    np.testing.assert_allclose(shapes, [g.shape for g in composed_gammas],
                               rtol=1e-10)
    np.testing.assert_allclose(shapes, [g.shape for g in pprior] + gained,
                               rtol=1e-10)
    for other in ([g.rate for g in composed_gammas], rates):
        np.testing.assert_allclose([g.rate for g in gammas], other,
                                   rtol=1e-10, atol=1e-10)


@PROPERTY
@given(labeled_problems(), st.sampled_from(["duplicate", "instance",
                                            "annotator", "value"]),
       st.sampled_from([np.nan, np.inf, -np.inf]))
def test_with_label_rejects_bad_labels_and_keeps_original(problem, kind,
                                                          bad_value):
    X, m, labels, rng = problem
    n = X.shape[0]
    ds = CrowdDataset(X, labels, m)
    before = [a.copy() for a in ds._suffstats]
    free = [(i, j) for i in range(n) for j in range(m) if (i, j) not in labels]
    if kind == "duplicate":
        assume(labels)
        i, j = next(iter(labels))
        y = 1.0
    elif kind == "instance":
        i, j, y = int(rng.choice([-1, n, n + 3])), 0, 1.0
    elif kind == "annotator":
        i, j, y = 0, int(rng.choice([-1, m, m + 2])), 1.0
    else:
        assume(free)
        (i, j), y = free[0], bad_value
    with pytest.raises(InvalidInputError):
        ds.with_label(i, j, y)
    assert ds.labels == labels
    for old, new in zip(before, ds._suffstats):
        assert np.array_equal(old, new)
