"""Property tests for the dataset (its statistics, its block form, its
repeat check and its growth by one label), the variational sweep, its LAPACK
Cholesky path, the evidence lower bound and the accelerated fit."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, cho_factor, cho_solve, lapack
from scipy.special import digamma, gammaln

from crowdreg import (
    CrowdDataset,
    InvalidInputError,
    NumericalFailureError,
    PrecisionPosterior,
    WeightPosterior,
    fit_variational,
    predictive,
    vi_update_precision,
    vi_update_weights,
)
from crowdreg import model

PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def labeled_problems(draw, max_d=5):
    """Features, annotator count, label vectors ``(rows, annotators,
    values)`` over unique ``(row, annotator)`` pairs in a random order, and
    the generator that drew them."""
    d = draw(st.integers(1, max_d))
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, d))
    keys = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)),
                         unique=True, max_size=n * m))
    rows, annotators = np.array(keys, dtype=int).reshape(-1, 2).T
    return X, m, (rows, annotators, rng.normal(scale=3.0, size=len(keys))), rng


def triples(rows, annotators, values):
    """The labels as a set of (row, annotator, value) triples."""
    return set(zip(rows.tolist(), annotators.tolist(), values.tolist()))


def assert_stats_equal(a, b, rtol):
    for x, y in zip(a._suffstats, b._suffstats):
        np.testing.assert_allclose(x, y, rtol=rtol, atol=rtol)


@PROPERTY
@given(labeled_problems(), st.data())
def test_with_label_chain_matches_batch_build(problem, data):
    X, m, labels, rng = problem
    order = np.array(data.draw(st.permutations(range(labels[0].size))),
                     dtype=int)
    split = data.draw(st.integers(0, order.size))
    ds = CrowdDataset(X, *(v[order[:split]] for v in labels), m)
    for k in order[split:]:
        ds = ds.with_label(*(v[k] for v in labels))
    batch = CrowdDataset(X, *labels, m)
    assert (triples(ds.rows, ds.annotators, ds.values)
            == triples(*labels) == triples(batch.rows, batch.annotators,
                                           batch.values))
    assert np.array_equal(ds.label_counts, batch.label_counts)
    assert_stats_equal(ds, batch, rtol=1e-12)

    # so the fit does not depend on the order the labels arrived in
    prior, pprior = random_weights(rng, X.shape[1]), random_gamma(rng, m)
    sweeps = data.draw(st.integers(1, 3))
    fits = [fit_variational(built, prior, pprior, max_sweeps=sweeps)
            for built in (ds, batch)]
    (weights, gammas, report), (b_weights, b_gammas, b_report) = fits
    assert report.iterations == b_report.iterations
    for a, b in ((weights.mean, b_weights.mean),
                 (weights.precision, b_weights.precision),
                 (gammas.shape, b_gammas.shape), (gammas.rate, b_gammas.rate)):
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-10)


def reference_sweep(X, m, labels, e, prior, prior_rates):
    """One sweep from the raw labels, one label at a time."""
    mean, prec = prior.mean, prior.precision
    if labels[0].size:
        rhs = prec @ mean
        for i, j, y in zip(*labels):
            prec = prec + e[j] * np.outer(X[i], X[i])
            rhs = rhs + e[j] * y * X[i]
        mean = np.linalg.solve(prec, rhs)
    cov = np.linalg.inv(prec)
    rates = np.array(prior_rates, dtype=float)
    shapes = np.zeros(m)
    for i, j, y in zip(*labels):
        fit = X[i] @ mean
        cross = 2.0 * y * fit
        rates[j] += 0.5 * (y * y - cross + fit * fit + X[i] @ cov @ X[i])
        shapes[j] += 0.5
    return mean, prec, shapes, rates


def random_gamma(rng, m):
    return PrecisionPosterior(*rng.uniform(0.5, 3.0, size=(m, 2)).T)


def random_weights(rng, d):
    A = rng.normal(size=(d, d))
    prec = A @ A.T + np.eye(d)
    return WeightPosterior(rng.normal(size=d), 0.5 * (prec + prec.T))


@PROPERTY
@given(labeled_problems())
def test_one_sweep_equals_public_updates_and_reference(problem):
    X, m, labels, rng = problem
    d = X.shape[1]
    ds = CrowdDataset(X, *labels, m)
    prior, pprior = random_weights(rng, d), random_gamma(rng, m)
    start, start_gamma = random_weights(rng, d), random_gamma(rng, m)
    weights, gammas, report = fit_variational(
        ds, prior, pprior, max_sweeps=1, warm_start=(start, start_gamma))
    assert report.iterations == 1

    e = start_gamma.shape / start_gamma.rate
    composed = vi_update_weights(ds, e, prior)
    composed_gammas = vi_update_precision(ds, composed, pprior)
    mean, prec, gained, rates = reference_sweep(
        X, m, labels, e, prior, pprior.rate)

    # the fit's sweep and the public updates are one implementation: equal
    # to the bit; the label-at-a-time reference rounds differently
    for got, want in ((weights.mean, composed.mean),
                      (weights.precision, composed.precision),
                      (gammas.shape, composed_gammas.shape),
                      (gammas.rate, composed_gammas.rate)):
        assert np.array_equal(got, want)
    np.testing.assert_allclose(weights.mean, mean, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(weights.precision, prec, rtol=1e-10,
                               atol=1e-10)
    np.testing.assert_allclose(gammas.shape, pprior.shape + gained,
                               rtol=1e-10)
    np.testing.assert_allclose(gammas.rate, rates, rtol=1e-10, atol=1e-10)


@PROPERTY
@given(labeled_problems(), st.data(), st.integers(1, 3))
def test_fit_is_equivariant_under_annotator_permutation(problem, data, sweeps):
    # relabeling the annotators permutes the Gamma factors the same way and
    # leaves the weight factor unchanged
    X, m, labels, rng = problem
    d = X.shape[1]
    perm = np.array(data.draw(st.permutations(range(m))))
    prior, pprior = random_weights(rng, d), random_gamma(rng, m)
    start, start_gamma = random_weights(rng, d), random_gamma(rng, m)

    def fit(ids, gamma_prior, gamma_start):
        rows, annotators, values = labels
        ds = CrowdDataset(X, rows, ids[annotators], values, m)
        return fit_variational(ds, prior, gamma_prior, max_sweeps=sweeps,
                               warm_start=(start, gamma_start))

    def moved(gamma):  # factor j goes to position perm[j]
        inverse = np.argsort(perm)
        return PrecisionPosterior(gamma.shape[inverse], gamma.rate[inverse])

    weights, gammas, report = fit(np.arange(m), pprior, start_gamma)
    p_weights, p_gammas, p_report = fit(perm, moved(pprior), moved(start_gamma))
    assert p_report.iterations == report.iterations
    for a, b in ((p_weights.mean, weights.mean),
                 (p_weights.precision, weights.precision),
                 (p_gammas.shape, moved(gammas).shape),
                 (p_gammas.rate, moved(gammas).rate)):
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-10)


@PROPERTY
@given(labeled_problems(), st.sampled_from(["duplicate", "instance",
                                            "annotator", "value"]),
       st.sampled_from([np.nan, np.inf, -np.inf]))
def test_with_label_rejects_bad_labels_and_keeps_original(problem, kind,
                                                          bad_value):
    X, m, labels, rng = problem
    n = X.shape[0]
    ds = CrowdDataset(X, *labels, m)
    before = [a.copy() for a in ds._suffstats]
    taken = set(zip(labels[0].tolist(), labels[1].tolist()))
    free = [(i, j) for i in range(n) for j in range(m) if (i, j) not in taken]
    if kind == "duplicate":
        assume(taken)
        i, j = int(labels[0][0]), int(labels[1][0])
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
    assert (triples(ds.rows, ds.annotators, ds.values)
            == triples(*labels))
    for old, new in zip(before, ds._suffstats):
        assert np.array_equal(old, new)


def statistics_features(draw):
    """Features and annotator count.  Columns 0 and 1 may be zero and
    negative, so that their Gram entry sums products of -0.0, which a BLAS
    kernel may return as -0.0."""
    d, n, m = (draw(st.integers(1, 5)), draw(st.integers(1, 10)),
               draw(st.integers(1, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, d))
    if d > 1 and draw(st.booleans()):
        X[:, 0], X[:, 1] = 0.0, -np.abs(X[:, 1])
    return X, m, rng


@st.composite
def statistics_problems(draw):
    """Features, annotator count, label vectors for the statistics build and
    no block (see :func:`block_problems`).

    Each annotator labels no row, a fresh set of rows, the previous labeling
    annotator's rows in the same order or those rows reversed.  The labels
    come annotator by annotator or interleaved, each annotator's rows
    keeping their order.
    """
    X, m, rng = statistics_features(draw)
    n = X.shape[0]
    row_sets, previous = [], []
    for _ in range(m):
        kind = draw(st.sampled_from(["none", "fresh", "previous", "reversed"]))
        if kind == "fresh":
            rows = draw(st.lists(st.integers(0, n - 1), unique=True,
                                 max_size=n))
        else:
            rows = {"none": [], "previous": previous,
                    "reversed": previous[::-1]}[kind]
        row_sets.append(rows)
        previous = rows or previous
    rows = np.array([i for s in row_sets for i in s], dtype=int)
    annotators = np.repeat(np.arange(m), [len(s) for s in row_sets])
    if draw(st.booleans()):
        # a random interleaving: annotator j's k-th label takes the k-th
        # of j's slots in a shuffled sequence of annotator ids
        annotators = rng.permutation(annotators)
        grouped = rows
        rows = np.empty_like(grouped)
        rows[np.argsort(annotators, kind="stable")] = grouped
    return X, m, (rows, annotators, rng.normal(scale=3.0, size=rows.size)), None


@st.composite
def block_problems(draw, min_size=0):
    """Features, annotator count, the labels of a block as the flat form's
    vectors, and the block form's ``(columns, block)``.

    The k columns are distinct rows in a random order, of one of four
    integer types.  The (b, k) block holds floats or integers for b <= m
    annotators; b and k are at least ``min_size``.  An odd k puts every
    other annotator's answers 8 bytes off the alignment of the block.
    """
    X, m, rng = statistics_features(draw)
    n = X.shape[0]
    columns = rng.permutation(n)[:draw(st.integers(min(min_size, n), n))]
    columns = columns.astype(draw(st.sampled_from(
        [np.intp, np.int32, np.uint8, np.uint64])))
    block = rng.normal(scale=3.0, size=(draw(st.integers(min_size, m)),
                                        columns.size))
    if draw(st.booleans()):
        block = np.round(block).astype(np.int64)
    b, k = block.shape
    labels = np.tile(columns, b), np.repeat(np.arange(b), k), block.ravel()
    return X, m, labels, (columns, block)


def accumulated_statistics(X, m, rows, annotators, values):
    """The statistics added up from zero, one annotator at a time, in label
    order, each from its own rows' matmuls."""
    d = X.shape[1]
    values = np.asarray(values, dtype=float)
    stats = (np.zeros((m, d * d)), np.zeros((m, d)), np.zeros(m),
             np.zeros(m, dtype=np.intp))
    for j in range(m):
        idx = np.flatnonzero(annotators == j)
        if idx.size:
            x, ys = X[rows[idx]], values[idx]
            for a, term in zip(stats, ((x.T @ x).ravel(), x.T @ ys, ys @ ys,
                                       len(ys))):
                a[j] += term
    return stats


@PROPERTY
@given(st.one_of(statistics_problems(), block_problems()))
def test_statistics_equal_per_annotator_accumulation_to_the_bit(problem):
    # the flat form from its labels, and the block form from its block: the
    # same read-only vectors as the flat form and the reference's statistics
    X, m, labels, block = problem
    want = accumulated_statistics(X, m, *labels)
    flat = CrowdDataset(X, *labels, m)
    built = [flat]
    if block is not None:
        built.append(CrowdDataset(X, block[0], None, block[1], m))
    for ds in built:
        for name in ("rows", "annotators", "values"):
            got, ref = getattr(ds, name), getattr(flat, name)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
            assert not got.flags.writeable
        for a, b in zip(ds._suffstats, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


@PROPERTY
@given(block_problems(min_size=1), st.data())
def test_a_block_grows_as_its_labels_do_flat(problem, data):
    # a valid block builds its rows and annotators only when read (their
    # bits: the test above); one label added to a block that has built
    # neither, new or a repeat, gives the flat form's vectors and
    # statistics, or its error
    X, m, labels, (columns, block) = problem
    built = CrowdDataset(X, columns, None, block, m)
    assert not {"rows", "annotators"} & set(vars(built))
    i = data.draw(st.integers(0, X.shape[0] - 1))
    j = data.draw(st.integers(0, m - 1))
    grown = []
    for ds in (built, CrowdDataset(X, *labels, m)):
        try:
            grown.append(ds.with_label(i, j, 1.5))
        except InvalidInputError as exc:
            grown.append(str(exc))
    if isinstance(grown[1], str):
        assert grown[0] == grown[1]
        return
    for name in ("rows", "annotators", "values"):
        got, ref = getattr(grown[0], name), getattr(grown[1], name)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        assert not got.flags.writeable and not ref.flags.writeable
    for a, b in zip(grown[0]._suffstats, grown[1]._suffstats):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


BLOCK_FAULTS = ["column past the end", "negative column", "repeated column",
                "non-finite answer", "float columns", "bool columns",
                "an annotator too many", "a column too few",
                "a column too many"]


@PROPERTY
@given(block_problems(min_size=1), st.sampled_from(BLOCK_FAULTS), st.data())
def test_a_bad_block_fails_as_its_labels_do_flat(problem, fault, data):
    X, m, _, (columns, block) = problem
    n, (b, k) = X.shape[0], block.shape
    columns, block = columns.astype(np.int64), block.astype(float)
    c = data.draw(st.integers(0, k - 1))
    if fault == "column past the end":
        columns[c] = data.draw(st.integers(n, n + 3))
    elif fault == "negative column":
        columns[c] = -1
    elif fault == "repeated column":
        columns = np.append(columns, columns[c])
        block = np.hstack([block, block[:, :1]])
    elif fault == "non-finite answer":
        block[data.draw(st.integers(0, b - 1)), c] = data.draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
    elif fault == "float columns":
        columns = columns.astype(float)
    elif fault == "bool columns":
        columns = columns % 2 == 0
    elif fault == "an annotator too many":
        block = np.vstack([block, np.ones((m + 1 - b, k))])
    elif fault == "a column too few":
        block = block[:, :-1]
    else:
        block = np.hstack([block, block[:, :1]])
    b, k = block.shape
    with pytest.raises(InvalidInputError) as flat:
        CrowdDataset(X, np.tile(columns, b), np.repeat(np.arange(b), k),
                     block.ravel(), m)
    with pytest.raises(InvalidInputError) as got:
        CrowdDataset(X, columns, None, block, m)
    assert str(got.value) == str(flat.value)


@PROPERTY
@given(labeled_problems(), st.data(),
       st.sampled_from([np.int64, np.uint64, np.int32, np.uint8]),
       st.sampled_from([np.int64, np.uint64]))
def test_the_first_repeat_named_is_the_lexsort_one(problem, data, row_type,
                                                   annotator_type):
    X, m, (rows, annotators, _), rng = problem
    assume(rows.size)
    copies = data.draw(st.lists(st.integers(0, rows.size - 1), min_size=1,
                                max_size=5))
    order = rng.permutation(rows.size + len(copies))
    rows, annotators = (np.concatenate([v, v[copies]])[order].astype(t)
                        for v, t in ((rows, row_type),
                                     (annotators, annotator_type)))
    values = rng.normal(size=rows.size)
    # the reference: sort by (row, annotator), stably, and take the
    # earliest label that sits behind an equal pair
    by_pair = np.lexsort((annotators, rows))
    r, a = rows[by_pair], annotators[by_pair]
    k = by_pair[1:][(r[1:] == r[:-1]) & (a[1:] == a[:-1])].min()
    with pytest.raises(InvalidInputError,
                       match=f"^label {k} \\(row {rows[k]}, annotator "
                             f"{annotators[k]}, value "):
        CrowdDataset(X, rows, annotators, values, m)


@st.composite
def symmetric_matrices(draw):
    """A symmetric d x d matrix, d in 1..16: B B' + shift I with a shift that
    leaves it positive definite, near singular or indefinite."""
    d = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    B = rng.normal(size=(d, d)) * draw(st.sampled_from([1e-3, 1.0, 30.0]))
    gram = B @ B.T
    low = np.linalg.eigvalsh(gram)[0]
    shift = draw(st.sampled_from([1.0, 1e-12, 0.0, -1e-12, -1.0]))
    prec = gram + (shift * max(abs(low), 1.0) - low) * np.eye(d)
    return 0.5 * (prec + prec.T), rng


def scipy_factor(prec):
    """The factor from scipy's wrapper, or None where it raises."""
    try:
        return cho_factor(prec, lower=True)
    except LinAlgError:
        return None


@PROPERTY
@given(symmetric_matrices())
def test_cholesky_path_equals_scipy_wrappers(problem):
    prec, rng = problem
    d = prec.shape[0]
    reference = scipy_factor(prec)
    if reference is None:  # dposv fails where scipy's factorization does
        with pytest.raises(NumericalFailureError, match="not positive"):
            model._cholesky(prec, "not positive definite",
                            np.asfortranarray(rng.normal(size=(d, d + 1))))
        with pytest.raises(NumericalFailureError):
            WeightPosterior(np.zeros(d), prec)
        return
    post = WeightPosterior(rng.normal(size=d), prec)
    assert np.array_equal(post._factor, reference[0])
    # the sweep's right-hand side [P mean | I]; columns 1..d are the inverse
    sol = cho_solve(reference,
                    np.column_stack([post.precision @ post.mean, np.eye(d)]))
    assert np.array_equal(post.covariance, 0.5 * (sol[:, 1:] + sol[:, 1:].T))
    # the variance is x' cov x, spelled as select_instance spells it
    rows = rng.normal(size=(int(rng.integers(1, 40)), d))
    assert [predictive(x, post)[1] for x in rows] == [
        max(np.einsum("ij,ij->i", x[None] @ post.covariance, x[None])[0], 0.0)
        for x in rows]


@PROPERTY
@given(symmetric_matrices(), st.sampled_from([1e-6, 1.0, 1e6]))
def test_covariance_bits_do_not_depend_on_the_first_column(problem, scale):
    # the fit solves [P0 mu0 + E X'y | I] and the constructor [P mean | I],
    # both by dposv: one covariance holds only if column 0 leaves the
    # factor and columns 1..d alone
    prec, rng = problem
    assume(scipy_factor(prec) is not None)
    d = prec.shape[0]

    def solved(b):
        rhs = np.empty((d, d + 1), order="F")
        rhs[:, 0], rhs[:, 1:] = b, np.eye(d)
        return model._cholesky(prec, "", rhs)[1:]

    factor, cov = solved(scale * rng.normal(size=d))
    for column in (np.zeros(d), rng.normal(size=d)):
        again = solved(column)
        assert np.array_equal(again[0], factor)
        assert np.array_equal(again[1], cov)
    post = WeightPosterior(rng.normal(size=d), prec)
    assert np.array_equal(post._factor, factor)
    assert np.array_equal(post.covariance, cov)


@PROPERTY
@given(symmetric_matrices(), st.sampled_from([np.nan, np.inf, -np.inf]),
       st.data())
def test_cholesky_rejects_non_finite_entries(problem, bad, data):
    prec, _ = problem
    d = prec.shape[0]
    i, j = data.draw(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)))
    prec = prec.copy()
    prec[i, j] = bad  # the upper triangle too, which dposv does not read
    with pytest.raises(NumericalFailureError, match="not finite"):
        model._cholesky(prec, "not finite",
                        np.asfortranarray(np.ones((d, d + 1))))
    with pytest.raises(InvalidInputError):
        WeightPosterior(np.zeros(d), prec)


def scipy_weight_step(stats, e, prior):
    """The weight step as scipy's Cholesky wrappers computed it."""
    grams, xty, _, _ = stats
    prec = prior.precision + (e @ grams).reshape(prior.dim, prior.dim)
    prec = 0.5 * (prec + prec.T)
    factor = cho_factor(prec, lower=True)
    sol = cho_solve(factor, np.column_stack([
        prior.precision @ prior.mean + e @ xty, np.eye(prior.dim)]))
    return sol[:, 0], prec, factor[0], 0.5 * (sol[:, 1:] + sol[:, 1:].T)


@PROPERTY
@given(labeled_problems(max_d=16))
def test_weight_step_equals_scipy_wrappers(problem):
    X, m, labels, rng = problem
    assume(labels[0].size)
    ds = CrowdDataset(X, *labels, m)
    prior = random_weights(rng, X.shape[1])
    e = random_gamma(rng, m).shape
    step = model._weight_step(ds._suffstats, e, prior)
    for got, want in zip(step, scipy_weight_step(ds._suffstats, e, prior)):
        assert np.array_equal(got, want)


@PROPERTY
@given(labeled_problems(max_d=16), st.integers(1, 4))
def test_fitted_posterior_equals_public_constructor(problem, sweeps):
    # the fit reuses its last sweep's factor and covariance, and its rates,
    # frozen in place; the public constructors recompute or check them
    X, m, labels, rng = problem
    assume(labels[0].size)
    ds = CrowdDataset(X, *labels, m)
    d = X.shape[1]
    weights, gammas, _ = fit_variational(ds, random_weights(rng, d),
                                         random_gamma(rng, m),
                                         max_sweeps=sweeps)
    public = WeightPosterior(weights.mean, weights.precision)
    assert np.array_equal(weights._factor, public._factor)
    assert np.array_equal(weights.covariance, public.covariance)
    rows = rng.normal(size=(int(rng.integers(1, 40)), d))
    assert ([predictive(x, weights)[1] for x in rows]
            == [predictive(x, public)[1] for x in rows])
    checked = PrecisionPosterior(gammas.shape, gammas.rate)
    for name in ("shape", "rate"):
        got, want = getattr(gammas, name), getattr(checked, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for a in (weights.mean, weights.precision, weights._factor,
              weights.covariance, gammas.shape, gammas.rate):
        assert not a.flags.writeable


@st.composite
def sweep_problems(draw):
    """Statistics of flat labels over d <= 16 features and m <= 64
    annotators (at least one label), a weight prior, Gamma priors and the
    generator that drew them."""
    d, m, n = (draw(st.integers(1, 16)), draw(st.integers(1, 64)),
               draw(st.integers(1, 12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labeled = rng.random((m, n)) < rng.uniform(0.1, 1.0)
    labeled[rng.integers(m), rng.integers(n)] = True
    annotators, rows = np.nonzero(labeled)
    order = rng.permutation(rows.size)
    ds = CrowdDataset(rng.normal(size=(n, d)), rows[order], annotators[order],
                      rng.normal(scale=3.0, size=rows.size), m)
    return ds._suffstats, random_weights(rng, d), random_gamma(rng, m), rng


# Reference spellings of the sweep's pieces: ``@`` products, a Python float
# 0.5, keyword LAPACK calls, dpotrf then dpotrs (from scipy.linalg.lapack,
# whose extension functions model.py loads), and isfinite().all().
# model.py reaches the same float operations through fewer, cheaper calls,
# and the property below holds it to these bits.

def reference_weight_step(stats, e, prior):
    grams, xty, _, _ = stats
    d = prior.dim
    prec = (e @ grams).reshape(d, d)
    prec += prior.precision
    sym = prec + prec.T
    sym *= 0.5
    factor, info = lapack.dpotrf(sym, lower=1, clean=0)
    assert info == 0
    sol = prior._rhs.copy(order="F")
    sol[:, 0] += e @ xty
    sol, _ = lapack.dpotrs(factor, sol, lower=1, overwrite_b=1)
    cov = sol[:, 1:] + sol[:, 1:].T
    cov *= 0.5
    return sol[:, 0], sym, factor, cov


def reference_rate_step(stats, mean, cov, prior_rates):
    grams, xty, ysq, _ = stats
    moment = mean[:, None] * mean
    moment += cov
    rates = xty @ mean
    rates *= 2.0
    np.subtract(ysq, rates, out=rates)
    rates += grams @ moment.ravel()
    rates *= 0.5
    rates += prior_rates
    return rates


def reference_elbo(shapes, rates, q, prior):
    mean, _, factor, cov = q
    dm = mean - prior.mean
    return float(-shapes @ np.log(rates)
                 - np.add.reduce(np.log(factor.diagonal()))
                 - 0.5 * (np.add.reduce(prior.precision * cov, axis=None)
                          + dm @ prior.precision @ dm))


def reference_squarem(r0, r1, r2):
    """``(v'v, trial)``, the trial None when ``v'v`` is not > 0."""
    s, v = r1 - r0, r2 - 2.0 * r1 + r0
    vv = v @ v
    if not vv > 0:
        return vv, None
    alpha = min(-1.0, -math.sqrt((s @ s) / vv))
    return vv, r0 - 2.0 * alpha * s + alpha * alpha * v


def reference_squarem_rates(r0, r1, r2):
    trial = reference_squarem(r0, r1, r2)[1]
    if trial is not None and np.isfinite(trial).all() and trial.min() > 0:
        return trial
    return None


def same_bits(got, want):
    if want is None or got is None:
        return got is want
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


@PROPERTY
@given(sweep_problems())
def test_sweep_pieces_equal_the_reference_spellings_to_the_bit(problem):
    stats, prior, gammas, rng = problem
    shapes = gammas.shape + stats[3] / 2.0
    iterates = [gammas.rate]
    for _ in range(3):  # three sweeps: r0 -> r1 -> r2 -> r3
        e = shapes / iterates[-1]
        q = model._weight_step(stats, e, prior)
        assert all(map(same_bits, q, reference_weight_step(stats, e, prior)))
        new = model._rate_step(stats, q[0], q[3], gammas.rate)
        assert same_bits(new, reference_rate_step(stats, q[0], q[3],
                                                  gammas.rate))
        assert (model._elbo(shapes, new, q, prior).hex()
                == reference_elbo(shapes, new, q, prior).hex())
        iterates.append(new)
    # the fit's own iterates, then ones whose extrapolation may leave (0, inf)
    m = shapes.size
    for r in (iterates[1:], rng.uniform(0.01, 3.0, size=(3, m)),
              gammas.rate * rng.uniform(0.5, 2.0, size=(3, m))):
        assert same_bits(model._squarem_rates(*r),
                         reference_squarem_rates(*r))


@pytest.mark.parametrize("r0, r1, r2, fault", [
    ([1.0, 2.0], [1.0, 2.0], [1.0, 2.0], "v = 0"),
    ([1.0, 2.0], [1.5, 2.5], [2.0, 3.0], "v = 0"),
    ([1.0, 1.0], [0.5, 1.0], [0.1, 1.0], "negative"),
    ([1.0, 1.0], [0.5, 1.0], [0.25, 1.0], "zero"),
    ([1.0, 1e-150], [1e8 + 1, 1e-150], [2e8 + 1, 0.5e-150], "nan"),
    ([1.0], [1e154], [2e154], "+inf"),
    ([1.0, 2.0], [1.5, 2.2], [1.7, 2.3], None),
], ids=["constant", "linear", "negative", "zero", "nan", "inf", "kept"])
def test_squarem_returns_only_a_finite_positive_trial(r0, r1, r2, fault):
    r0, r1, r2 = map(np.array, (r0, r1, r2))
    with np.errstate(over="ignore", invalid="ignore"):
        vv, trial = reference_squarem(r0, r1, r2)
        got = model._squarem_rates(r0, r1, r2)
    # each case has the one fault it names, so it reaches that check
    faults = {"v = 0": vv == 0.0}
    if trial is not None:
        faults.update({"negative": (trial < 0).any(),
                       "zero": (trial == 0).any(),
                       "nan": np.isnan(trial).any(),
                       "+inf": np.isposinf(trial).any()})
    assert [name for name, found in faults.items() if found] == (
        [fault] if fault else [])
    if fault:
        assert got is None
    else:
        assert same_bits(got, trial)


def sweep_arrays(weights):
    """A weight posterior as the (mean, precision, factor, covariance) tuple
    that the sweep passes to ``model._elbo``."""
    return (weights.mean, weights.precision, weights._factor,
            weights.covariance)


def full_elbo(X, labels, weights, gammas, prior, pprior):
    """The whole evidence lower bound (Bishop, PRML section 10.3, with one
    Gamma precision per annotator), term by term from the raw labels."""
    mean, cov = weights.mean, weights.covariance
    a, r, a0, b0 = gammas.shape, gammas.rate, pprior.shape, pprior.rate
    e, log_beta = a / r, digamma(a) - np.log(r)  # E[beta], E[log beta]
    d, log_2pi = mean.size, np.log(2 * np.pi)
    labels_term = sum(
        0.5 * (log_beta[j] - log_2pi
               - e[j] * ((y - X[i] @ mean) ** 2 + X[i] @ cov @ X[i]))
        for i, j, y in zip(*labels))
    dm, p0 = mean - prior.mean, prior.precision
    weight_prior_term = 0.5 * (np.linalg.slogdet(p0)[1] - d * log_2pi
                               - np.trace(p0 @ cov) - dm @ p0 @ dm)
    gamma_prior_term = np.sum(a0 * np.log(b0) - gammaln(a0)
                              + (a0 - 1) * log_beta - b0 * e)
    weight_entropy = 0.5 * (d * (1 + log_2pi) + np.linalg.slogdet(cov)[1])
    gamma_entropy = np.sum(a - np.log(r) + gammaln(a) + (1 - a) * digamma(a))
    return (labels_term + weight_prior_term + gamma_prior_term
            + weight_entropy + gamma_entropy)


@PROPERTY
@given(labeled_problems(), st.lists(st.floats(0.05, 20.0), min_size=4,
                                    max_size=4, unique=True))
def test_elbo_is_the_full_bound_up_to_one_constant(problem, scales):
    # any q(w) from a weight step, with the rates that are optimal for it:
    # the short form differs from the full bound by the same constant
    X, m, labels, rng = problem
    ds = CrowdDataset(X, *labels, m)
    prior, pprior = random_weights(rng, X.shape[1]), random_gamma(rng, m)
    gaps, sizes = [], []
    for scale in scales:
        weights = vi_update_weights(ds, scale * rng.uniform(0.2, 1.0, m), prior)
        gammas = vi_update_precision(ds, weights, pprior)
        full = full_elbo(X, labels, weights, gammas, prior, pprior)
        gaps.append(model._elbo(gammas.shape, gammas.rate,
                                sweep_arrays(weights), prior) - full)
        sizes.append(abs(full))
    assert np.ptp(gaps) <= 1e-9 * (1.0 + max(sizes))


@PROPERTY
@given(labeled_problems(), st.floats(0.05, 20.0))
def test_elbo_never_decreases_across_plain_sweeps(problem, scale):
    X, m, labels, rng = problem
    ds = CrowdDataset(X, *labels, m)
    prior, pprior = random_weights(rng, X.shape[1]), random_gamma(rng, m)
    e = scale * rng.uniform(0.2, 1.0, m)
    bounds = []
    for _ in range(30):
        weights = vi_update_weights(ds, e, prior)
        gammas = vi_update_precision(ds, weights, pprior)
        bounds.append(model._elbo(gammas.shape, gammas.rate,
                                  sweep_arrays(weights), prior))
        e = gammas.shape / gammas.rate
    slack = 1e-9 * (1.0 + np.abs(bounds).max())
    assert np.all(np.diff(bounds) >= -slack)


def assert_close_to_max(got, want, rtol, scale=0.0):
    """Entry-wise agreement to ``rtol`` of the largest reference entry, or
    of ``scale`` when that is larger."""
    assert np.abs(got - want).max() <= rtol * max(np.abs(want).max(), scale)


@PROPERTY
@given(labeled_problems())
def test_accelerated_fit_reaches_the_plain_fixed_point(problem):
    X, m, labels, rng = problem
    ds = CrowdDataset(X, *labels, m)
    prior, pprior = random_weights(rng, X.shape[1]), random_gamma(rng, m)
    weights, gammas, report = fit_variational(ds, prior, pprior,
                                              tolerance=1e-10)
    assert report.converged

    # the reference stops at a relative rate change of 1e-11, above the
    # rounding noise of the rate update's cancelling terms
    plain = pprior
    for _ in range(10_000):
        plain_weights = vi_update_weights(ds, plain.shape / plain.rate, prior)
        rates = plain.rate
        plain = vi_update_precision(ds, plain_weights, pprior)
        if (np.abs(plain.rate - rates) / plain.rate).max() < 1e-11:
            break
    else:
        pytest.fail("the plain sweeps did not settle in 10,000 sweeps")

    # a posterior mean near zero is compared on the scale of the posterior
    # standard deviation: a mean of 3e-4 can carry an error of 2e-11
    sd = np.sqrt(plain_weights.covariance.diagonal()).max()
    assert_close_to_max(weights.mean, plain_weights.mean, 1e-8, sd)
    assert_close_to_max(weights.precision, plain_weights.precision, 1e-8)
    assert_close_to_max(gammas.rate, plain.rate, 1e-8)
    assert np.array_equal(gammas.shape, plain.shape)


@PROPERTY
@given(labeled_problems(), st.floats(0.2, 5.0))
def test_a_stabilised_step_is_kept_only_if_the_bound_does_not_fall(problem,
                                                                   spread):
    # force the extrapolation to a random point: the fourth sweep, F(trial),
    # is kept when its bound is not below the bound after the first sweep,
    # and the fit otherwise keeps the second plain step
    X, m, labels, rng = problem
    assume(labels[0].size)
    ds = CrowdDataset(X, *labels, m)
    prior, pprior = random_weights(rng, X.shape[1]), random_gamma(rng, m)

    def fit(sweeps):
        return fit_variational(ds, prior, pprior, tolerance=1e-300,
                               max_sweeps=sweeps)

    first_weights, first, _ = fit(1)
    _, plain, report = fit(3)
    assume(report.iterations == 3 and not report.converged)
    trial = plain.rate * spread ** rng.uniform(-1.0, 1.0, m)
    trial_weights = vi_update_weights(ds, plain.shape / trial, prior)
    stable = vi_update_precision(ds, trial_weights, pprior)
    gain = (model._elbo(stable.shape, stable.rate,
                        sweep_arrays(trial_weights), prior)
            - model._elbo(first.shape, first.rate,
                          sweep_arrays(first_weights), prior))
    assume(abs(gain) > 1e-9)

    with mock.patch.object(model, "_squarem_rates",
                           lambda r0, r1, r2: trial):
        weights, gammas, report = fit(4)
    assert report.iterations == 4
    kept = stable if gain >= 0 else plain
    assert np.array_equal(gammas.rate, kept.rate)
    if gain >= 0:
        assert np.array_equal(weights.mean, trial_weights.mean)


@PROPERTY
@given(labeled_problems(), st.sampled_from([2.0 ** -10, 2.0 ** 10]))
def test_the_stop_does_not_depend_on_the_label_units(problem, c):
    # labels, prior mean and prior rates in units scaled by a power of two:
    # the weights scale by c and the rates by c^2 exactly, and the relative
    # stop takes the same number of sweeps
    X, m, labels, rng = problem
    prior, pprior = random_weights(rng, X.shape[1]), random_gamma(rng, m)
    rows, annotators, values = labels
    weights, gammas, report = fit_variational(
        CrowdDataset(X, rows, annotators, values, m), prior, pprior)
    scaled = CrowdDataset(X, rows, annotators, c * values, m)
    s_weights, s_gammas, s_report = fit_variational(
        scaled, WeightPosterior(c * prior.mean, prior.precision / c ** 2),
        PrecisionPosterior(pprior.shape, c ** 2 * pprior.rate))
    assert (s_report.iterations, s_report.converged) == (report.iterations,
                                                         report.converged)
    np.testing.assert_allclose(s_weights.mean, c * weights.mean, rtol=1e-12,
                               atol=1e-12 * c)
    np.testing.assert_allclose(s_gammas.rate, c ** 2 * gammas.rate,
                               rtol=1e-12)


@PROPERTY
@given(labeled_problems())
def test_the_bound_is_computed_once_per_kept_state(problem):
    # a kept stabilising sweep's bound is the next cycle's bound at r0: no
    # weight step's arrays reach the bound twice
    X, m, labels, rng = problem
    ds = CrowdDataset(X, *labels, m)
    prior, pprior = random_weights(rng, X.shape[1]), random_gamma(rng, m)
    seen = []

    def spy(shapes, rates, q, weight_prior):
        seen.append(q)
        return elbo(shapes, rates, q, weight_prior)

    elbo = model._elbo
    with mock.patch.object(model, "_elbo", spy):
        spied = fit_variational(ds, prior, pprior, tolerance=1e-12)
    assert len({id(q) for q in seen}) == len(seen)
    weights, gammas, report = fit_variational(ds, prior, pprior,
                                              tolerance=1e-12)
    assert report == spied[2]
    assert np.array_equal(gammas.rate, spied[1].rate)
    assert np.array_equal(weights.mean, spied[0].mean)
