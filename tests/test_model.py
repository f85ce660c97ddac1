import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdreg import (
    CrowdDataset,
    InvalidInputError,
    NumericalFailureError,
    PrecisionPosterior,
    WeightPosterior,
    default_precision_priors,
    default_weight_prior,
    expected_precision,
    fit_variational,
    predictive,
    vi_update_precision,
    vi_update_weights,
)


def one_label_dataset():
    return CrowdDataset(np.array([[1.0, 0.0]]), {(0, 0): 2.0}, 1)


class TestCrowdDataset:
    def test_label_counts_match_labels(self):
        X = np.arange(6.0).reshape(3, 2)
        ds = CrowdDataset(X, {(0, 1): 1.0, (2, 0): -1.0}, 2)
        assert np.array_equal(ds.label_counts, [1, 1])
        assert ds.label_counts.sum() == ds.total_labels == 2

    def test_with_label_leaves_original_untouched(self):
        ds = CrowdDataset(np.ones((2, 2)), {(0, 0): 2.0}, 2)
        grown = ds.with_label(1, 1, 3.0)
        assert grown.total_labels == 2 and ds.total_labels == 1
        with pytest.raises(InvalidInputError):
            grown.with_label(1, 1, 4.0)

    def test_rejects_out_of_range_keys(self):
        with pytest.raises(InvalidInputError):
            CrowdDataset(np.ones((2, 2)), {(5, 0): 1.0}, 1)
        with pytest.raises(InvalidInputError):
            CrowdDataset(np.ones((2, 2)), {(0, 3): 1.0}, 1)


class TestWeightPosterior:
    def test_rejects_asymmetric_precision(self):
        with pytest.raises(InvalidInputError):
            WeightPosterior(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite_precision(self):
        with pytest.raises(NumericalFailureError):
            WeightPosterior(np.zeros(2), -np.eye(2))

    def test_quadform_matches_direct_solve(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(4, 4))
        prec = A @ A.T + 0.5 * np.eye(4)
        post = WeightPosterior(np.zeros(4), prec)
        x = rng.normal(size=4)
        assert post.quadform(x) == pytest.approx(x @ np.linalg.solve(prec, x))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_quadform_rejects_non_finite_input(self, bad):
        post = default_weight_prior(3)
        with pytest.raises(InvalidInputError):
            post.quadform(np.array([1.0, bad, 0.0]))
        with pytest.raises(InvalidInputError):
            post.quadform(np.array([0.0, 0.0, bad]))

    def test_quadform_takes_one_vector(self):
        post = default_weight_prior(3)
        with pytest.raises(InvalidInputError, match="expects a vector"):
            post.quadform(np.eye(3))


class TestWeightUpdate:
    def test_no_labels_returns_prior_exactly(self):
        ds = CrowdDataset(np.ones((3, 2)), {}, 2)
        prior = WeightPosterior(np.array([0.3, -0.7]), np.diag([2.0, 5.0]))
        out = vi_update_weights(ds, [1.0, 1.0], prior)
        assert out is prior

    def test_single_observation_hand_values(self):
        # identity prior, one label y=2 on x=(1,0) with unit precision
        out = vi_update_weights(one_label_dataset(), [1.0],
                                default_weight_prior(2))
        assert np.allclose(out.precision, np.diag([2.0, 1.0]))
        assert np.allclose(out.mean, [1.0, 0.0])

    def test_zero_precision_annotator_contributes_nothing(self):
        prior = default_weight_prior(2)
        out = vi_update_weights(one_label_dataset(), [0.0], prior)
        assert out is prior

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            vi_update_weights(one_label_dataset(), [1.0],
                              default_weight_prior(3))
        with pytest.raises(InvalidInputError):
            vi_update_weights(one_label_dataset(), [1.0, 2.0],
                              default_weight_prior(2))

    def test_precision_gain_is_psd(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 3))
        labels = {(i, i % 2): float(rng.normal()) for i in range(20)}
        ds = CrowdDataset(X, labels, 2)
        prior = default_weight_prior(3)
        out = vi_update_weights(ds, [0.5, 2.0], prior)
        eigs = np.linalg.eigvalsh(out.precision - prior.precision)
        assert eigs.min() >= -1e-9


class TestPrecisionUpdate:
    def test_no_labels_returns_prior(self):
        # annotator 1 has no labels: its entries keep the prior values exactly
        ds = CrowdDataset(np.ones((2, 2)), {(0, 0): 1.0}, 2)
        prior = PrecisionPosterior([1.0, 2.0], [1.0, 3.0])
        out = vi_update_precision(ds, default_weight_prior(2), prior)
        assert (out.shape[1], out.rate[1]) == (2.0, 3.0)
        assert out.shape[0] == 1.5

    def test_shape_gains_half_label_count(self):
        X = np.ones((4, 2))
        labels = {(i, 0): 1.0 for i in range(4)}
        ds = CrowdDataset(X, labels, 1)
        out = vi_update_precision(ds, default_weight_prior(2),
                                  PrecisionPosterior([1.0], [1.0]))
        assert out.shape[0] == pytest.approx(3.0)

    def test_exact_fit_rate_hand_value(self):
        # x=(1,0), y=1, mean=(1,0), near-zero covariance: the expected squared
        # residual vanishes and the rate stays at the prior value 1
        ds = CrowdDataset(np.array([[1.0, 0.0]]), {(0, 0): 1.0}, 1)
        weights = WeightPosterior(np.array([1.0, 0.0]), 1e14 * np.eye(2))
        out = vi_update_precision(ds, weights, PrecisionPosterior([1.0], [1.0]))
        assert out.shape[0] == pytest.approx(1.5)
        assert out.rate[0] == pytest.approx(1.0, abs=1e-10)

    def test_wrong_length_prior_rejected(self):
        # one annotator, two prior factors; a length-1 prior for two
        # annotators would otherwise broadcast silently
        with pytest.raises(InvalidInputError):
            vi_update_precision(one_label_dataset(), default_weight_prior(2),
                                default_precision_priors(2))
        ds = CrowdDataset(np.ones((2, 2)), {(0, 0): 1.0}, 2)
        with pytest.raises(InvalidInputError):
            vi_update_precision(ds, default_weight_prior(2),
                                default_precision_priors(1))


class TestExpectedPrecision:
    @pytest.mark.parametrize("shape,rate,value", [
        (2.0, 4.0, 0.5),
        (3.0, 3.0, 1.0),
        (3.0, 1.5, 2.0),
    ])
    def test_definition(self, shape, rate, value):
        got = expected_precision(PrecisionPosterior([shape, 1.0], [rate, 1.0]))
        assert got.tolist() == [value, 1.0]

    def test_invalid_parameters_rejected(self):
        for shape, rate in [([0.0], [1.0]), ([1.0], [-2.0]),
                            ([1.0, np.nan], [1.0, 1.0]), ([1.0], [np.inf]),
                            ([1.0, 1.0], [1.0]), (1.0, 1.0), ([[1.0]], [[1.0]])]:
            with pytest.raises(InvalidInputError):
                PrecisionPosterior(shape, rate)

    def test_vectors_are_read_only_copies(self):
        shape = np.array([2.0, 3.0])
        post = PrecisionPosterior(shape, [1.0, 1.0])
        shape[0] = 5.0
        assert post.shape.tolist() == [2.0, 3.0]
        with pytest.raises(ValueError):
            post.rate[0] = 2.0


class TestFitVariational:
    def test_empty_dataset_converges_to_priors(self):
        ds = CrowdDataset(np.ones((3, 2)), {}, 2)
        wprior = default_weight_prior(2)
        pprior = default_precision_priors(2)
        weights, precisions, report = fit_variational(ds, wprior, pprior)
        assert weights is wprior
        assert np.array_equal(precisions.shape, pprior.shape)
        assert np.array_equal(precisions.rate, pprior.rate)
        assert report.converged and report.iterations == 1

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 5), n=st.integers(1, 40),
           beta=st.floats(0.1, 10.0), seed=st.integers(0, 2**32 - 1))
    def test_matches_closed_form_single_source(self, d, n, beta, seed):
        # with the annotator precision pinned, the weight factor must agree
        # with the conjugate Gaussian posterior
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        w = rng.normal(size=d)
        y = X @ w + rng.normal(0, 1 / np.sqrt(beta), n)
        ds = CrowdDataset(X, {(i, 0): float(y[i]) for i in range(n)}, 1)
        pinned = PrecisionPosterior([1e12 * beta], [1e12])
        weights, _, report = fit_variational(ds, default_weight_prior(d), pinned)
        lam = np.eye(d) + beta * X.T @ X
        mu = np.linalg.solve(lam, beta * X.T @ y)
        assert report.converged
        assert np.abs(weights.mean - mu).max() < 1e-8
        assert np.abs(weights.precision - lam).max() < 1e-8 * np.abs(lam).max()

    def test_warm_start_at_fixed_point_converges_immediately(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 2))
        labels = {(i, i % 2): float(X[i, 0] + rng.normal()) for i in range(30)}
        ds = CrowdDataset(X, labels, 2)
        wprior = default_weight_prior(2)
        pprior = default_precision_priors(2)
        weights, precisions, first = fit_variational(ds, wprior, pprior,
                                                     tolerance=1e-10)
        assert first.converged
        again, precisions2, report = fit_variational(
            ds, wprior, pprior, tolerance=1e-8,
            warm_start=(weights, precisions),
        )
        assert report.converged and report.iterations == 1
        assert np.abs(again.mean - weights.mean).max() < 1e-8

    def test_first_sweep_after_a_new_label_never_converges(self):
        # a label the warm start predicts exactly barely moves the rates, but
        # it raises its annotator's shape: the first sweep's weights used the
        # old expected precision, so only a second sweep may converge
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 2))
        labels = {(i, i % 2): float(X[i, 0] + rng.normal()) for i in range(30)}
        ds = CrowdDataset(X, labels, 2)
        wprior = default_weight_prior(2)
        pprior = default_precision_priors(2)
        weights, precisions, _ = fit_variational(ds, wprior, pprior,
                                                 tolerance=1e-10)
        grown = ds.with_label(0, 1, float(X[0] @ weights.mean))
        reports = [fit_variational(grown, wprior, pprior, tolerance=0.05,
                                   max_sweeps=sweeps,
                                   warm_start=(weights, precisions))[2]
                   for sweeps in (1, 2)]
        assert reports[0].final_delta < 0.05 and not reports[0].converged
        assert reports[1].converged and reports[1].iterations == 2

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(25, 3))
        labels = {(i, i % 3): float(rng.normal()) for i in range(25)}
        ds = CrowdDataset(X, labels, 3)
        run = lambda: fit_variational(ds, default_weight_prior(3),
                                      default_precision_priors(3))
        w1, p1, _ = run()
        w2, p2, _ = run()
        assert np.array_equal(w1.mean, w2.mean)
        assert np.array_equal(w1.precision, w2.precision)
        assert np.array_equal(p1.shape, p2.shape)
        assert np.array_equal(p1.rate, p2.rate)

    def test_determinant_grows_with_observations(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(40, 3))
        ds = CrowdDataset(X, {}, 1)
        logdets = []
        for i in range(0, 40, 8):
            for k in range(i, i + 8):
                ds = ds.with_label(k, 0, float(rng.normal()))
            weights, _, _ = fit_variational(ds, default_weight_prior(3),
                                            default_precision_priors(1))
            logdets.append(np.linalg.slogdet(weights.precision)[1])
        assert np.all(np.diff(logdets) > -1e-12)

    def test_estimate_tightens_with_more_data(self):
        # quick consistency probe; the full check lives in the acceptance suite
        errs = []
        for n in (60, 600):
            per_seed = []
            for seed in range(3):
                rng = np.random.default_rng([seed, 21])
                w = rng.normal(size=4)
                X = rng.normal(size=(n, 4))
                labels = {(i, i % 2): float(X[i] @ w + rng.normal(0, 0.5))
                          for i in range(n)}
                ds = CrowdDataset(X, labels, 2)
                wp, _, _ = fit_variational(ds, default_weight_prior(4),
                                           default_precision_priors(2))
                per_seed.append(np.linalg.norm(wp.mean - w))
            errs.append(np.mean(per_seed))
        assert errs[1] < errs[0]

    def test_invalid_arguments(self):
        ds = one_label_dataset()
        with pytest.raises(InvalidInputError):
            fit_variational(ds, default_weight_prior(2),
                            default_precision_priors(2))
        with pytest.raises(InvalidInputError):
            fit_variational(ds, default_weight_prior(2),
                            default_precision_priors(1), tolerance=0.0)
        with pytest.raises(InvalidInputError):
            fit_variational(ds, default_weight_prior(2),
                            default_precision_priors(1), max_sweeps=0)


class TestPredictive:
    def test_identity_posterior(self):
        mean, var = predictive(np.array([3.0, 4.0]), default_weight_prior(2))
        assert (mean, var) == (0.0, 25.0)

    def test_hand_value(self):
        post = WeightPosterior(np.array([1.0, 1.0]), np.eye(2))
        mean, var = predictive(np.array([1.0, -1.0]), post)
        assert mean == pytest.approx(0.0)
        assert var == pytest.approx(2.0)

    def test_zero_vector_degenerate(self):
        assert predictive(np.zeros(2), default_weight_prior(2)) == (0.0, 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            predictive(np.zeros(3), default_weight_prior(2))
