import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crowdreg import (
    InvalidInputError,
    PoolExhaustedError,
    WeightPosterior,
    det_shrinkage,
    error_contraction_bounds,
    predictive,
    select_instance,
)
from crowdreg.model import default_weight_prior


def random_posterior(rng, d):
    A = rng.normal(size=(d, d))
    prec = A @ A.T + 0.1 * np.eye(d)
    return WeightPosterior(rng.normal(size=d), prec)


class TestInstanceScore:
    """The per-point selection score x'Σx, read as predictive(x, w)[1]."""

    def test_identity_precision_gives_squared_norm(self):
        post = default_weight_prior(3)
        x = np.array([1.0, 2.0, 2.0])
        assert predictive(x, post)[1] == pytest.approx(9.0)

    def test_zero_vector(self):
        assert predictive(np.zeros(2), default_weight_prior(2))[1] == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            predictive(np.zeros(3), default_weight_prior(2))


class TestSelectInstance:
    def test_larger_norm_wins_under_identity(self):
        features = np.array([[1.0, 0.0], [2.0, 0.0]])
        assert select_instance([0, 1], features, default_weight_prior(2)) == 1

    def test_tie_breaks_to_lower_index(self):
        features = np.zeros((8, 2))
        features[[3, 7]] = [1.0, 1.0]
        assert select_instance([7, 3], features, default_weight_prior(2)) == 3

    def test_diagonal_hand_case(self):
        post = WeightPosterior(np.zeros(2), np.diag([1.0, 4.0]))
        features = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert select_instance([0, 1], features, post) == 0  # scores 1 vs 0.25

    def test_singleton_pool(self):
        features = np.zeros((6, 2))
        features[5] = [0.3, -0.4]
        assert select_instance([5], features, default_weight_prior(2)) == 5

    def test_empty_pool(self):
        with pytest.raises(PoolExhaustedError):
            select_instance([], np.ones((3, 2)), default_weight_prior(2))

    def test_scaling_invariance(self):
        rng = np.random.default_rng(6)
        post = random_posterior(rng, 3)
        features = rng.normal(size=(10, 3))
        candidates = np.arange(10)
        assert (select_instance(candidates, features, post)
                == select_instance(candidates, 7.5 * features, post))

    def test_rejects_candidates_outside_features(self):
        features = np.ones((3, 2))
        for bad in ([3], [-1], [[0, 1]], [1.0]):
            with pytest.raises(InvalidInputError):
                select_instance(bad, features, default_weight_prior(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_candidate_rows(self, bad):
        features = np.ones((4, 3))
        features[2, 1] = bad
        with pytest.raises(InvalidInputError):
            select_instance([0, 2], features, default_weight_prior(3))

    def test_rows_outside_candidates_are_not_checked(self):
        # the bad rows are scored with the rest but must not raise or warn
        features = np.ones((5, 3))
        features[1] = [np.inf, 1.0, -np.inf]
        features[3, 2] = np.nan
        features[4] = [3.0, 0.0, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert select_instance([0, 2, 4], features,
                                   default_weight_prior(3)) == 4

    def test_tie_at_the_block_edge_breaks_to_lower_index(self):
        # the top row sits at a low index and again at the last one, where a
        # matrix product runs its edge kernels
        rng = np.random.default_rng(21)
        post = random_posterior(rng, 16)
        features = rng.normal(size=(7001, 16))
        features[[5, 7000]] = 10.0 * features[0]
        candidates = np.arange(7001)[::-1]
        assert select_instance(candidates, features, post) == 5

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 16), st.integers(1, 300), st.data(),
           st.integers(0, 2**32 - 1))
    def test_picks_the_largest_predictive_variance(self, d, n, data, seed):
        rng = np.random.default_rng(seed)
        post = random_posterior(rng, d)
        features = rng.normal(size=(n, d))
        candidates = np.array(data.draw(st.lists(
            st.integers(0, n - 1), min_size=1, max_size=n, unique=True)))
        scores = np.array([predictive(features[c], post)[1]
                           for c in candidates])
        top = np.sort(scores)[::-1]
        # skip near-ties, where rounding may favour either candidate
        assume(top.size == 1 or top[0] - top[1] > 1e-9 * top[0])
        assert (select_instance(candidates, features, post)
                == candidates[np.argmax(scores)])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 30), st.floats(0.05, 10.0),
           st.integers(0, 2**32 - 1))
    def test_is_the_entropy_minimizer(self, d, k, beta, seed):
        # a label of precision beta on x turns P into P + beta x x', and the
        # Gaussian posterior's entropy falls as log det of that grows: for
        # any beta the choice is the dense log-det argmax
        rng = np.random.default_rng(seed)
        post = random_posterior(rng, d)
        features = rng.normal(size=(k, d))
        logdets = np.array([
            np.linalg.slogdet(post.precision + beta * np.outer(x, x))[1]
            for x in features])
        top = np.sort(logdets)[::-1]
        # skip near-ties, where rounding may favour either candidate
        assume(k == 1 or top[0] - top[1]
               > 1e-9 * max(abs(top[0]), abs(top[1]), 1.0))
        assert (select_instance(np.arange(k), features, post)
                == int(np.argmax(logdets)))


class TestDetShrinkage:
    def test_zero_vector_no_shrinkage(self):
        assert det_shrinkage(default_weight_prior(2), np.zeros(2), 1.0) == 1.0

    def test_rank_one_hand_value(self):
        out = det_shrinkage(default_weight_prior(2), np.array([1.0, 0.0]), 1.0)
        assert out == pytest.approx(0.5)

    def test_matches_dense_determinant_ratio(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            d = int(rng.integers(2, 11))
            post = random_posterior(rng, d)
            x = rng.normal(size=d)
            beta = float(rng.uniform(0.1, 5.0))
            shrink = det_shrinkage(post, x, beta)
            new_prec = post.precision + beta * np.outer(x, x)
            dense = np.linalg.det(post.precision) / np.linalg.det(new_prec)
            assert abs(shrink - dense) <= 1e-9 * abs(dense)

    def test_beta_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            det_shrinkage(default_weight_prior(2), np.ones(2), 0.0)


class TestErrorContraction:
    def test_zero_vector(self):
        lo, hi = error_contraction_bounds(default_weight_prior(2),
                                          np.zeros(2), 1.0)
        assert (lo, hi) == (1.0, 1.0)

    def test_hand_value(self):
        lo, hi = error_contraction_bounds(default_weight_prior(2),
                                          np.array([1.0, 0.0]), 3.0)
        assert lo == pytest.approx(0.25)
        assert hi == 1.0

    def test_lower_never_exceeds_upper(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            post = random_posterior(rng, 4)
            lo, hi = error_contraction_bounds(post, rng.normal(size=4),
                                              float(rng.uniform(0.1, 10)))
            assert 0.0 < lo <= hi == 1.0

    def test_monte_carlo_expected_error_within_bounds(self):
        # redraw the new label many times; the estimated contraction of the
        # expected-posterior error must fall in the predicted sandwich
        rng = np.random.default_rng(7)
        d, n0, beta0 = 4, 25, 2.0
        w_true = rng.normal(size=d)
        X0 = rng.normal(size=(n0, d))
        y0 = X0 @ w_true + rng.normal(0, 1 / np.sqrt(beta0), n0)
        prec = np.eye(d) + beta0 * X0.T @ X0
        mu = np.linalg.solve(prec, beta0 * X0.T @ y0)
        post = WeightPosterior(mu, prec)
        x_new = rng.normal(size=d)
        beta_new = 3.0
        lower, upper = error_contraction_bounds(post, x_new, beta_new)

        new_prec = prec + beta_new * np.outer(x_new, x_new)
        base = np.linalg.solve(new_prec, prec @ mu)
        gain = beta_new * np.linalg.solve(new_prec, x_new)
        draws = w_true @ x_new + rng.normal(0, 1 / np.sqrt(beta_new), 500)
        est = base + gain * draws.mean()
        ratio = np.linalg.norm(est - w_true) / np.linalg.norm(mu - w_true)
        mcerr = (np.linalg.norm(gain) / np.sqrt(beta_new) / np.sqrt(500)
                 / np.linalg.norm(mu - w_true))
        assert lower - 3 * mcerr <= ratio <= upper + 3 * mcerr
