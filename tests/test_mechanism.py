import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdreg import (
    AnnotatorProfile,
    CostFunction,
    InvalidInputError,
    PaymentScheme,
    PrecisionPosterior,
    optimal_effort,
    payment,
    settle,
    utility,
)


class TestPayment:
    scheme = PaymentScheme(10.0, 1.0, 3.0)

    def test_floor_of_band_pays_nothing(self):
        assert payment(1.0, self.scheme) == 0.0

    def test_at_or_above_ceiling_pays_budget(self):
        assert payment(3.0, self.scheme) == 10.0
        assert payment(50.0, self.scheme) == 10.0

    def test_linear_interpolation(self):
        assert payment(2.0, self.scheme) == pytest.approx(5.0)

    def test_monotone_bounded_lipschitz(self):
        grid = np.linspace(0.0, 6.0, 400)
        vals = payment(grid, self.scheme)
        assert np.all(np.diff(vals) >= 0)
        assert vals.min() >= 0.0 and vals.max() <= self.scheme.budget
        slope = self.scheme.budget / (self.scheme.beta_upper -
                                      self.scheme.beta_lower)
        steps = np.abs(np.diff(vals)) / np.diff(grid)
        assert np.all(steps <= slope + 1e-9)

    def test_negative_estimate_rejected(self):
        with pytest.raises(InvalidInputError):
            payment(-0.1, self.scheme)

    @pytest.mark.parametrize("estimate", [np.nan, [2.0, np.nan]])
    def test_nan_estimate_rejected(self, estimate):
        with pytest.raises(InvalidInputError):
            payment(estimate, self.scheme)

    def test_scheme_validation(self):
        with pytest.raises(InvalidInputError):
            PaymentScheme(0.0, 1.0, 2.0)
        with pytest.raises(InvalidInputError):
            PaymentScheme(1.0, 2.0, 2.0)
        with pytest.raises(InvalidInputError, match="budget"):
            PaymentScheme(np.inf, 1.0, 2.0)
        with pytest.raises(InvalidInputError, match="beta_upper"):
            PaymentScheme(1.0, 1.0, np.inf)


class TestUtility:
    scheme = PaymentScheme(10.0, 1.0, 2.0)

    def test_zero_effort_zero_utility(self):
        assert utility(0.0, CostFunction("quadratic", (1.0,)), self.scheme) == 0.0

    def test_hand_value_at_band_top(self):
        got = utility(2.0, CostFunction("quadratic", (1.0,)), self.scheme)
        assert got == pytest.approx(6.0)  # 10 - 4

    def test_nan_effort_rejected(self):
        with pytest.raises(InvalidInputError):
            utility(np.nan, CostFunction("linear", (1.0,)), self.scheme)

    def test_non_numeric_effort_fails_located(self):
        with pytest.raises(InvalidInputError, match="beta_hat"):
            utility("a", CostFunction("linear", (1.0,)), self.scheme)

    def test_expensive_cost_never_profitable_above_floor(self):
        cost = CostFunction("linear", (15.0,))
        grid = np.linspace(1.0 + 1e-9, 4.0, 200)
        assert np.all(utility(grid, cost, self.scheme) < 0)


class TestSettle:
    scheme = PaymentScheme(10.0, 1.0, 3.0)

    def settle_one(self, shape, rate):
        return settle(PrecisionPosterior([shape], [rate]), self.scheme)

    def test_posterior_at_floor(self):
        assert self.settle_one(1.0, 1.0).tolist() == [0.0]

    def test_posterior_above_ceiling(self):
        assert self.settle_one(4.0, 1.0).tolist() == [10.0]

    def test_posterior_midband(self):
        assert self.settle_one(2.0, 1.0) == pytest.approx([5.0])

    def test_deterministic(self):
        post = PrecisionPosterior([2.7, 0.4], [1.3, 0.2])
        assert np.array_equal(settle(post, self.scheme),
                              settle(post, self.scheme))

    def test_one_payment_per_annotator(self):
        # the vector form pays each annotator exactly what the scalar
        # payment rule pays on its expected precision
        shape, rate = [1.0, 4.0, 2.0, 2.7, 0.3], [1.0, 1.0, 1.0, 1.3, 0.7]
        paid = settle(PrecisionPosterior(shape, rate), self.scheme)
        assert paid.tolist() == [payment(s / r, self.scheme)
                                 for s, r in zip(shape, rate)]


@settings(max_examples=100, deadline=None)
@given(st.floats(1e-6, 1e6), st.floats(1e-6, 1e3), st.floats(1e-6, 1e3),
       st.lists(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
                min_size=1, max_size=20))
def test_payment_bounded_and_nondecreasing(budget, lower, width, estimates):
    scheme = PaymentScheme(budget, lower, lower + width)
    ordered = np.sort(estimates)
    paid = payment(ordered, scheme)
    assert np.all((0.0 <= paid) & (paid <= budget))
    assert np.all(np.diff(paid) >= 0)
    scalars = [payment(float(b), scheme) for b in ordered]
    assert all(0.0 <= p <= budget for p in scalars)
    assert scalars == paid.tolist()


class TestIncentiveAudit:
    """Participation is voluntary and never loss-making, and any participant
    works strictly above the zero-pay band."""

    def test_audit_over_random_schemes_and_cost_families(self):
        rng = np.random.default_rng(101)
        saw_non_participation = 0
        for _ in range(25):
            lower = float(rng.uniform(0.2, 2.0))
            upper = lower + float(rng.uniform(0.5, 5.0))
            scheme = PaymentScheme(float(rng.uniform(1.0, 20.0)), lower, upper)
            costs = [
                CostFunction("linear", (2.0 * scheme.budget / lower,)),
                CostFunction("quadratic", (scheme.budget / (2 * upper**2),)),
                CostFunction("threshold",
                             (0.05 * scheme.budget / upper, 0.1, upper)),
            ]
            for cost in costs:
                profile = AnnotatorProfile(best_precision=2.0 * upper,
                                           cost=cost)
                effort, joined = optimal_effort(profile, scheme)
                if joined:
                    assert utility(effort, cost, scheme) >= 0
                    assert effort > scheme.beta_lower
                else:
                    assert effort == 0.0
                    saw_non_participation += 1
        assert saw_non_participation >= 25  # the overpriced family opts out
