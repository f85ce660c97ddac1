import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdreg import (
    BanditState,
    InvalidInputError,
    RegretLedger,
    initialize_state,
    record_outcome,
    regret_bound,
    regret_seq,
    select_annotator,
    truncated_mean,
    truncation_threshold,
    ucb_index,
)


def played_state(m=2, u=1.0, horizon=None, t=1):
    state = BanditState(m, u, horizon=horizon)
    state.t = t  # direct round override for threshold-only checks
    return state


class TestTruncationThreshold:
    def test_unit_factors(self):
        state = played_state(u=1.0, t=1)
        assert truncation_threshold(state, delta=math.exp(-1)) == pytest.approx(1.0)

    def test_scalar_hand_value(self):
        state = played_state(u=4.0, t=9)
        assert truncation_threshold(state, delta=math.exp(-1)) == pytest.approx(6.0)

    def test_nondecreasing_under_fixed_horizon(self):
        state = BanditState(2, 2.0, horizon=100)
        values = []
        for t in range(1, 50):
            state.t = t
            values.append(truncation_threshold(state))
        assert np.all(np.diff(values) > 0)

    def test_anytime_policy_uses_current_round(self):
        state = played_state(u=1.0, t=5)
        assert truncation_threshold(state) == pytest.approx(
            math.sqrt(5.0 / (2 * math.log(5))))

    def test_requires_at_least_one_round(self):
        with pytest.raises(InvalidInputError):
            truncation_threshold(BanditState(2, 1.0))


class TestTruncatedMean:
    def test_no_truncation(self):
        assert truncated_mean([-1.0, -2.0], 10.0) == (-1.5, 2)

    def test_outlier_dropped(self):
        assert truncated_mean([-1.0, -2.0, -100.0], 10.0) == (-1.5, 2)

    def test_empty_acceptance_gives_zero(self):
        assert truncated_mean([-100.0], 10.0) == (0.0, 0)

    def test_threshold_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            truncated_mean([-1.0], 0.0)


class TestUcbIndex:
    def test_unpulled_is_infinite(self):
        assert ucb_index(BanditState(3, 1.0), 1) == math.inf

    def test_width_formula(self):
        # with u=1 and 32 pulls the width reduces to sqrt(log t)
        state = BanditState(1, 1.0)
        state.pulls[0] = 32
        state.truncated_means[0] = -1.0
        state.t = 3
        assert ucb_index(state, 0) == pytest.approx(-1.0 + math.sqrt(math.log(3)))

    def test_log_floor_at_round_one(self):
        state = BanditState(1, 1.0)
        state.pulls[0] = 1
        state.truncated_means[0] = -2.5
        state.t = 1
        assert ucb_index(state, 0) == pytest.approx(-2.5)


class TestSelectAnnotator:
    def test_all_unpulled_takes_first(self):
        assert select_annotator(BanditState(4, 1.0)) == 0

    def test_tie_breaks_to_lowest_index(self):
        state = BanditState(2, 1.0)
        state.pulls[:] = [5, 5]
        state.truncated_means[:] = [-1.0, -1.0]
        state.t = 10
        assert select_annotator(state) == 0

    def test_less_negative_mean_wins(self):
        state = BanditState(2, 1.0)
        state.pulls[:] = [4, 4]
        state.truncated_means[:] = [-1.0, -5.0]
        state.t = 8
        assert select_annotator(state) == 0

    def test_every_annotator_pulled_in_first_m_rounds(self):
        rng = np.random.default_rng(0)
        state = BanditState(6, 1.0, horizon=50)
        chosen = []
        for _ in range(6):
            j = select_annotator(state)
            chosen.append(j)
            record_outcome(state, j, float(rng.uniform(0, 0.5)))
        assert sorted(chosen) == list(range(6))


class TestRecordOutcome:
    def test_first_sample_within_threshold(self):
        state = BanditState(2, 10.0, horizon=100)
        record_outcome(state, 0, 0.25)
        assert state.pulls[0] == 1
        assert state.accepted_counts[0] == 1
        assert state.truncated_means[0] == pytest.approx(-0.25)
        assert state.discarded == 0

    def test_rejected_sample_counts_as_discarded(self):
        state = BanditState(1, 1.0)  # anytime: threshold at t=1 is ~0.849
        record_outcome(state, 0, 5.0)
        assert state.pulls[0] == 1
        assert state.accepted_counts[0] == 0
        assert state.truncated_means[0] == 0.0
        assert state.discarded == 1

    def test_rejected_sample_reenters_as_threshold_grows(self):
        # anytime thresholds: 0.8493 at t=1, 1.2011 at t=2; a magnitude-1
        # sample is rejected first and re-enters on the next refilter
        state = BanditState(1, 1.0)
        record_outcome(state, 0, 1.0)
        assert state.accepted_counts[0] == 0 and state.discarded == 1
        record_outcome(state, 0, 0.5)
        assert state.accepted_counts[0] == 2
        assert state.truncated_means[0] == pytest.approx(-0.75)
        assert state.discarded == 1  # re-entry does not undo the discard tally

    def test_discard_count_never_decreases(self):
        rng = np.random.default_rng(3)
        state = BanditState(3, 1.0, horizon=200)
        last = 0
        for _ in range(200):
            j = select_annotator(state)
            record_outcome(state, j, float(rng.normal() ** 2))
            assert state.discarded >= last
            last = state.discarded

    def test_return_is_the_acceptance_at_the_new_threshold(self):
        rng = np.random.default_rng(8)
        state = BanditState(3, 1.0, horizon=100)
        for _ in range(100):
            j = select_annotator(state)
            residual_sq = float(rng.exponential(2.0))
            accepted = record_outcome(state, j, residual_sq)
            assert accepted is (residual_sq <= truncation_threshold(state))

    def test_validates_input(self):
        state = BanditState(1, 1.0)
        with pytest.raises(InvalidInputError):
            record_outcome(state, 0, -1.0)
        with pytest.raises(InvalidInputError):
            record_outcome(state, 2, 1.0)


class TestInitializeState:
    def test_bulk_load_sets_counts_and_round(self):
        state = BanditState(2, 10.0, horizon=100)
        initialize_state(state, [[0.1, 0.2, 0.3], [0.4, 0.5]])
        assert state.t == 5
        assert list(state.pulls) == [3, 2]
        assert state.pulls.sum() == state.t
        assert state.truncated_means[0] == pytest.approx(-0.2)

    def test_out_of_threshold_samples_discarded(self):
        state = BanditState(1, 1.0, horizon=100)
        initialize_state(state, [[0.1, 50.0]])
        assert state.accepted_counts[0] == 1
        assert state.discarded == 1

    def test_refuses_used_state(self):
        state = BanditState(1, 1.0)
        record_outcome(state, 0, 0.1)
        with pytest.raises(InvalidInputError):
            initialize_state(state, [[0.2]])


residuals = st.floats(0.0, 50.0)


class TestDiscardedCount:
    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 4), u=st.floats(0.1, 10.0),
           horizon=st.none() | st.integers(2, 500), data=st.data())
    def test_counts_arrivals_outside_the_cutoff(self, m, u, horizon, data):
        state = BanditState(m, u, horizon=horizon)
        initialize_state(state, data.draw(
            st.lists(st.lists(residuals, max_size=4), min_size=m, max_size=m)))
        initial = state.discarded
        rejected = 0
        pulls = data.draw(st.lists(st.tuples(st.integers(0, m - 1), residuals),
                                   max_size=40))
        for j, residual_sq in pulls:
            before = state.discarded
            rejected += not record_outcome(state, j, residual_sq)
            assert state.discarded >= before
            assert state.discarded == initial + rejected

    def test_can_exceed_currently_excluded_samples(self):
        # anytime thresholds 0.8493 then 1.2011: the magnitude-1 sample is
        # discarded on arrival and re-enters the mean on the next pull
        state = BanditState(1, 1.0)
        assert record_outcome(state, 0, 1.0) is False
        assert record_outcome(state, 0, 0.5) is True
        assert state.pulls[0] - state.accepted_counts[0] == 0
        assert state.discarded == 1


class TestRegretAccounting:
    def test_equal_precisions_no_regret(self):
        ledger = RegretLedger.from_precisions([2.0, 2.0, 2.0])
        for j in (0, 1, 2, 1):
            ledger.record_pull(j)
        assert regret_seq(ledger) == 0.0

    def test_dot_product(self):
        ledger = RegretLedger(np.array([0.0, 1.0]), np.array([5, 3]))
        assert regret_seq(ledger) == 3.0

    def test_only_best_pulled(self):
        ledger = RegretLedger.from_precisions([4.0, 1.0])
        for _ in range(10):
            ledger.record_pull(0)
        assert regret_seq(ledger) == 0.0

    def test_variance_and_reward_ledgers_agree(self):
        # gaps from precisions and gaps from the matching mean rewards are the
        # same numbers, so both ledgers account the same pull sequence equally
        betas = np.array([4.0, 1.0, 0.5])
        by_precision = RegretLedger.from_precisions(betas)
        by_reward = RegretLedger.from_reward_means(-1.0 / betas)
        rng = np.random.default_rng(5)
        for j in rng.integers(0, 3, size=40):
            by_precision.record_pull(int(j))
            by_reward.record_pull(int(j))
        assert regret_seq(by_precision) == pytest.approx(regret_seq(by_reward))


class TestRegretBound:
    def test_all_gaps_zero(self):
        assert regret_bound([0.0, 0.0], 1.0, 100) == 0.0

    def test_scalar_hand_value(self):
        assert regret_bound([1.0], 1.0, math.e) == pytest.approx(37.0)

    def test_increasing_in_horizon(self):
        lo = regret_bound([0.5, 2.0], 2.0, 100)
        hi = regret_bound([0.5, 2.0], 2.0, 1000)
        assert hi > lo

    def test_horizon_floor(self):
        with pytest.raises(InvalidInputError):
            regret_bound([1.0], 1.0, 1.5)
