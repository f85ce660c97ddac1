import heapq
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crowdreg import bandit
from crowdreg import (
    BanditState,
    InvalidInputError,
    RegretLedger,
    initialize_state,
    make_annotators,
    record_outcome,
    regret_bound,
    regret_seq,
    select_annotator,
    truncated_mean,
)


def played_state(m=2, u=1.0, horizon=2, t=1):
    state = BanditState(m, u, horizon=horizon)
    state.t = t  # direct round override for threshold-only checks
    return state


residuals = st.floats(0.0, 50.0)


class TestTruncationThreshold:
    def test_unit_factors(self):
        # log(1/delta) = 2 log 7, so u = 2 log 7 makes every factor one
        state = played_state(u=2 * math.log(7), horizon=7, t=1)
        assert bandit._cutoff(state, state.t) == pytest.approx(1.0)

    def test_scalar_hand_value(self):
        state = played_state(u=8 * math.log(3), horizon=3, t=9)
        assert bandit._cutoff(state, state.t) == pytest.approx(6.0)

    def test_nondecreasing_under_fixed_horizon(self):
        state = BanditState(2, 2.0, horizon=100)
        values = []
        for t in range(1, 50):
            state.t = t
            values.append(bandit._cutoff(state, state.t))
        assert np.all(np.diff(values) > 0)

    @pytest.mark.parametrize("horizon", [None, 1, 0, 10.0, 2.5])
    def test_horizon_must_be_an_integer_at_least_two(self, horizon):
        with pytest.raises(InvalidInputError):
            BanditState(2, 1.0, horizon=horizon)


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


@st.composite
def ucb_states(draw):
    """A hand-built state with few distinct pulls and means, so that equal
    indices (ties) are common.  Half the states have every arm pulled (the
    plain divide), a quarter have none pulled, which may still be at round
    0."""
    m = draw(st.integers(1, 60), label="m")
    counts = st.integers(0, 4) | st.integers(0, 10**6)
    if draw(st.booleans(), label="every arm pulled"):
        counts = st.integers(1, 4) | st.integers(1, 10**6)
    elif draw(st.booleans(), label="no arm pulled"):
        counts = st.just(0)
    pulls = draw(st.lists(counts, min_size=m, max_size=m), label="pulls")
    means = draw(st.lists(
        st.sampled_from([0.0, -0.5, -1.0]) | st.floats(-1e6, 1e6),
        min_size=m, max_size=m), label="means")
    state = BanditState(m, draw(st.floats(1e-3, 1e6), label="u"), horizon=10)
    state.pulls[:] = pulls
    state.truncated_means[:] = means
    state.t = draw(st.integers(0 if max(pulls) == 0 else 1, 10**9), label="t")
    return state


def tied_state(m):
    """``m`` arms pulled twice each, whose largest index is tied between arms
    5 and ``m - 1``."""
    state = BanditState(m, 1.0, horizon=10)
    state.pulls[:] = 2
    state.truncated_means[:] = -1.0
    state.truncated_means[[5, m - 1]] = -0.5
    state.t = 2 * m
    return state


class TestUcbIndex:
    def test_unpulled_is_infinite(self):
        state = BanditState(3, 1.0, horizon=10)
        assert bandit._arm_values(state)[1] == math.inf

    def test_width_formula(self):
        # with u=1 and 32 pulls the width reduces to sqrt(log t)
        state = BanditState(1, 1.0, horizon=10)
        state.pulls[0] = 32
        state.truncated_means[0] = -1.0
        state.t = 3
        assert bandit._arm_values(state)[0] == pytest.approx(
            -1.0 + math.sqrt(math.log(3)))

    def test_log_floor_at_round_one(self):
        state = BanditState(1, 1.0, horizon=10)
        state.pulls[0] = 1
        state.truncated_means[0] = -2.5
        state.t = 1
        assert bandit._arm_values(state)[0] == pytest.approx(-2.5)

    def test_pulled_arm_before_round_one_is_located(self):
        state = BanditState(3, 1.0, horizon=10)
        state.pulls[1] = 2  # hand-built: a pull but no round played
        with pytest.raises(InvalidInputError, match="round counter t=0"):
            select_annotator(state)

    @settings(max_examples=200, deadline=None)
    @given(state=ucb_states())
    @example(state=tied_state(50))
    def test_matches_the_masked_formula_to_the_bit(self, state):
        # the example ties the top index at the crowd size of an al_ucb run
        def masked_reference(state):
            values = np.full(state.num_annotators, np.inf)
            pulled = state.pulls > 0
            if np.any(pulled):
                log_t = max(math.log(state.t), 0.0)
                width = np.sqrt(32.0 * state.u * log_t / state.pulls[pulled])
                values[pulled] = state.truncated_means[pulled] + width
            return values

        with np.errstate(all="raise"):
            reference = masked_reference(state)
            values = bandit._arm_values(state)
            chosen = select_annotator(state)
        assert np.array_equal(values, reference)
        assert chosen == int(np.argmax(reference))
        assert chosen == np.flatnonzero(reference == reference.max())[0]


class TestSelectAnnotator:
    def test_all_unpulled_takes_first(self):
        assert select_annotator(BanditState(4, 1.0, horizon=10)) == 0

    def test_tie_breaks_to_lowest_index(self):
        state = BanditState(2, 1.0, horizon=10)
        state.pulls[:] = [5, 5]
        state.truncated_means[:] = [-1.0, -1.0]
        state.t = 10
        assert select_annotator(state) == 0

    def test_less_negative_mean_wins(self):
        state = BanditState(2, 1.0, horizon=10)
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

    @pytest.mark.parametrize("m", [1, 5, 50])
    def test_a_fresh_state_pulls_the_arms_in_index_order(self, m):
        rng = np.random.default_rng(m)
        state = BanditState(m, 1.0, horizon=1000)
        chosen = []
        for _ in range(m):
            j = select_annotator(state)
            chosen.append(j)
            record_outcome(state, j, float(rng.uniform(0, 5)))
        assert chosen == list(range(m))


class TestRecordOutcome:
    def test_first_sample_within_threshold(self):
        state = BanditState(2, 10.0, horizon=100)
        record_outcome(state, 0, 0.25)
        assert state.pulls[0] == 1
        assert state.accepted_counts[0] == 1
        assert state.truncated_means[0] == pytest.approx(-0.25)
        assert state.discarded == 0

    def test_rejected_sample_counts_as_discarded(self):
        state = BanditState(1, 1.0, horizon=2)  # threshold at t=1 is ~0.849
        record_outcome(state, 0, 5.0)
        assert state.pulls[0] == 1
        assert state.accepted_counts[0] == 0
        assert state.truncated_means[0] == 0.0
        assert state.discarded == 1

    def test_rejected_sample_reenters_as_threshold_grows(self):
        # horizon-2 thresholds: 0.8493 at t=1, 1.2011 at t=2; a magnitude-1
        # sample waits first and re-enters the mean on the next pull
        state = BanditState(1, 1.0, horizon=2)
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
            assert accepted is (residual_sq <= bandit._cutoff(state, state.t))

    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(1, 3), u=st.floats(0.01, 10.0),
           horizon=st.integers(2, 200), data=st.data())
    def test_matches_push_then_pop_to_the_bit(self, m, u, horizon, data):
        # record_outcome adds a sample within the cutoff straight to the kept
        # sum when its arm has nothing waiting; the reference pushes every
        # sample on the arm's heap and pops smallest first within the cutoff
        def push_then_pop(state, j, residual_sq):
            state.t += 1
            threshold = bandit._cutoff(state, state.t)
            waiting = state._waiting[j]
            state.discarded += residual_sq > threshold
            heapq.heappush(waiting, residual_sq)
            state.pulls[j] += 1
            kept, total = int(state.accepted_counts[j]), state._kept_sums[j]
            while waiting and waiting[0] <= threshold:
                total += heapq.heappop(waiting)
                kept += 1
            state._kept_sums[j] = total
            state.accepted_counts[j] = kept
            state.truncated_means[j] = -total / kept if kept else 0.0
            return residual_sq <= threshold

        def snapshot(state):
            return (state.t, state.discarded, state.pulls.tolist(),
                    state.accepted_counts.tolist(),
                    [mean.hex() for mean in state.truncated_means.tolist()],
                    [total.hex() for total in state._kept_sums],
                    [[r.hex() for r in w] for w in state._waiting])

        state = BanditState(m, u, horizon=horizon)
        reference = BanditState(m, u, horizon=horizon)
        batch = data.draw(st.lists(st.lists(residuals, max_size=3),
                                   min_size=m, max_size=m), label="batch")
        initialize_state(state, batch)
        initialize_state(reference, batch)
        # "at" is a residual exactly at the refreshed cutoff, "below" and
        # "above" are one float either side of it
        near_cutoff = st.sampled_from(["below", "at", "above"])
        steps = data.draw(st.lists(st.tuples(
            st.integers(0, m - 1), near_cutoff | residuals), max_size=40),
            label="steps")
        for j, residual_sq in steps:
            if isinstance(residual_sq, str):
                cutoff = bandit._cutoff(state, state.t + 1)
                toward = {"below": 0.0, "at": cutoff, "above": math.inf}
                residual_sq = math.nextafter(cutoff, toward[residual_sq])
            expected = push_then_pop(reference, j, residual_sq)
            assert record_outcome(state, j, residual_sq) is expected
            assert snapshot(state) == snapshot(reference)

    def test_validates_input(self):
        state = BanditState(1, 1.0, horizon=10)
        with pytest.raises(InvalidInputError):
            record_outcome(state, 0, -1.0)
        with pytest.raises(InvalidInputError):
            record_outcome(state, 2, 1.0)

    @pytest.mark.parametrize("j", [True, False, 1.5, 1.0, np.float64(1.0),
                                   np.bool_(True), "1", None])
    def test_non_integer_index_leaves_state_untouched(self, j):
        state = BanditState(3, 10.0, horizon=100)
        initialize_state(state, [[0.1], [0.2], [100.0]])
        def snapshot():
            return (state.t, state.discarded, state.pulls.tolist(),
                    state.accepted_counts.tolist(),
                    state.truncated_means.tolist(), list(state._kept_sums),
                    [list(w) for w in state._waiting])

        before = snapshot()
        with pytest.raises(InvalidInputError, match="^annotator index"):
            record_outcome(state, j, 0.1)
        assert snapshot() == before

    @pytest.mark.parametrize("j", [np.int64(1), np.uint8(1), np.intp(1)])
    def test_numpy_integer_index_is_an_arm(self, j):
        state = BanditState(3, 10.0, horizon=100)
        assert record_outcome(state, j, 0.25)
        assert list(state.pulls) == [0, 1, 0] and state.t == 1
        assert state.truncated_means[1] == -0.25


@pytest.mark.parametrize("m", [2.5, True, np.float64(2.0), 0, "2"])
def test_bandit_state_rejects_a_non_integer_annotator_count(m):
    with pytest.raises(InvalidInputError, match="^num_annotators"):
        BanditState(m, 1.0, horizon=10)


def test_bandit_state_takes_a_numpy_integer_annotator_count():
    state = BanditState(np.int64(3), 1.0, horizon=10)
    assert state.num_annotators == 3 and type(state.num_annotators) is int
    assert list(state.pulls) == [0, 0, 0]


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
        state = BanditState(1, 1.0, horizon=10)
        record_outcome(state, 0, 0.1)
        with pytest.raises(InvalidInputError):
            initialize_state(state, [[0.2]])

    @pytest.mark.parametrize("batch", [[[0.1, 0.2], [math.nan]],
                                       [[0.1, 0.2], [-1.0]],
                                       [[0.1, 0.2], [0.3], [0.4]]])
    def test_rejected_batch_leaves_state_untouched(self, batch):
        state = BanditState(2, 1.0, horizon=10)
        with pytest.raises(InvalidInputError):
            initialize_state(state, batch)
        assert state.t == 0 and state.discarded == 0
        assert list(state.pulls) == [0, 0]
        assert list(state.accepted_counts) == [0, 0]
        assert list(state.truncated_means) == [0.0, 0.0]
        initialize_state(state, [[0.1, 0.2], [0.3]])
        assert state.t == 3 and list(state.pulls) == [2, 1]
        assert state.truncated_means[0] == pytest.approx(-0.15)

    @pytest.mark.parametrize("batch", [[[0.1], ["a"]], [[0.1], None],
                                       [[0.1], [[0.2]]], 0.5])
    def test_a_non_numeric_batch_fails_naming_residual_sqs(self, batch):
        state = BanditState(2, 1.0, horizon=10)
        with pytest.raises(InvalidInputError, match=r"\bresidual_sqs\b"):
            initialize_state(state, batch)
        assert state.t == 0 and list(state.pulls) == [0, 0]


class TestDiscardedCount:
    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 4), u=st.floats(0.1, 10.0),
           horizon=st.integers(2, 500), data=st.data())
    def test_counts_arrivals_outside_the_cutoff(self, m, u, horizon, data):
        # the incremental kept sums also match the reference estimator over
        # each arm's full reward list at the current cutoff
        def assert_matches_reference(j):
            mean, kept = truncated_mean([-r for r in rewards[j]],
                                        bandit._cutoff(state, state.t))
            assert state.accepted_counts[j] == kept
            assert state.truncated_means[j] == pytest.approx(mean, rel=1e-12)

        state = BanditState(m, u, horizon=horizon)
        batch = data.draw(
            st.lists(st.lists(residuals, max_size=4), min_size=m, max_size=m))
        initialize_state(state, batch)
        rewards = [list(seq) for seq in batch]
        if state.t > 0:
            for j in range(m):
                assert_matches_reference(j)
        initial = state.discarded
        rejected = 0
        pulls = data.draw(st.lists(st.tuples(st.integers(0, m - 1), residuals),
                                   max_size=40))
        for j, residual_sq in pulls:
            before = state.discarded
            rejected += not record_outcome(state, j, residual_sq)
            rewards[j].append(residual_sq)
            assert state.discarded >= before
            assert state.discarded == initial + rejected
            assert_matches_reference(j)

    def test_can_exceed_currently_excluded_samples(self):
        # horizon-2 thresholds 0.8493 then 1.2011: the magnitude-1 sample is
        # discarded on arrival and re-enters the mean on the next pull
        state = BanditState(1, 1.0, horizon=2)
        assert record_outcome(state, 0, 1.0) is False
        assert record_outcome(state, 0, 0.5) is True
        assert state.pulls[0] - state.accepted_counts[0] == 0
        assert state.discarded == 1


class TestCriterion06Pin:
    def test_two_thousand_pulls_are_pinned_to_the_bit(self):
        # the criterion-06 population played alone; the values were taken
        # from the masked-index implementation
        profiles = make_annotators(5, 3, (0.1, 1.0), (1.0, 2.0), seed=123)
        betas = np.array([p.best_precision for p in profiles])
        sds = 1.0 / np.sqrt(betas)
        rng = np.random.default_rng([0, 99])
        state = BanditState(5, 3.0 * 2.0**4, horizon=2000)
        ledger = RegretLedger.from_precisions(betas)
        for _ in range(2000):
            j = select_annotator(state)
            residual = rng.normal(0.0, sds[j])
            record_outcome(state, j, residual * residual)
            ledger.record_pull(j)
        assert ledger.pulls.tolist() == [407, 490, 478, 303, 322]
        assert state.pulls.tolist() == ledger.pulls.tolist()
        assert state.discarded == 0
        assert regret_seq(ledger).hex() == "0x1.0fc6682f17494p+10"
        assert [mean.hex() for mean in state.truncated_means] == [
            "-0x1.0024d901b75ebp-1", "-0x1.8bf807f22dd3fp-6",
            "-0x1.6adff71cf64e8p-4", "-0x1.5971891be8c37p+0",
            "-0x1.2a5976d07576fp+0"]


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

    @pytest.mark.parametrize("j", [True, 1.0, 0.5, np.bool_(False), -1, 3])
    def test_bad_pull_index_leaves_ledger_untouched(self, j):
        ledger = RegretLedger.from_precisions([4.0, 1.0, 2.0])
        ledger.record_pull(np.int64(2))
        with pytest.raises(InvalidInputError, match="^annotator index"):
            ledger.record_pull(j)
        assert list(ledger.pulls) == [0, 0, 1]


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


def test_bandit_state_rejects_a_moment_bound_whose_ucb_width_overflows():
    state = BanditState(3, 1e300, horizon=10)  # 32 u log 10 is finite
    initialize_state(state, [[0.1], [0.2], [0.3]])
    assert np.all(np.isfinite(bandit._arm_values(state)))
    with pytest.raises(InvalidInputError, match=r"^u=1e\+308 .*horizon=10"):
        BanditState(3, 1e308, horizon=10)


def test_bandit_state_rejects_a_moment_bound_whose_cutoff_overflows():
    # 32 u log(horizon) is finite, but u * horizon is not: from about round
    # 1,800 the cutoff would read inf and admit every sample untruncated
    with pytest.raises(InvalidInputError,
                       match=r"^u=1e\+305 .*horizon=10000.*cutoff"):
        BanditState(2, 1e305, horizon=10000)
    # u * 100 is finite
    assert bandit._cutoff(BanditState(2, 1e306, horizon=100), 100) < math.inf


def test_a_round_whose_cutoff_overflows_fails_and_changes_nothing():
    # u * t overflows from t = 180 on, past the horizon of 100
    state = BanditState(2, 1e306, horizon=100)
    for _ in range(179):
        record_outcome(state, select_annotator(state), 1e300)
    before = (state.t, state.discarded, state.pulls.tolist(),
              state.accepted_counts.tolist(), state.truncated_means.tolist())
    with pytest.raises(InvalidInputError, match=r"round t=180.*horizon=100"):
        record_outcome(state, 0, 1e300)
    assert (state.t, state.discarded, state.pulls.tolist(),
            state.accepted_counts.tolist(),
            state.truncated_means.tolist()) == before


def test_a_batch_whose_cutoff_overflows_leaves_the_state_fresh():
    state = BanditState(2, 1e306, horizon=100)
    with pytest.raises(InvalidInputError, match=r"round t=200.*horizon=100"):
        initialize_state(state, [[1.0] * 100, [1.0] * 100])
    assert state.t == 0 and state.pulls.tolist() == [0, 0]
    initialize_state(state, [[1.0] * 90, [1.0] * 89])
    assert state.t == 179
