import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crowdreg import (
    AnnotatorProfile,
    CostFunction,
    InvalidInputError,
    PaymentScheme,
    label_value,
    make_annotators,
    optimal_effort,
)
from crowdreg import crowd


class TestMakeAnnotators:
    def test_two_quality_bands(self):
        profiles = make_annotators(50, 40, (0.1, 1.0), (1.0, 2.0), seed=0)
        sds = np.array([1.0 / np.sqrt(p.best_precision) for p in profiles])
        assert len(profiles) == 50
        assert np.all((sds[:40] >= 0.1) & (sds[:40] <= 1.0))
        assert np.all((sds[40:] >= 1.0) & (sds[40:] <= 2.0))

    def test_degenerate_interval_pins_value(self):
        profiles = make_annotators(4, 2, (0.5, 0.5), (2.0, 2.0), seed=1)
        sds = [1.0 / np.sqrt(p.best_precision) for p in profiles]
        assert sds[:2] == pytest.approx([0.5, 0.5])
        assert sds[2:] == pytest.approx([2.0, 2.0])

    def test_same_seed_same_population(self):
        a = make_annotators(10, 7, (0.1, 1.0), (1.0, 2.0), seed=9)
        b = make_annotators(10, 7, (0.1, 1.0), (1.0, 2.0), seed=9)
        assert [p.best_precision for p in a] == [p.best_precision for p in b]

    def test_every_seed_form_draws_the_same_population(self):
        # a seed's integers may be Python or numpy ones, in a list, a tuple
        # or an array: each gives default_rng's stream for the same words
        populations = [
            [p.best_precision for p in make_annotators(
                6, 3, (0.1, 1.0), (1.0, 2.0), seed=seed)]
            for seed in ([4, 2], (4, 2), np.array([4, 2]),
                         [np.uint32(4), np.int64(2)])]
        assert all(p == populations[0] for p in populations)
        assert ([p.best_precision for p in make_annotators(
                    6, 3, (0.1, 1.0), (1.0, 2.0), seed=np.uint64(7))]
                == [p.best_precision for p in make_annotators(
                    6, 3, (0.1, 1.0), (1.0, 2.0), seed=7)])

    def test_invalid_interval(self):
        with pytest.raises(InvalidInputError):
            make_annotators(3, 1, (0.0, 1.0), (1.0, 2.0), seed=0)
        with pytest.raises(InvalidInputError):
            make_annotators(3, 1, (0.5, 1.0), (2.0, 1.0), seed=0)
        with pytest.raises(InvalidInputError):
            make_annotators(3, 1, (0.1, np.inf), (1.0, 2.0), seed=0)
        with pytest.raises(InvalidInputError):
            make_annotators(3, 1, (0.1, 1.0), (1.0, np.inf), seed=0)


class TestSampleLabel:
    def test_mean_matches_clean_response(self):
        profile = AnnotatorProfile(best_precision=4.0)
        rng = np.random.default_rng(17)
        x = np.array([1.0, 2.0])
        w = np.array([0.5, 0.25])
        draws = label_value(profile, float(w @ x), 4.0,
                            rng.standard_normal(10_000))
        errors = draws - w @ x
        # sd is 0.5 at effort 4, so the mean of 1e4 draws sits within 4 SEM
        assert abs(errors.mean()) <= 4 * 0.5 / 100

    def test_variance_matches_effort(self):
        profile = AnnotatorProfile(best_precision=4.0)
        rng = np.random.default_rng(23)
        draws = label_value(profile, 0.0, 4.0, rng.standard_normal(10_000))
        assert draws.var() == pytest.approx(0.25, rel=0.15)

    def test_zero_weights_zero_mean(self):
        profile = AnnotatorProfile(best_precision=9.0)
        rng = np.random.default_rng(29)
        x, w = np.array([5.0, -3.0]), np.zeros(2)
        draws = label_value(profile, float(w @ x), 9.0,
                            rng.standard_normal(10_000))
        assert abs(draws.mean()) <= 4 * (1.0 / 3.0) / 100

    def test_list_noise_labels_like_an_array(self):
        profile = AnnotatorProfile(best_precision=4.0)
        noise = np.random.default_rng(31).standard_normal(3)
        true_value = np.array([1.0, -2.0, 0.5])
        expected = label_value(profile, true_value, 4.0, noise)
        assert np.array_equal(
            label_value(profile, true_value, 4.0, noise.tolist()), expected)
        assert np.array_equal(
            label_value(profile, true_value.tolist(), 4.0, noise), expected)

    def test_scalar_inputs_give_a_scalar_label(self):
        label = label_value(AnnotatorProfile(4.0), 1.0, 4.0, 0.5)
        assert type(label) is np.float64 and label == 1.25

    def test_effort_above_ability_rejected(self):
        profile = AnnotatorProfile(best_precision=2.0)
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidInputError):
            label_value(profile, 0.0, 2.5, rng.standard_normal())


class TestCostFunction:
    def test_families(self):
        assert CostFunction("linear", (2.0,))(3.0) == 6.0
        assert CostFunction("quadratic", (0.5,))(4.0) == 8.0
        c = CostFunction("threshold", (1.0, 2.0, 1.0))
        assert c(0.5) == 0.5
        assert c(2.0) == pytest.approx(2.0 + 2.0 * 1.0)

    def test_zero_at_zero_and_increasing(self):
        for cost in (CostFunction("linear", (0.3,)),
                     CostFunction("quadratic", (1.2,)),
                     CostFunction("threshold", (0.2, 1.0, 0.5))):
            grid = np.linspace(0.0, 3.0, 50)
            vals = cost(grid)
            assert vals[0] == 0.0
            assert np.all(np.diff(vals) > 0)

    def test_flat_cost_rejected(self):
        with pytest.raises(InvalidInputError):
            CostFunction("linear", (0.0,))
        with pytest.raises(InvalidInputError):
            CostFunction("quadratic", (-1.0,))

    @pytest.mark.parametrize("effort", [-0.5, np.nan, [1.0, np.nan]])
    def test_negative_or_nan_effort_rejected(self, effort):
        with pytest.raises(InvalidInputError):
            CostFunction("linear", (1.0,))(effort)


class TestOptimalEffort:
    scheme = PaymentScheme(10.0, 1.0, 3.0)

    def test_unprofitable_cost_means_no_participation(self):
        # cost exceeds any payment everywhere above the zero-pay band
        profile = AnnotatorProfile(best_precision=10.0,
                                   cost=CostFunction("linear", (20.0,)))
        assert optimal_effort(profile, self.scheme) == (0.0, False)

    def test_interior_optimum_matches_fine_grid(self):
        # payment slope 5 against cost beta^2 peaks at beta = 2.5, which is
        # one of the 1000 grid points on [0, 4.5]
        profile = AnnotatorProfile(best_precision=10.0,
                                   cost=CostFunction("quadratic", (1.0,)))
        beta, joined = optimal_effort(profile, self.scheme)
        assert joined
        top = min(profile.best_precision, 1.5 * self.scheme.beta_upper)
        step = top / 999
        fine = np.linspace(0.0, top, 5000)
        utilities = (np.clip((fine - 1.0) / 2.0, 0, 1) * 10.0) - fine**2
        best_fine = fine[np.argmax(utilities)]
        assert self.scheme.beta_lower < beta < self.scheme.beta_upper
        assert abs(beta - best_fine) <= step
        assert beta == 2.5

    def test_corner_optimum_at_top_of_band(self):
        profile = AnnotatorProfile(best_precision=10.0,
                                   cost=CostFunction("linear", (0.5,)))
        beta, joined = optimal_effort(profile, self.scheme)
        assert joined
        assert beta == 3.0

    def test_non_strategic_always_full_effort(self):
        profile = AnnotatorProfile(best_precision=7.0)
        assert optimal_effort(profile, self.scheme) == (7.0, True)


# seed integers of one, two or three 32-bit words, word boundaries included
_SEED_INTS = (st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1, 2**64])
              | st.integers(0, 2**32 - 1) | st.integers(0, 2**96 - 1))


@settings(max_examples=60, deadline=None)
@given(seed=st.lists(_SEED_INTS, min_size=1, max_size=3),
       count=st.integers(1, 70))
@example(seed=[0], count=1)  # a 2-word seed, padded to the pool of 4
@example(seed=[2**64 + 3, 4], count=3)  # 5 words with the key
def test_stream_states_are_default_rng_seedings(seed, count):
    # the vectorized SeedSequence hash and PCG64 seeding give each key in
    # range(count) the generator state of default_rng(seed + [key])
    head = [w for s in seed for w in crowd._seed_words(s)]
    states = crowd._stream_states(head, count)
    assert len(states) == count
    for key, (state, inc) in enumerate(states):
        want = np.random.default_rng(seed + [key])
        assert want.bit_generator.state == {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


@settings(max_examples=40, deadline=None)
@given(efforts=st.lists(st.floats(1e-3, 1e4), min_size=1, max_size=64),
       truth=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30),
       seed=st.lists(_SEED_INTS, min_size=1, max_size=3))
def test_answers_are_label_value_on_the_default_rng_streams(efforts, truth,
                                                            seed):
    # row j of the answer matrix, drawn and labeled in place, is label_value
    # on the noise of default_rng(seed + [j]) to the bit
    truth = np.array(truth)
    answers = crowd._answers(efforts, truth, seed)
    assert answers.shape == (len(efforts), truth.size)
    for j, effort in enumerate(efforts):
        noise = np.random.default_rng(seed + [j]).standard_normal(truth.size)
        want = label_value(AnnotatorProfile(effort), truth, effort, noise)
        assert answers[j].tobytes() == want.tobytes()


def test_answers_label_the_matrix_they_draw_into():
    # one warm call holds the answer matrix and the small per-annotator
    # arrays: about 1.5 matrices.  Labeling into a second matrix, or into a
    # copy of the first, would hold two or more at the peak
    efforts = np.linspace(0.25, 100.0, 50)
    truth = np.random.default_rng(0).normal(size=354)
    matrix = crowd._answers(efforts, truth, [7]).nbytes
    tracemalloc.start()
    try:
        crowd._answers(efforts, truth, [7])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * matrix
