import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from crowdreg import (
    InvalidInputError,
    TransformSpec,
    apply_normalization,
    fit_centers,
    normalize,
    transform,
)
from crowdreg.features import _lloyd, _resolve_empty


class TestFitCenters:
    def test_k_equals_distinct_points(self):
        pts = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, -1.0]])
        centers = fit_centers(pts, 3, seed=0)
        assert sorted(map(tuple, centers)) == sorted(map(tuple, pts))

    def test_k_one_gives_coordinate_mean(self):
        pts = np.array([[0.0, 0.0], [2.0, 4.0], [4.0, 2.0]])
        centers = fit_centers(pts, 1, seed=0)
        assert np.allclose(centers, [[2.0, 2.0]])

    def test_two_well_separated_clusters(self):
        pts = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        # seed chosen so the initial draw lands one point in each cluster
        centers = fit_centers(pts, 2, seed=1)
        got = sorted(map(tuple, np.round(centers, 12)))
        assert got == [(0.0, 0.5), (10.0, 0.5)]

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(60, 3))
        a = fit_centers(pts, 5, seed=42)
        b = fit_centers(pts, 5, seed=42)
        assert np.array_equal(a, b)

    def test_objective_never_increases(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(80, 2))
        init = pts[rng.choice(80, 4, replace=False)]
        # nearest-center objective of the centers after t iterations
        objective = [
            float(((pts[:, None, :] - _lloyd(pts, init, max_iter=t)) ** 2)
                  .sum(axis=2).min(axis=1).sum())
            for t in range(1, 30)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(objective, objective[1:]))

    def test_k_larger_than_distinct_points_rejected(self):
        pts = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(InvalidInputError):
            fit_centers(pts, 3, seed=0)


def masked_mean_lloyd(X, centers, max_iter=100):
    """Lloyd's algorithm with each centroid the masked mean of its cluster."""
    k = centers.shape[0]
    assign = None
    for _ in range(max_iter):
        new_assign, _ = _resolve_empty(
            X, np.argmin(cdist(X, centers, "sqeuclidean"), axis=1), k)
        centers = np.vstack([X[new_assign == c].mean(axis=0)
                             for c in range(k)])
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return centers


@st.composite
def kmeans_problems(draw):
    """Rows drawn with repeats from a few distinct points, in C or Fortran
    order, with k up to the number of distinct rows."""
    d = draw(st.integers(1, 20))
    base = np.array(draw(st.lists(
        st.lists(st.floats(-1e3, 1e3), min_size=d, max_size=d),
        min_size=1, max_size=12)))
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=1,
                          max_size=60))
    X = base[picks]
    if draw(st.booleans()):
        X = np.asfortranarray(X)
    k = draw(st.integers(1, np.unique(X, axis=0).shape[0]))
    return X, k, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(kmeans_problems())
def test_fit_centers_equals_the_masked_mean_reference(problem):
    X, k, seed = problem
    distinct = np.unique(X, axis=0)
    init = distinct[np.random.default_rng(seed).choice(
        distinct.shape[0], size=k, replace=False)]
    got = fit_centers(X, k, seed)
    assert got.tobytes() == masked_mean_lloyd(X, init).tobytes()


@settings(max_examples=100, deadline=None)
@given(kmeans_problems(), st.integers(1, 5))
def test_lloyd_equals_the_reference_after_empty_cluster_repair(problem, far):
    # centers far from every row start empty, so the repair must run
    X, k, _ = problem
    far = min(far, X.shape[0] - k)
    init = np.vstack([X[:k], np.full((far, X.shape[1]), 1e6)])
    assert _lloyd(X, init).tobytes() == masked_mean_lloyd(X, init).tobytes()


class TestTransform:
    def test_at_reference_point(self):
        spec = TransformSpec(np.array([[1.0, 2.0]]), 1.0)
        out = transform(np.array([1.0, 2.0]), spec)
        assert out == pytest.approx([0.5])

    def test_distance_equal_to_scale(self):
        spec = TransformSpec(np.array([[0.0, 0.0]]), 2.0)
        out = transform(np.array([0.0, 2.0]), spec)
        assert out[0] == pytest.approx(1.0 / (1.0 + np.exp(-1.0)))
        assert out[0] == pytest.approx(0.731059, abs=1e-6)

    def test_outputs_in_half_open_unit_band(self):
        rng = np.random.default_rng(1)
        spec = TransformSpec(rng.normal(size=(4, 3)), 0.7)
        out = transform(rng.normal(size=(50, 3)), spec)
        assert np.all(out >= 0.5) and np.all(out < 1.0)

    def test_monotone_in_distance(self):
        spec = TransformSpec(np.array([[0.0]]), 1.5)
        radii = np.linspace(0.0, 5.0, 20)[:, None]
        vals = transform(radii, spec)[:, 0]
        assert np.all(np.diff(vals) > 0)

    def test_dimension_mismatch(self):
        spec = TransformSpec(np.zeros((2, 3)), 1.0)
        with pytest.raises(InvalidInputError):
            transform(np.zeros(2), spec)

    def test_spec_validation(self):
        with pytest.raises(InvalidInputError):
            TransformSpec(np.zeros((1, 1)), 0.0)
        with pytest.raises(InvalidInputError, match="finite"):
            TransformSpec(np.zeros((1, 1)), np.inf)
        with pytest.raises(InvalidInputError):
            TransformSpec(np.zeros(2), 1.0)


class TestNormalize:
    def test_constant_column_maps_to_zero(self):
        X = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        out, _ = normalize(X)
        assert np.array_equal(out[:, 1], np.zeros(3))

    def test_two_point_column_is_fixed_point(self):
        # {-1, 1} already has zero mean and unit population sd
        out, _ = normalize(np.array([[-1.0], [1.0]]))
        assert np.array_equal(out, np.array([[-1.0], [1.0]]))

    def test_single_row_maps_to_zero(self):
        out, _ = normalize(np.array([[4.0, -2.0, 7.0]]))
        assert np.array_equal(out, np.zeros((1, 3)))

    def test_population_convention(self):
        X = np.array([[0.0], [1.0], [2.0]])
        out, params = normalize(X)
        assert params.scale[0] == pytest.approx(np.sqrt(2.0 / 3.0))
        assert out[:, 0].std() == pytest.approx(1.0)

    def test_reapplying_parameters_is_bitwise_identical(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 4)) * np.array([1.0, 10.0, 0.1, 3.0])
        out, params = normalize(X)
        again = apply_normalization(X, params)
        assert np.array_equal(out, again)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            normalize(np.empty((0, 3)))
