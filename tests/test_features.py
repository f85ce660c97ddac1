import numpy as np
import pytest

from crowdreg import (
    InvalidInputError,
    TransformSpec,
    apply_normalization,
    fit_centers,
    normalize,
    transform,
)
from crowdreg.features import _lloyd


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
