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
from crowdreg import features
from crowdreg.features import _lloyd, _nearest, _resolve_empty


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


def nearest(X, C):
    return _nearest(X, C, np.einsum("ij,ij->i", X, X),
                    np.empty((C.shape[0], X.shape[0])))


def record_fallback_rows(monkeypatch, seen):
    """Wrap ``_squared_distances`` so that every row it sees lands in seen."""
    real = features._squared_distances

    def wrapped(X, centers):
        seen.extend(row.tobytes() for row in X)
        return real(X, centers)

    monkeypatch.setattr(features, "_squared_distances", wrapped)


@st.composite
def nearest_problems(draw):
    """Rows and centers built to tie exactly or nearly, then scaled by a power
    of two from 2^-560, where products are subnormal or zero, to 2^520, where
    squares overflow; X is C- or Fortran-ordered, and k = 1 and d = 1 occur.

    ``duplicate`` repeats center 0 as the last center and puts row i on it.
    ``bisector`` puts centers 0 and 1 at row i ± t along the first axis, with
    the row's first coordinate 0, so the two mirror each other across the
    hyperplane that holds the row.  ``near`` keeps the row's first coordinate,
    so x_0 + t and x_0 - t round apart and the two distances differ in their
    last bits, or not at all, while for t much smaller than the row the
    GEMM's cancellation errs by far more.
    """
    d = draw(st.integers(1, 8))
    k = draw(st.integers(1, 6))
    n = draw(st.integers(1, 30))
    values = st.floats(-1e3, 1e3) | st.integers(-4, 4).map(float)

    def matrix(rows):
        return np.array(draw(st.lists(
            st.lists(values, min_size=d, max_size=d),
            min_size=rows, max_size=rows)))

    X, C = matrix(n), matrix(k)
    kind = draw(st.sampled_from(["free", "duplicate", "bisector", "near"]))
    i = draw(st.integers(0, n - 1))
    if k >= 2 and kind == "duplicate":
        C[-1] = C[0]
        X[i] = C[0]
    elif k >= 2 and kind in ("bisector", "near"):
        if kind == "bisector":
            X[i, 0] = 0.0
        t = draw(values) * 2.0 ** -draw(st.integers(0, 40))
        C[0] = C[1] = X[i]
        C[0, 0] += t
        C[1, 0] -= t
    # the sampled exponents put squares at the edge of overflow or underflow
    scale = 2.0 ** draw(st.integers(-560, 520)
                        | st.sampled_from([-541, -537, 509, 510, 511]))
    X, C = X * scale, C * scale
    if draw(st.booleans()):
        X = np.asfortranarray(X)
    return X, C, kind


@settings(max_examples=300, deadline=None)
@given(nearest_problems())
def test_nearest_equals_the_cdist_argmin(problem):
    X, C, kind = problem
    reference = cdist(X, C, "sqeuclidean")
    seen = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        record_fallback_rows(monkeypatch, seen)
        got = nearest(X, C)  # and no overflow warning: tier-1 raises it
    assert got.dtype == np.intp
    assert got.tobytes() == np.argmin(reference, axis=1).astype(
        np.intp).tobytes()
    # a row whose smallest distance is attained twice is never certified
    tied = np.flatnonzero(
        (reference == reference.min(axis=1, keepdims=True)).sum(axis=1) > 1)
    assert all(X[r].tobytes() in seen for r in tied)
    if kind == "duplicate" and C.shape[0] >= 2:
        assert tied.size > 0


def test_exact_ties_go_through_cdist(monkeypatch):
    # rows on the bisector of two mirrored centers, and a row on a
    # duplicated center: every one ties exactly and only they fall back
    C = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 5.0], [0.0, 5.0]])
    X = np.array([[0.0, 0.5], [0.0, -2.0], [0.9, 0.1], [0.0, 5.0],
                  [-3.0, 1.0]])
    seen = []
    record_fallback_rows(monkeypatch, seen)
    assert nearest(X, C).tolist() == [0, 0, 0, 2, 1]
    assert seen == [X[0].tobytes(), X[1].tobytes(), X[3].tobytes()]


def test_rows_with_underflowing_products_fall_back():
    # every product is subnormal, where rounding errs by an absolute amount:
    # cdist ties centers 0 and 2 at 21 * 2^-1074, and a purely relative
    # bound certified the GEMM's center 2
    X = np.array([[9.0, -54.0]]) * 2.0**-541
    C = np.array([[-61.0, -29.0], [-34.0, 38.0], [61.0, -4.0]]) * 2.0**-541
    assert nearest(X, C).tolist() == [0]


def test_rows_whose_distances_overflow_fall_back():
    # both cdist distances overflow to inf, so cdist's argmin is 0, while
    # the GEMM values |c|^2 - 2 x c are finite and put center 1 first
    X = np.array([[3.0]]) * 2.0**510
    C = np.array([[-1.5], [-1.4]]) * 2.0**510
    assert np.isinf(cdist(X, C, "sqeuclidean")).all()
    assert nearest(X, C).tolist() == [0]


def test_fit_centers_on_overflowing_distances_matches_the_reference():
    # squared distances of 1e200 overflow; the assignment falls back to
    # cdist without an overflow warning
    X = np.array([[1e200, 0.0], [2e200, 1.0], [-1e200, 3.0]])
    init = X[[0, 2]]
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
