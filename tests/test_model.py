import importlib.machinery
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdreg import model
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

ROOT = Path(__file__).resolve().parents[1]


def one_label_dataset():
    return CrowdDataset(np.array([[1.0, 0.0]]), [0], [0], [2.0], 1)


class TestCrowdDataset:
    def test_label_counts_match_labels(self):
        X = np.arange(6.0).reshape(3, 2)
        ds = CrowdDataset(X, [0, 2], [1, 0], [1.0, -1.0], 2)
        assert np.array_equal(ds.label_counts, [1, 1])
        assert ds.label_counts.sum() == ds.total_labels == 2

    def test_with_label_leaves_original_untouched(self):
        ds = CrowdDataset(np.ones((2, 2)), [0], [0], [2.0], 2)
        grown = ds.with_label(1, 1, 3.0)
        assert grown.total_labels == 2 and ds.total_labels == 1
        assert (ds.rows.tolist(), ds.annotators.tolist(),
                ds.values.tolist()) == ([0], [0], [2.0])
        for v in (grown.rows, grown.annotators, grown.values):
            with pytest.raises(ValueError):  # read-only
                v[0] = 0
        with pytest.raises(InvalidInputError):
            grown.with_label(1, 1, 4.0)

    def test_rejects_out_of_range_keys(self):
        # each case's first bad label sits at the given position
        for rows, annotators, values, position in [
            ([5], [0], [1.0], 0),                         # row out of range
            ([0], [3], [1.0], 0),                         # annotator too
            ([1, 0, -1], [0, 0, 0], [1.0, 2.0, 3.0], 2),  # negative row
            ([1, 0, 0, 1], [0, 0, 0, 0], [1.0] * 4, 2),   # duplicate pairs
            ([0, 1], [0, 0], [1.0], 1),                   # unequal lengths
            ([0.0], [0], [1.0], 0),                       # float index
            ([0], [False], [1.0], 0),                     # bool index
            ([0, 1], [0, 0], [1.0, np.inf], 1),           # non-finite value
            ([0], [0], ["1.0"], 0),                       # text value
        ]:
            with pytest.raises(InvalidInputError,
                               match=f"^label {position}\\b"):
                CrowdDataset(np.ones((2, 2)), rows, annotators, values, 1)


    @pytest.mark.parametrize("m", [2.5, True, np.float64(2.0), 0, "2"])
    def test_rejects_a_non_integer_annotator_count(self, m):
        with pytest.raises(InvalidInputError, match="^num_annotators"):
            CrowdDataset(np.ones((2, 2)), [0], [0], [1.0], m)

    def test_rejects_an_annotator_count_too_large_to_index(self):
        m = 2**62  # 32 * m bytes of Gram statistics and 3 * m pair keys
        with pytest.raises(InvalidInputError, match="^num_annotators"):
            CrowdDataset(np.ones((3, 2)), [0, 1], [0, m - 1], [1.0, 2.0], m)

    def test_the_largest_annotator_count_keeps_every_pair_apart(self):
        # with n = 10 > 8 d^2 the pair keys set the limit.  The labels pass
        # their checks, so a key collision would fail as label 2; the
        # statistics, 7.4 EB at this m, then fail to allocate
        X, m = np.ones((10, 1)), np.iinfo(np.intp).max // 10
        with pytest.raises(InvalidInputError,
                           match=f"^num_annotators {m}: .* do not fit in "
                                 f"memory$"):
            CrowdDataset(X, [9, 9, 0], [m - 1, m - 2, m - 1], [1.0] * 3, m)
        with pytest.raises(InvalidInputError, match="^label 2 "):
            CrowdDataset(X, [9, 0, 9], [m - 1] * 3, [1.0] * 3, m)
        with pytest.raises(InvalidInputError, match="^num_annotators"):
            CrowdDataset(X, [0], [0], [1.0], m + 1)

    def test_a_block_too_large_for_memory_fails_naming_the_count(self):
        # m x d^2 floats at d = 1 are 7.4 EB, past any address space, so
        # the allocation fails at once (the flat form: the test above)
        X, m = np.ones((10, 1)), np.iinfo(np.intp).max // 10
        with pytest.raises(InvalidInputError,
                           match=f"^num_annotators {m}: .* do not fit in"):
            CrowdDataset(X, [0, 1], None, [[1.0, 2.0]], m)

    def test_block_form_holds_the_block_as_label_vectors(self):
        # block[j, c] is annotator j's answer on row columns[c]; a block may
        # have fewer rows than there are annotators.  A valid block keeps
        # copies of its columns and answers, and builds its rows and
        # annotators on their first read, as read-only intp vectors it keeps
        X, columns = np.arange(8.0).reshape(4, 2), np.array([3, 0])
        block = np.array([[1.0, 2.0], [3.0, 4.0]])
        ds = CrowdDataset(X, columns, None, block, 3)
        columns[0], block[0, 0] = 1, 9.0
        assert not {"rows", "annotators"} & set(vars(ds))
        rows, annotators = ds.rows, ds.annotators
        assert rows.tolist() == [3, 0, 3, 0]
        assert annotators.tolist() == [0, 0, 1, 1]
        assert ds.values.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert ds.label_counts.tolist() == [2, 2, 0]
        assert rows.dtype == annotators.dtype == np.intp
        for v in (rows, annotators, ds.values):
            assert not v.flags.writeable
        assert ds.rows is rows and ds.annotators is annotators
        with pytest.raises(AttributeError, match="'_columns'"):
            ds._columns

    @pytest.mark.parametrize("block", [[1.0, 2.0], [[[1.0, 2.0]]], 1.0])
    def test_block_form_needs_a_two_dimensional_block(self, block):
        with pytest.raises(InvalidInputError, match="^values: a block"):
            CrowdDataset(np.ones((2, 2)), [0, 1], None, block, 1)

    def test_statistics_exist_once_a_block_or_a_child_is_built(self):
        # both forms build their statistics in the constructor, and
        # with_label carries a copy to the child
        X = np.ones((3, 2))
        block = CrowdDataset(X, [0, 1], None, np.ones((2, 2)), 2)
        flat = CrowdDataset(X, [0, 1], [0, 0], [1.0, 1.0], 2)
        for ds in (block, flat):
            assert "_suffstats" in vars(ds)
            assert "_suffstats" in vars(ds.with_label(2, 1, 1.0))

    def test_takes_a_numpy_integer_annotator_count(self):
        ds = CrowdDataset(np.ones((2, 2)), [0], [0], [1.0], np.int64(2))
        assert ds.num_annotators == 2 and type(ds.num_annotators) is int
        assert ds.with_label(1, 1, 2.0).num_annotators == 2


class TestWeightPosterior:
    def test_rejects_asymmetric_precision(self):
        with pytest.raises(InvalidInputError):
            WeightPosterior(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite_precision(self):
        with pytest.raises(NumericalFailureError):
            WeightPosterior(np.zeros(2), -np.eye(2))


class TestWeightUpdate:
    def test_no_labels_returns_prior_exactly(self):
        ds = CrowdDataset(np.ones((3, 2)), [], [], [], 2)
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
        rows = np.arange(20)
        ds = CrowdDataset(X, rows, rows % 2, rng.normal(size=20), 2)
        prior = default_weight_prior(3)
        out = vi_update_weights(ds, [0.5, 2.0], prior)
        eigs = np.linalg.eigvalsh(out.precision - prior.precision)
        assert eigs.min() >= -1e-9


class TestPrecisionUpdate:
    def test_no_labels_returns_prior(self):
        # annotator 1 has no labels: its entries keep the prior values exactly
        ds = CrowdDataset(np.ones((2, 2)), [0], [0], [1.0], 2)
        prior = PrecisionPosterior([1.0, 2.0], [1.0, 3.0])
        out = vi_update_precision(ds, default_weight_prior(2), prior)
        assert (out.shape[1], out.rate[1]) == (2.0, 3.0)
        assert out.shape[0] == 1.5
        # the update skips the constructor's checks, which its arrays pass:
        # the checked constructor gives the same bytes, read-only
        checked = PrecisionPosterior(out.shape, out.rate)
        for name in ("shape", "rate"):
            got, want = getattr(out, name), getattr(checked, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert not got.flags.writeable

    def test_shape_gains_half_label_count(self):
        ds = CrowdDataset(np.ones((4, 2)), range(4), [0] * 4, [1.0] * 4, 1)
        out = vi_update_precision(ds, default_weight_prior(2),
                                  PrecisionPosterior([1.0], [1.0]))
        assert out.shape[0] == pytest.approx(3.0)

    def test_exact_fit_rate_hand_value(self):
        # x=(1,0), y=1, mean=(1,0), near-zero covariance: the expected squared
        # residual vanishes and the rate stays at the prior value 1
        ds = CrowdDataset(np.array([[1.0, 0.0]]), [0], [0], [1.0], 1)
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
        ds = CrowdDataset(np.ones((2, 2)), [0], [0], [1.0], 2)
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

    def test_error_names_the_first_bad_factor(self):
        # the error names the one bad entry, not the two whole vectors
        # (over 300 characters at m = 50, cut short by numpy past 1,000)
        rate = np.ones(50)
        rate[37] = -0.5
        with pytest.raises(InvalidInputError, match=r"^precision factor 37 "
                           r"\(shape 1\.0, rate -0\.5\): need finite "):
            PrecisionPosterior(np.ones(50), rate)
        with pytest.raises(InvalidInputError, match=r"shapes \(50,\) and "
                                                    r"\(49,\)$"):
            PrecisionPosterior(np.ones(50), rate[:49])

    def test_vectors_are_read_only_copies(self):
        shape = np.array([2.0, 3.0])
        post = PrecisionPosterior(shape, [1.0, 1.0])
        shape[0] = 5.0
        assert post.shape.tolist() == [2.0, 3.0]
        with pytest.raises(ValueError):
            post.rate[0] = 2.0


class TestFitVariational:
    def test_empty_dataset_converges_to_priors(self):
        ds = CrowdDataset(np.ones((3, 2)), [], [], [], 2)
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
        ds = CrowdDataset(X, np.arange(n), np.zeros(n, dtype=int), y, 1)
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
        rows = np.arange(30)
        ds = CrowdDataset(X, rows, rows % 2, X[:, 0] + rng.normal(size=30), 2)
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
        rows = np.arange(30)
        ds = CrowdDataset(X, rows, rows % 2, X[:, 0] + rng.normal(size=30), 2)
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
        rows = np.arange(25)
        ds = CrowdDataset(X, rows, rows % 3, rng.normal(size=25), 3)
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
        ds = CrowdDataset(X, [], [], [], 1)
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
                rows = np.arange(n)
                ds = CrowdDataset(X, rows, rows % 2,
                                  X @ w + rng.normal(0, 0.5, n), 2)
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

    def test_diagonal_hand_value(self):
        post = WeightPosterior(np.zeros(2), np.diag([1.0, 4.0]))
        assert predictive(np.array([0.0, 1.0]), post)[1] == pytest.approx(0.25)

    def test_matches_direct_solve(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(4, 4))
        prec = A @ A.T + 0.5 * np.eye(4)
        post = WeightPosterior(np.zeros(4), prec)
        x = rng.normal(size=4)
        assert (predictive(x, post)[1]
                == pytest.approx(x @ np.linalg.solve(prec, x)))

    def test_zero_vector_degenerate(self):
        assert predictive(np.zeros(2), default_weight_prior(2)) == (0.0, 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            predictive(np.zeros(3), default_weight_prior(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_input(self, bad):
        post = default_weight_prior(3)
        with pytest.raises(InvalidInputError):
            predictive(np.array([1.0, bad, 0.0]), post)
        with pytest.raises(InvalidInputError):
            predictive(np.array([0.0, 0.0, bad]), post)

    def test_takes_one_vector(self):
        with pytest.raises(InvalidInputError, match="finite vector"):
            predictive(np.eye(3), default_weight_prior(3))


def _python(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter on ``src/``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestLapackLoader:
    """``model`` loads ``dpotrf``/``dpotrs`` from scipy's ``_flapack`` file,
    so that ``import crowdreg`` runs without ``scipy.linalg``."""

    @staticmethod
    def assert_same_bits(dpotrf, dpotrs):
        from scipy.linalg import lapack
        rng = np.random.default_rng(11)
        spd = []
        for d in (1, 3, 8):
            a = rng.normal(size=(d, d))
            spd.append(a @ a.T + 0.1 * np.eye(d))
        for prec in spd + [np.array([[1.0, 2.0], [2.0, 1.0]])]:
            factor, info = dpotrf(prec, lower=1, clean=0)
            ref_factor, ref_info = lapack.dpotrf(prec, lower=1, clean=0)
            assert info == ref_info
            assert factor.tobytes() == ref_factor.tobytes()
            if info == 0:
                b = rng.normal(size=(len(prec), 2))
                sol, info = dpotrs(factor, b, lower=1)
                ref_sol, ref_info = lapack.dpotrs(ref_factor, b, lower=1)
                assert info == ref_info == 0
                assert sol.tobytes() == ref_sol.tobytes()
        assert ref_info > 0  # the last matrix is not positive definite

    def test_import_leaves_scipy_linalg_and_spatial_out(self):
        # numpy.random too, which the harness reaches only at call time;
        # numpy 1.x imports it with numpy itself, so there it is not checked
        out = _python("import sys, numpy\n"
                      "eager = 'numpy.random' in sys.modules\n"
                      "import crowdreg\n"
                      "lazy = () if eager else ('numpy.random',)\n"
                      "print(sorted(m for m in sys.modules if m.startswith("
                      "('scipy.linalg', 'scipy.spatial') + lazy)))")
        assert out.strip() == "[]"

    def test_scipy_linalg_imports_after_crowdreg(self):
        out = _python(
            "import sys, crowdreg, scipy.linalg\n"
            "from scipy.linalg import lapack\n"
            "assert sys.modules['scipy.linalg._flapack'] is "
            "scipy.linalg._flapack\n"
            "assert crowdreg.model.dpotrf is lapack.dpotrf\n"
            "assert crowdreg.model.dpotrs is lapack.dpotrs\n"
            "factor = scipy.linalg.cho_factor([[4.0, 2.0], [2.0, 2.0]])\n"
            "print(scipy.linalg.cho_solve(factor, [2.0, 0.0]).tolist())\n")
        assert out.strip() == "[1.0, -1.0]"

    def test_crowdreg_after_scipy_linalg_keeps_its_module(self):
        _python("import sys, scipy.linalg\n"
                "from scipy.linalg import lapack\n"
                "flapack = sys.modules['scipy.linalg._flapack']\n"
                "import crowdreg\n"
                "assert sys.modules['scipy.linalg._flapack'] is flapack\n"
                "assert crowdreg.model.dpotrf is lapack.dpotrf\n")

    def test_file_loaded_routines_match_scipy_bits(self, monkeypatch):
        loaded = []
        spec_from_file = importlib.util.spec_from_file_location
        monkeypatch.setattr(
            importlib.util, "spec_from_file_location",
            lambda name, path: loaded.append(path) or spec_from_file(name,
                                                                     path))
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack",
                            raising=False)
        self.assert_same_bits(*model._lapack_routines())
        assert len(loaded) == 1 and "_flapack" in loaded[0]

    @pytest.mark.parametrize("content", [None, b"not an extension module"],
                             ids=["missing", "unloadable"])
    def test_public_import_when_the_file_fails(self, monkeypatch, tmp_path,
                                               content):
        (tmp_path / "linalg").mkdir()
        if content is not None:
            suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
            (tmp_path / "linalg" / f"_flapack{suffix}").write_bytes(content)
        scipy_spec = importlib.machinery.ModuleSpec("scipy", None,
                                                    is_package=True)
        scipy_spec.submodule_search_locations = [str(tmp_path)]
        monkeypatch.setattr(importlib.util, "find_spec",
                            lambda name, package=None: scipy_spec)
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack",
                            raising=False)
        self.assert_same_bits(*model._lapack_routines())
