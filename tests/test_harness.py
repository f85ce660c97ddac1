import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdreg import (
    AnnotatorProfile,
    DataFormatError,
    ExperimentConfig,
    InvalidInputError,
    emit_records,
    full_fit,
    label_value,
    load_csv,
    rmse,
    run_experiment,
    summarize,
)
from crowdreg import bandit, harness, model
from crowdreg.harness import RoundRecord

ROOT = Path(__file__).resolve().parents[1]


def synthetic_linear(n: int, d: int, seed, noise_sd: float = 0.0,
                     weight_scale: float = 1.0):
    """Plain linear ground truth; returns (X, targets, true weights)."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    w = weight_scale * rng.normal(size=d)
    y = X @ w
    if noise_sd > 0:
        y = y + rng.normal(0.0, noise_sd, size=n)
    return X, y, w


class TestLoadCsv:
    def test_plain_numeric_rows(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2,3\n4,5,6\n")
        matrix = load_csv(path)
        assert matrix.shape == (2, 3)
        assert np.array_equal(matrix[:, -1], [3.0, 6.0])

    def test_header_is_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,y\n1,2,3\n")
        matrix = load_csv(path)
        assert matrix.shape == (1, 3)

    def test_bad_cell_is_located(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2,3\n4,x,6\n")
        with pytest.raises(DataFormatError, match=r"row 2, column 2"):
            load_csv(path)

    def test_bad_cell_after_blank_lines_names_its_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,c\n1,2,3\n\n\n4,x,6\n")
        with pytest.raises(DataFormatError, match=r"row 5, column 2: cannot"):
            load_csv(path)

    def test_too_few_columns(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1\n2\n")
        with pytest.raises(DataFormatError):
            load_csv(path)

    @pytest.mark.parametrize("text,where", [
        ("1,2,3\n4,nan,6\n7,8,9\n1,5,2\n", "row 2, column 2"),
        ("x,z,y\n1,2,3\n4,5,6\ninf,8,9\n", "row 4, column 1"),
        ("1,2,3\n\n\n4,nan,6\n", "row 4, column 2"),  # blank lines count
    ])
    def test_non_finite_cell_is_located(self, tmp_path, text, where):
        # a NaN would otherwise reach normalize and zero its whole column
        path = tmp_path / "data.csv"
        path.write_text(text)
        with pytest.raises(DataFormatError, match=where + ": non-finite"):
            load_csv(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(DataFormatError, match="row 2"):
            load_csv(path)

    def test_non_utf8_file_is_named(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"\xff1,2,3\n4,5,6\n")
        with pytest.raises(DataFormatError, match="data.csv: not UTF-8"):
            load_csv(path)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with one; it must not make
        # the first data row unparseable and so a header
        path = tmp_path / "data.csv"
        path.write_bytes(b"\xef\xbb\xbf1,2,3\n4,5,6\n7,8,9\n")
        assert np.array_equal(load_csv(path), [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        path.write_bytes(b"\xef\xbb\xbfa,b,y\n1,2,3\n")
        assert np.array_equal(load_csv(path), [[1, 2, 3]])
        path.write_bytes(b"\xef\xbb\xbf1,2,3\n4,x,6\n")
        with pytest.raises(DataFormatError, match=r"row 2, column 2"):
            load_csv(path)

    def test_clean_file_skips_the_located_reader(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"x, y ,z\r\n\r\n 1.5,\t-2e-3,3\r\n4,5 ,6\r\n")
        with mock.patch.object(harness, "_load_csv_located",
                               side_effect=AssertionError("fallback ran")):
            matrix = load_csv(path)
        assert np.array_equal(matrix, [[1.5, -2e-3, 3.0], [4.0, 5.0, 6.0]])


def _float_text(value, kind, digits):
    return repr(value) if kind == "r" else f"%.{digits}{kind}" % value


_PAD = st.text(" \t", max_size=2)
_NUMBER = st.one_of(
    st.builds(_float_text, st.floats(allow_nan=False, allow_infinity=False),
              st.sampled_from("rge"), st.integers(0, 40)),
    st.builds(_float_text, st.floats(-1e-300, 1e-300),  # subnormals
              st.sampled_from("rge"), st.integers(0, 40)),
    st.integers(-10**40, 10**40).map(str),
)
_ODD = st.sampled_from(["nan", "-inf", "inf", "1e400", "-1e-400", "", "x",
                        '"2.5"', '"1,2"', "1_0", "0x10", " "])
_CELL = st.builds(lambda a, core, b: a + core + b, _PAD, _NUMBER, _PAD)
_ANY_CELL = st.builds(lambda a, core, b: a + core + b, _PAD,
                      st.one_of(_NUMBER, _ODD), _PAD)


@st.composite
def csv_texts(draw):
    """CSV text, clean or with the faults the readers must agree on: odd
    cells, ragged rows, trailing commas, whitespace-only lines, too few
    columns or rows.  Blank lines, padding, CRLF, a header and a leading
    byte-order mark are in both."""
    faulty = draw(st.booleans())
    width = draw(st.integers(1, 5) if faulty else st.integers(2, 5))
    lines = []
    if draw(st.booleans()):
        lines.append(",".join(draw(st.lists(
            st.sampled_from(["a", "y", " b ", '"q"', "1", ""]),
            min_size=width, max_size=width))))
    kinds = ["row", "blank"] + (["space", "ragged", "trailing"] if faulty
                                else [])
    rows = draw(st.lists(st.sampled_from(kinds), max_size=6))
    for kind in rows if faulty else ["row"] + rows:
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(st.sampled_from([" ", "\t", "  \t"])))
        else:
            n = width + (draw(st.sampled_from([-1, 1])) if kind == "ragged"
                         else 0)
            cell = _ANY_CELL if faulty else _CELL
            row = ",".join(draw(st.lists(cell, min_size=n, max_size=n)))
            lines.append(row + ("," if kind == "trailing" else ""))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + end.join(lines) + draw(st.sampled_from(["", end]))


def _read_outcome(read, path):
    try:
        matrix = read(path)
    except (DataFormatError, csv.Error) as exc:
        return type(exc).__name__, str(exc)
    return matrix.shape, matrix.tobytes()


@settings(max_examples=200, deadline=None)
@given(text=csv_texts())
def test_load_csv_agrees_with_the_located_reader(tmp_path_factory, text):
    # the fast path must return the located reader's bits or its error
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_bytes(text.encode())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _read_outcome(load_csv, path)
    assert caught == []
    assert got == _read_outcome(harness._load_csv_located, path)


class TestRmse:
    def test_perfect_prediction(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_value(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(3.535534, abs=1e-6)

    def test_single_element(self):
        assert rmse([5.0], [3.0]) == 2.0

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            rmse([1.0], [1.0, 2.0])
        with pytest.raises(InvalidInputError):
            rmse([], [])


class TestEmitRecords:
    records = [
        RoundRecord(0, 0, -1, -1, 0.0, True, 4.123456789, 0.0, 0, 0.0),
        RoundRecord(0, 1, 17, 3, -2.2345678912, False, 3.987654321,
                    0.5678912345, 2, 1.25),
    ]

    def test_empty_csv_is_header_only(self, tmp_path):
        path = tmp_path / "records.csv"
        emit_records([], path)
        assert path.read_text() == ("rep,round,instance,annotator,label,"
                                    "accepted,rmse,regret,discarded,payment\n")

    def test_single_record_two_lines(self, tmp_path):
        path = tmp_path / "records.csv"
        emit_records(self.records[:1], path)
        assert len(path.read_text().splitlines()) == 2

    def test_csv_round_trip_nine_digits(self, tmp_path):
        path = tmp_path / "records.csv"
        emit_records(self.records, path)
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        assert cells[:4] == ["0", "1", "17", "3"]
        assert float(cells[4]) == pytest.approx(-2.2345678912, rel=1e-9)
        assert cells[5] == "0"
        assert float(cells[7]) == pytest.approx(0.5678912345, rel=1e-9)

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "records.jsonl"
        emit_records(self.records, path, fmt="jsonl")
        objs = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(objs) == 2
        assert objs[1]["instance"] == 17
        assert objs[1]["accepted"] is False
        assert objs[1]["label"] == pytest.approx(-2.2345678912, rel=1e-9)
        assert list(objs[0]) == ["rep", "round", "instance", "annotator",
                                 "label", "accepted", "rmse", "regret",
                                 "discarded", "payment"]


# SHA-256 of the CSV records of the default config (robust_ucb) at
# repetitions=1, budget=20, taken on x86-64 Linux with numpy 2.4.6 and scipy
# 1.17.1.  A refactor of the fit or the selection must leave it unchanged.
# The SQUAREM fit with the relative rate stop moved it from da9347f4...: its
# refits stop nearer the fixed point than the old absolute rule's.  Drawing
# the labels from one normal stream per annotator moved it from a28195d3...
# Stopping each round refit at a relative rate change of 5e-5 moved it from
# a5e81398..., with no pick moved.
GOLDEN_RECORDS_SHA256 = (
    "6e26f4d5e934837b2b645c4bb32ee3f7da43e30cc6556ba6fd6995a55591f4b6")


def test_records_match_the_golden_digest(tmp_path):
    path = tmp_path / "records.csv"
    emit_records(run_experiment(ExperimentConfig(repetitions=1, budget=20)),
                 path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_RECORDS_SHA256


# SHA-256 of the CSV records of a sigmoid run on a CSV file with a header
# row, taken as above.  It pins load_csv and k-means, which the default
# config never runs; array-cost loading and centroid sums left it unchanged.
# The per-annotator label streams moved it from 8dc6f7f5...  The round
# refit's stop at 5e-5 moved it from 565b6168...
GOLDEN_SIGMOID_CSV_SHA256 = (
    "b4c14015120534971e3e10e98f232c19c075f5f3966528a4fc03186cfd3b7ccb")


def test_sigmoid_csv_records_match_the_golden_digest(tmp_path):
    X, y = harness.synthetic_housing_like(7, n=300, d=6)
    data = tmp_path / "data.csv"
    np.savetxt(data, np.column_stack([X, y]), fmt="%.17g", delimiter=",",
               header="x1,x2,x3,x4,x5,x6,y", comments="")
    config = ExperimentConfig(
        data_path=str(data), transform="sigmoid", s_grid=(0.5, 1.0, 2.0),
        num_annotators=8, num_good=6, budget=20, repetitions=2)
    path = tmp_path / "records.csv"
    emit_records(run_experiment(config), path)
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == GOLDEN_SIGMOID_CSV_SHA256)


def test_the_round_stop_moves_no_pick(monkeypatch, tmp_path):
    # each round refit stops at a relative rate change of 5e-5, not at the
    # fit's default 1e-6: every instance, annotator, label, acceptance,
    # regret and discard is the same as at 1e-6, and rmse and payment agree
    # to 1e-3 relative
    X, y = harness.synthetic_housing_like(7, n=300, d=6)
    data = tmp_path / "data.csv"
    np.savetxt(data, np.column_stack([X, y]), fmt="%.17g", delimiter=",")
    configs = [
        ExperimentConfig(repetitions=3),
        # a payment band that brackets the sigmoid model's precisions, so
        # that the payments follow the refits
        ExperimentConfig(data_path=str(data), transform="sigmoid",
                         s_grid=(0.5, 1.0, 2.0), num_annotators=8, num_good=6,
                         strategy="instance_only", budget=40, repetitions=2,
                         beta_lower=0.001, beta_upper=0.1),
    ]
    reports = []
    fit = harness.fit_variational

    def spy(*args, **kwargs):
        result = fit(*args, **kwargs)
        if kwargs.get("warm_start") is not None:
            reports.append(result[2])
        return result

    monkeypatch.setattr(harness, "fit_variational", spy)
    for config in configs:
        reports.clear()
        shipped = run_experiment(config)
        assert len(reports) == config.repetitions * config.budget
        for report in reports:
            assert ((report.converged and report.final_delta < 5e-5)
                    or report.iterations == 50)
        with monkeypatch.context() as patch:
            patch.setattr(harness, "_ROUND_TOLERANCE", 1e-6)
            tight = run_experiment(config)
        assert len(shipped) == len(tight) == config.repetitions * (
            config.budget + 1)
        for a, b in zip(shipped, tight):
            assert ((a.rep, a.round, a.instance, a.annotator, a.label,
                     a.accepted, a.regret, a.discarded)
                    == (b.rep, b.round, b.instance, b.annotator, b.label,
                        b.accepted, b.regret, b.discarded))
            assert a.rmse == pytest.approx(b.rmse, rel=1e-3)
            assert a.payment == pytest.approx(b.payment, rel=1e-3)


def small_config(**overrides):
    base = dict(budget=15, repetitions=2, num_annotators=6, num_good=4,
                seed_pool_size=5, base_seed=0)
    base.update(overrides)
    return ExperimentConfig(**base)


def write_csv(path, X, y):
    rows = [",".join(f"{v}" for v in list(xr) + [yr]) for xr, yr in zip(X, y)]
    path.write_text("\n".join(rows) + "\n")


class TestRunExperiment:
    def test_budget_zero_emits_baseline_only(self):
        records = run_experiment(small_config(budget=0))
        assert len(records) == 2
        assert all(r.round == 0 and r.instance == -1 for r in records)

    def test_reruns_are_identical(self, tmp_path):
        cfg = small_config(strategy="random")
        a, b = run_experiment(cfg), run_experiment(cfg)
        assert a == b
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_records(a, pa)
        emit_records(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_labeled_set_grows_one_per_round(self):
        records = run_experiment(small_config(strategy="robust_ucb"))
        per_rep = {}
        for r in records:
            per_rep.setdefault(r.rep, []).append(r)
        for rows in per_rep.values():
            rounds = [r.round for r in rows]
            assert rounds == list(range(len(rows)))
            instances = [r.instance for r in rows[1:]]
            assert len(set(instances)) == len(instances)  # no repeats

    def test_monotone_regret_and_discards(self):
        records = run_experiment(small_config(strategy="robust_ucb"))
        per_rep = {}
        for r in records:
            per_rep.setdefault(r.rep, []).append(r)
        for rows in per_rep.values():
            regrets = [r.regret for r in rows]
            discards = [r.discarded for r in rows]
            assert all(b >= a for a, b in zip(regrets, regrets[1:]))
            assert all(b >= a for a, b in zip(discards, discards[1:]))

    def test_pool_exhaustion_stops_early(self, tmp_path):
        X, y, _ = synthetic_linear(12, 2, seed=0, noise_sd=0.1)
        path = tmp_path / "tiny.csv"
        write_csv(path, X, y)
        cfg = ExperimentConfig(data_path=str(path), budget=50, repetitions=1,
                               num_annotators=3, num_good=2, seed_pool_size=4,
                               transform="linear")
        records = run_experiment(cfg)
        # 12 rows, ~4 test, 8 pool, 4 seeded: only 4 bandit rounds fit
        assert 1 < len(records) < 51

    def test_better_annotator_dominates_pulls(self, tmp_path):
        # clean 3-feature data, two annotators with noise sd 0.2 vs 2.0: the
        # cleaner one should take well over half of the robust-ucb pulls
        X, y, _ = synthetic_linear(500, 3, seed=77, noise_sd=0.0)
        path = tmp_path / "clean.csv"
        write_csv(path, X, y)
        shares = []
        for seed in range(10):
            cfg = ExperimentConfig(
                data_path=str(path), transform="linear",
                budget=300, repetitions=1, num_annotators=2, num_good=1,
                interval_good=(0.2, 0.2), interval_bad=(2.0, 2.0),
                seed_pool_size=10, base_seed=seed, strategy="robust_ucb",
            )
            records = run_experiment(cfg)
            pulls = [r.annotator for r in records if r.round > 0]
            shares.append(pulls.count(0) / len(pulls))
        assert np.mean(shares) > 0.6

    def test_single_source_beats_crowd_strategies(self, tmp_path):
        # on clean linear data a near-noiseless source is the anchor:
        # no crowd strategy can do better on the same splits
        X, y, _ = synthetic_linear(300, 3, seed=11, noise_sd=0.0)
        path = tmp_path / "clean.csv"
        write_csv(path, X, y)
        finals = {}
        for strategy in ("single_source", "robust_ucb", "instance_only",
                         "random"):
            cfg = ExperimentConfig(
                data_path=str(path), transform="linear",
                budget=40, repetitions=3, num_annotators=8, num_good=6,
                seed_pool_size=8, base_seed=2, strategy=strategy,
            )
            summary = summarize(run_experiment(cfg))
            finals[strategy] = np.mean([row[1] for row in summary])
        anchor = finals.pop("single_source")
        assert all(anchor <= value for value in finals.values())

    def test_single_source_scale_search_fits_one_precision(self, monkeypatch):
        # the lone source is the whole population, also while the sigmoid
        # scale is chosen from a grid: every fit carries one precision factor,
        # and every fit of the repetition runs under the same prior objects
        seen, keywords, priors = [], [], []
        fit = harness.fit_variational

        def spy(dataset, weight_prior, precision_priors, **kwargs):
            seen.append((dataset.num_annotators, precision_priors.shape.size))
            keywords.append(kwargs)
            priors.append((weight_prior, precision_priors))
            return fit(dataset, weight_prior, precision_priors, **kwargs)

        monkeypatch.setattr(harness, "fit_variational", spy)
        run_experiment(small_config(strategy="single_source",
                                    transform="sigmoid", s_grid=(0.5, 1, 2),
                                    budget=2, repetitions=1))
        assert len(seen) == 3 + 1 + 2  # grid, seed fit, one per round
        assert set(seen) == {(1, 1)}
        weight_prior, precision_priors = priors[0]
        for w, p in priors:
            assert w is weight_prior and p is precision_priors
        # grid and seed fits run at the fit's defaults; each refit is capped
        # at 50 sweeps, stops at a relative rate change of 5e-5 and is
        # warm-started
        assert keywords[:4] == [{}] * 4
        for kwargs in keywords[4:]:
            assert set(kwargs) == {"max_sweeps", "tolerance", "warm_start"}
            assert kwargs["max_sweeps"] == 50
            assert kwargs["tolerance"] == 5e-5
            assert kwargs["warm_start"] is not None

    def test_every_bulk_build_is_a_block_checked_as_a_whole(self,
                                                            monkeypatch):
        # full_fit, the seed fit and the scale search pass their answers as
        # blocks: none reaches the label-by-label check, and each dataset
        # holds its statistics when its constructor returns
        checked, built = [], []
        check, construct = model._checked_labels, harness.CrowdDataset

        def spy_check(*args):
            checked.append(args)
            return check(*args)

        def spy_build(*args):
            ds = construct(*args)
            built.append("_suffstats" in vars(ds))
            return ds

        monkeypatch.setattr(model, "_checked_labels", spy_check)
        monkeypatch.setattr(harness, "CrowdDataset", spy_build)
        full_fit(ExperimentConfig(repetitions=1))
        full_fit(ExperimentConfig(repetitions=1, transform="sigmoid",
                                  s_grid=(0.5, 1.0, 2.0), num_annotators=8,
                                  num_good=6))
        run_experiment(small_config(budget=2, repetitions=1))
        assert built == [True] * (1 + 3 + 1 + 1)  # fit, grid and fit, seed
        assert checked == []

    def test_single_source_has_zero_regret(self):
        records = run_experiment(small_config(strategy="single_source"))
        assert all(r.regret == 0.0 for r in records)

    def test_bandit_premise_holds_on_realizable_data(self, tmp_path):
        # targets exactly linear in the features: a round's residual is then
        # annotator noise alone, so the rewards' raw second moment E[r^4]
        # stays within the u the harness sets, and the bandit pays off
        X, _ = harness.synthetic_housing_like(0)
        Xc = X - X.mean(0)
        w = np.random.default_rng(5).normal(size=12)
        y = Xc @ (w * (8.0 / (Xc @ w).std()))
        path = tmp_path / "realizable.csv"
        np.savetxt(path, np.column_stack([X, y]), fmt="%.17g", delimiter=",")
        for seed in range(3):
            config = ExperimentConfig(data_path=str(path), repetitions=3,
                                      base_seed=seed)
            with mock.patch.object(bandit, "record_outcome",
                                   wraps=bandit.record_outcome) as spy:
                ucb = summarize(run_experiment(config))
            residual_sq = np.array([c.args[2] for c in spy.call_args_list])
            assert residual_sq.size == 3 * config.budget
            assert np.mean(residual_sq ** 2) <= config.moment_bound()
            uniform = summarize(run_experiment(
                replace(config, strategy="instance_only")))
            assert (np.mean([row[2] for row in ucb])
                    < np.mean([row[2] for row in uniform]))


class TestConfig:
    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(InvalidInputError, match="unknown config keys"):
            ExperimentConfig.from_dict({"bogus": 1})
        for removed in ("sigma_max", "vi_tolerance", "initial_sweeps",
                        "round_sweeps", "target_rmse"):
            with pytest.raises(InvalidInputError,
                               match=f"unknown config keys: \\['{removed}'\\]"):
                ExperimentConfig.from_dict({removed: 2.0})
        # keys of mixed types, which only a dict (not JSON) can hold
        with pytest.raises(InvalidInputError,
                           match=r"unknown config keys: \['foo', 2\]"):
            ExperimentConfig.from_dict({"foo": 1, 2: 3})

    def test_from_file_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"budget": 7, "strategy": "random",
                                    "s_grid": [0.5, 1.0]}))
        cfg = ExperimentConfig.from_file(path)
        assert cfg.budget == 7
        assert cfg.strategy == "random"
        assert cfg.s_grid == (0.5, 1.0)

    def test_from_file_drops_a_byte_order_mark(self, tmp_path):
        # spreadsheets and some editors write one; load_csv drops it too
        text = json.dumps({"budget": 7, "interval_good": [0.2, 0.5]})
        plain, bom = tmp_path / "plain.json", tmp_path / "bom.json"
        plain.write_text(text, encoding="utf-8")
        bom.write_text(text, encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        assert (ExperimentConfig.from_file(bom)
                == ExperimentConfig.from_file(plain))

    def test_field_validation(self):
        with pytest.raises(InvalidInputError):
            ExperimentConfig(test_fraction=1.5)
        with pytest.raises(InvalidInputError):
            ExperimentConfig(strategy="greedy")
        with pytest.raises(InvalidInputError):
            ExperimentConfig(repetitions=0)

    # explicit ids, so that deleting a case renames no other; they keep the
    # positional ids the cases were first collected under
    @pytest.mark.parametrize("values,key", [
        pytest.param({"budget": "10"}, "budget", id="values0-budget"),
        pytest.param({"budget": 2.5}, "budget", id="values1-budget"),
        pytest.param({"budget": True}, "budget", id="values2-budget"),
        pytest.param({"s_grid": 2.0}, "s_grid", id="values3-s_grid"),
        pytest.param({"s_grid": [1.0, "2"]}, "s_grid", id="values4-s_grid"),
        pytest.param({"interval_good": [0.1]}, "interval_good",
                     id="values5-interval_good"),
        pytest.param({"test_fraction": "0.3"}, "test_fraction",
                     id="values6-test_fraction"),
        pytest.param({"data_path": 3}, "data_path", id="values7-data_path"),
        pytest.param({"num_annotators": 0}, "num_annotators",
                     id="values8-num_annotators"),
        pytest.param({"num_good": 60}, "num_good", id="values9-num_good"),
        pytest.param({"num_good": -1}, "num_good", id="values10-num_good"),
        # a NaN or an inf anywhere in the grid is no scale; [] holds none
        pytest.param({"s_grid": [1.0, math.nan]}, "s_grid",
                     id="values11-s_grid"),
        pytest.param({"s_grid": [1.0, math.inf]}, "s_grid",
                     id="values12-s_grid"),
        pytest.param({"s_grid": []}, "s_grid", id="values13-s_grid"),
        pytest.param({"output_format": "xml"}, "output_format",
                     id="values14-output_format"),
        pytest.param({"payment_budget": math.inf}, "payment_budget",
                     id="values15-payment_budget"),
        pytest.param({"payment_budget": 0}, "payment_budget",
                     id="values16-payment_budget"),
        pytest.param({"u_override": -1}, "u_override",
                     id="values17-u_override"),
        pytest.param({"u_override": math.inf}, "u_override",
                     id="values18-u_override"),
        pytest.param({"beta_lower": 0.0}, "beta_lower",
                     id="values19-beta_lower"),
        pytest.param({"beta_upper": math.inf}, "beta_upper",
                     id="values20-beta_upper"),
        pytest.param({"interval_good": [0.1, math.inf]}, "interval_good",
                     id="values21-interval_good"),
        pytest.param({"interval_good": [0.0, 1.0]}, "interval_good",
                     id="values22-interval_good"),
        pytest.param({"interval_bad": [2.0, 1.0]}, "interval_bad",
                     id="values23-interval_bad"),
        # the resolved band: beta_upper defaults to 1 / 0.1^2 = 100 and
        # beta_lower to 1 / 2^2 = 0.25
        pytest.param({"beta_lower": 200.0}, "beta_lower",
                     id="values24-beta_lower"),
        pytest.param({"beta_upper": 0.1}, "beta_lower",
                     id="values25-beta_lower"),
        # default band ends and moment bound whose power under- or overflows:
        # 1 / lo^2 divides by an underflowed 0 at 1e-200 and is inf at 1e-160
        pytest.param({"interval_good": [1e-200, 1.0]}, "interval_good",
                     id="values26-interval_good"),
        pytest.param({"interval_good": [1e-160, 1.0]}, "interval_good",
                     id="values27-interval_good"),
        pytest.param({"interval_bad": [1.0, 1e200]}, "interval_bad",
                     id="values28-interval_bad"),
        pytest.param({"interval_bad": [1e-200, 1e-200]}, "interval_bad",
                     id="values29-interval_bad"),
        pytest.param({"interval_bad": [1.0, 1e100],
                      "interval_good": [1e-120, 1.0]}, "interval_bad",
                     id="values30-interval_bad"),
        # an empty band also names where each end came from: the key set,
        # or the interval its default derives from (1 / 0.09^2 > 100)
        pytest.param({"beta_upper": 0.1}, "beta_upper",
                     id="values31-beta_upper"),
        pytest.param({"interval_bad": [0.05, 0.09]}, "interval_bad",
                     id="values32-interval_bad"),
        # a moment bound too large for the bandit at the largest horizon,
        # 10 * 50 + 100: set, or derived as 3 hi^4 (about 2.4e306)
        pytest.param({"u_override": 1e306}, "u_override",
                     id="values33-u_override"),
        pytest.param({"interval_bad": [1.0, 3e76]}, "interval_bad",
                     id="values34-interval_bad"),
        # a horizon beyond the float range names the term that overflows,
        # not the moment bound that no horizon that large admits
        pytest.param({"seed_pool_size": 10**309}, "seed_pool_size",
                     id="values35-seed_pool_size"),
        pytest.param({"budget": 10**309}, "budget", id="values36-budget"),
    ])
    def test_from_dict_names_the_bad_key(self, values, key):
        with pytest.raises(InvalidInputError, match=f"config key '{key}'"):
            ExperimentConfig.from_dict(values)

    def test_a_horizon_overflowing_as_a_product_or_sum_names_its_keys(self):
        with pytest.raises(InvalidInputError, match=(
                "^config keys 'seed_pool_size', 'num_annotators': the largest "
                "horizon")):
            ExperimentConfig(seed_pool_size=10**200, num_annotators=10**200)
        with pytest.raises(InvalidInputError, match=(
                "^config keys 'seed_pool_size', 'num_annotators', 'budget':")):
            ExperimentConfig(seed_pool_size=2 * 10**306, budget=10**308)

    def test_a_strategy_without_the_bandit_takes_any_moment_bound(self):
        config = ExperimentConfig(u_override=1e306, strategy="random",
                                  budget=2, repetitions=1)
        assert len(run_experiment(config)) == 3

    def test_default_moment_bound_from_bad_interval(self):
        cfg = ExperimentConfig()
        assert cfg.moment_bound() == pytest.approx(3.0 * 2.0**4)
        assert ExperimentConfig(u_override=5.0).moment_bound() == 5.0


def openblas_cores() -> list[str]:
    """The core name of every OpenBLAS library mapped into this process
    (numpy's and, once crowdreg has loaded LAPACK, scipy's), read as CI's
    "OpenBLAS core" step reads it: by the current symbol, then the older
    names."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line})
    except OSError:
        return []
    cores = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_corename64_",
                       "scipy_openblas_get_corename",
                       "openblas_get_corename64_", "openblas_get_corename"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_char_p
                cores.append(getter().decode())
                break
    return cores


class TestFullFit:
    def test_linear_ground_truth_recovered(self, tmp_path):
        # noiseless targets, near-noiseless annotators: the only residual
        # error is the split-specific feature recentering, which shrinks
        # with the pool size
        X, y, _ = synthetic_linear(1000, 3, seed=5, noise_sd=0.0)
        y = y - y.mean()
        path = tmp_path / "clean.csv"
        write_csv(path, X, y)
        cfg = ExperimentConfig(data_path=str(path), repetitions=2,
                               num_annotators=5, num_good=5,
                               interval_good=(0.05, 0.1), transform="linear")
        scores = full_fit(cfg)
        assert max(scores) < 0.15

    def test_sigmoid_transform_path_runs(self):
        cfg = ExperimentConfig(repetitions=1, transform="sigmoid",
                               s_grid=(0.5, 1.0), num_annotators=8, num_good=6)
        scores = full_fit(cfg)
        assert len(scores) == 1 and np.isfinite(scores[0])

    # float.hex of the scores, (linear, sigmoid), with annotator j's noise
    # on the pool drawn as default_rng([rep_seed, _LABEL, j]).standard_normal
    # (n_pool); any other label bits move them.  They are pinned per OpenBLAS
    # core, whose BLAS and LAPACK kernels round differently; OpenBLAS names
    # its OPENBLAS_CORETYPE=Prescott kernels "Katmai".
    PINS = {
        "SkylakeX": (
            ["0x1.2686acfb29a32p+2", "0x1.36c77ff9a41f8p+2",
             "0x1.5418f2fd128f9p+2"],
            ["0x1.e4a3ea4c4df7dp+2", "0x1.e447a7a5e1e02p+2",
             "0x1.08af4443cc757p+3"]),
        "Haswell": (
            ["0x1.2686acfb29a35p+2", "0x1.36c77ff9a41f6p+2",
             "0x1.5418f2fd128f8p+2"],
            ["0x1.e4a3ea4c4dfa0p+2", "0x1.e447a7a5e1e4bp+2",
             "0x1.08af4443cc760p+3"]),
        "Katmai": (
            ["0x1.2686acfb29a34p+2", "0x1.36c77ff9a41f6p+2",
             "0x1.5418f2fd128f9p+2"],
            ["0x1.e4a3ea4c4dfadp+2", "0x1.e447a7a5e1e31p+2",
             "0x1.08af4443cc756p+3"]),
    }

    def test_scores_are_pinned_to_the_bit(self):
        core = "/".join(sorted(set(openblas_cores()))) or "not found"
        if core not in self.PINS:
            pytest.fail(f"no float.hex pins for OpenBLAS core {core!r}")
        linear, sigmoid = self.PINS[core]
        scores = full_fit(ExperimentConfig(repetitions=3))
        assert [s.hex() for s in scores] == linear
        cfg = ExperimentConfig(repetitions=3, transform="sigmoid",
                               s_grid=(0.5, 1.0, 2.0), num_annotators=8,
                               num_good=6)
        assert [s.hex() for s in full_fit(cfg)] == sigmoid

    # seeds of one, two and three 32-bit words, each word boundary included
    @pytest.mark.parametrize("rep_seed", [0, 3, 2**32 - 1, 2**32, 2**64 + 3])
    @pytest.mark.parametrize("k", [None, 10])
    def test_answers_are_label_value_on_the_default_rng_stream(self, rep_seed,
                                                               k):
        # the answers, drawn in place, are label_value's on the noise of
        # default_rng([rep_seed, _LABEL, j]) to the bit, and the seed block
        # holds their first k columns
        config = ExperimentConfig()
        data = harness._load_data(config)
        setup = harness._setup(config, data, rep_seed, k)
        pool_z = data[1][setup.pool_idx]
        assert setup.answers.shape == (config.num_annotators, pool_z.size)
        for j, effort in enumerate(setup.efforts):
            noise = np.random.default_rng(
                [rep_seed, harness._LABEL, j]).standard_normal(pool_z.size)
            want = label_value(AnnotatorProfile(effort), pool_z, effort, noise)
            assert setup.answers[j].tobytes() == want.tobytes()
        block = setup.answers[:, :k]
        assert setup.dataset.values.tobytes() == block.tobytes()

    def test_builtin_data_is_built_once_read_only(self):
        # a run without a data file shares one read-only copy of the
        # built-in dataset; synthetic_housing_like still returns fresh,
        # writable arrays
        first = harness._load_data(ExperimentConfig())
        second = harness._load_data(ExperimentConfig(base_seed=5))
        fresh = harness.synthetic_housing_like()
        for shared, again, built in zip(first, second, fresh):
            assert shared is again
            assert not shared.flags.writeable and built.flags.writeable
            assert shared.tobytes() == built.tobytes()

    def test_full_fit_never_builds_the_block_label_vectors(self,
                                                          monkeypatch):
        # a fit reads the block's values and statistics only: its rows and
        # annotators vectors are never built, in the scale search either
        built, construct = [], harness.CrowdDataset

        def spy_build(*args):
            built.append(construct(*args))
            return built[-1]

        monkeypatch.setattr(harness, "CrowdDataset", spy_build)
        full_fit(ExperimentConfig(repetitions=1))
        full_fit(ExperimentConfig(repetitions=1, transform="sigmoid",
                                  s_grid=(0.5, 1.0, 2.0), num_annotators=8,
                                  num_good=6))
        assert len(built) == 1 + 3 + 1  # fit, grid and fit
        for ds in built:
            assert not {"rows", "annotators"} & set(vars(ds))

    def test_peak_allocation_stays_under_four_answer_matrices(self):
        # one default full_fit after a warm-up holds the answer matrix, the
        # dataset's one copy of it and the fit's small arrays: about 3.5
        # matrices.  Each further matrix-sized array on this path is freed
        # within the op, and glibc may trim and re-fault it on every op
        config = ExperimentConfig(repetitions=1)
        matrix = harness._setup(config, harness._load_data(config),
                                config.base_seed, None).answers.nbytes
        full_fit(config)
        tracemalloc.start()
        try:
            full_fit(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * matrix


@settings(max_examples=25, deadline=None)
@given(base_seed=st.integers(0, 2**64 - 1),
       strategy=st.sampled_from(harness.STRATEGIES))
def test_every_label_is_the_full_pool_answer(base_seed, strategy):
    # a label depends only on (rep_seed, annotator, pool row): each procured
    # label, seed pool included, is the answer that a full_fit set-up holds
    # for it, and every crowd strategy reads the robust_ucb answers
    config = small_config(base_seed=base_seed, strategy=strategy)
    data = harness._load_data(config)
    records = run_experiment(config)
    if harness._RULES[strategy][1] != "source":
        config = replace(config, strategy="robust_ucb")
    for rep in range(config.repetitions):
        rep_seed = base_seed + rep
        full = harness._setup(config, data, rep_seed, None)
        answers = full.answers
        position = {int(row): pos for pos, row in enumerate(full.pool_idx)}
        seed_dataset = harness._setup(config, data, rep_seed,
                                      config.seed_pool_size).dataset
        m, k = answers.shape[0], config.seed_pool_size
        assert np.array_equal(seed_dataset.rows, np.tile(np.arange(k), m))
        assert np.array_equal(seed_dataset.annotators,
                              np.repeat(np.arange(m), k))
        assert np.array_equal(seed_dataset.values, answers[:, :k].ravel())
        rounds = [r for r in records if r.rep == rep and r.round > 0]
        assert len(rounds) == config.budget
        for r in rounds:
            assert r.label == answers[r.annotator, position[r.instance]]


class TestCli:
    def run_cli(self, *args):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        return subprocess.run(
            [sys.executable, "-m", "crowdreg.cli", *args],
            capture_output=True, text=True, env=env,
        )

    def test_run_writes_records_and_summaries(self, tmp_path):
        out = tmp_path / "records.csv"
        proc = self.run_cli("run", "--budget", "5", "--reps", "2",
                            "--seed", "1", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
        lines = out.read_text().splitlines()
        assert lines[0].startswith("rep,round,")
        assert len(lines) == 1 + 2 * 6
        assert proc.stdout.count("rep=") == 2

    def test_fit_reports_mean(self, tmp_path):
        proc = self.run_cli("fit", "--reps", "2", "--seed", "0")
        assert proc.returncode == 0, proc.stderr
        assert "mean_rmse=" in proc.stdout

    def test_missing_file_fails_cleanly(self):
        proc = self.run_cli("run", "--data", "/nonexistent/file.csv")
        assert proc.returncode == 1
        assert "error:" in proc.stderr

    def test_mistyped_config_value_fails_cleanly(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"budget": "10"}))
        proc = self.run_cli("run", "--config", str(config))
        assert proc.returncode == 1
        assert "error:" in proc.stderr and "budget" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_infinite_payment_budget_fails_cleanly(self, tmp_path):
        # json reads Infinity; the run used to write inf and nan records
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"payment_budget": math.inf}))
        out = tmp_path / "records.csv"
        proc = self.run_cli("run", "--config", str(config), "--out", str(out))
        assert proc.returncode == 1
        assert "error:" in proc.stderr and "payment_budget" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("flag,name", [("--config", "bin.json"),
                                           ("--data", "bin.csv")])
    def test_non_utf8_file_fails_cleanly(self, tmp_path, flag, name):
        path = tmp_path / name
        path.write_bytes(b"\xff{}\n")
        proc = self.run_cli("run", flag, str(path), "--budget", "1",
                            "--out", str(tmp_path / "records.csv"))
        assert proc.returncode == 1
        assert "error:" in proc.stderr and name in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_tiny_good_interval_fails_cleanly(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"interval_good": [1e-200, 1.0]}))
        out = tmp_path / "records.csv"
        proc = self.run_cli("run", "--config", str(config), "--out", str(out))
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "interval_good" in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "fit"])
    def test_one_row_data_file_fails_naming_it(self, tmp_path, command):
        # the split needs a pool row and a test row
        path = tmp_path / "one_row.csv"
        path.write_text("x,y\n1.5,2.0\n")
        proc = self.run_cli(command, "--data", str(path), "--reps", "1")
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert f"{path}: 1 data row;" in lines[0]
        assert "split needs at least 2 rows" in lines[0]

    def test_config_file_with_overrides(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"budget": 3, "repetitions": 1,
                                      "num_annotators": 4, "num_good": 3,
                                      "seed_pool_size": 4}))
        out = tmp_path / "r.jsonl"
        proc = self.run_cli("run", "--config", str(config), "--budget", "2",
                            "--out", str(out), "--format", "jsonl")
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().splitlines()
        assert len(lines) == 3  # baseline + 2 rounds
        assert json.loads(lines[-1])["round"] == 2


@pytest.mark.parametrize("entry", [run_experiment, full_fit])
def test_sigmoid_pool_with_too_few_distinct_rows_fails_naming_the_key(
        tmp_path, entry):
    # k-means fits one center per feature: 3 features, but every row is one
    # of 2 points
    X = np.tile([[1.0, 2.0, 3.0], [4.0, 6.0, 5.0]], (10, 1))
    path = tmp_path / "two_points.csv"
    write_csv(path, X, X.sum(axis=1))
    config = small_config(data_path=str(path), transform="sigmoid",
                          repetitions=1)
    with pytest.raises(InvalidInputError,
                       match=r"^config key 'transform': .* the pool has 2 "
                             r"distinct rows for its 3 features$"):
        entry(config)


def test_a_moment_bound_that_overflows_the_ucb_width_fails_the_run():
    # the bandit rejects a u whose width 32 u log(horizon) overflows; the
    # config runs that check at the largest horizon, 10 * 50 + 5, so the run
    # fails before its set-up, naming the key
    with pytest.raises(InvalidInputError, match=r"^config key 'u_override': "
                                                r"u=1e\+308 .*horizon=505:"):
        ExperimentConfig(u_override=1e308, repetitions=1, budget=5)
