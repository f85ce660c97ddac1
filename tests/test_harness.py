import json
import subprocess
import sys

import numpy as np
import pytest

from crowdreg import (
    DataFormatError,
    ExperimentConfig,
    InvalidInputError,
    emit_records,
    full_fit,
    load_csv,
    rmse,
    run_experiment,
    summarize,
    synthetic_linear,
)
from crowdreg import harness
from crowdreg.harness import RoundRecord


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

    def test_too_few_columns(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1\n2\n")
        with pytest.raises(DataFormatError):
            load_csv(path)

    @pytest.mark.parametrize("text,where", [
        ("1,2,3\n4,nan,6\n7,8,9\n1,5,2\n", "row 2, column 2"),
        ("x,z,y\n1,2,3\n4,5,6\ninf,8,9\n", "row 4, column 1"),
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
        # scale is chosen from a grid: every fit carries one precision factor
        seen = []
        fit = harness.fit_variational

        def spy(dataset, weight_prior, precision_priors, **kwargs):
            seen.append((dataset.num_annotators, len(precision_priors)))
            return fit(dataset, weight_prior, precision_priors, **kwargs)

        monkeypatch.setattr(harness, "fit_variational", spy)
        run_experiment(small_config(strategy="single_source",
                                    transform="sigmoid", s_grid=(0.5, 1, 2),
                                    budget=2, repetitions=1))
        assert len(seen) == 3 + 1 + 2  # grid, seed fit, one per round
        assert set(seen) == {(1, 1)}

    def test_single_source_has_zero_regret(self):
        records = run_experiment(small_config(strategy="single_source"))
        assert all(r.regret == 0.0 for r in records)

    def test_early_stop_on_target_rmse(self):
        cfg = small_config(budget=15, target_rmse=1e9)
        records = run_experiment(cfg)
        # absurdly loose target: every repetition stops after one round
        assert [r.round for r in records] == [0, 1, 0, 1]


class TestConfig:
    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(InvalidInputError, match="unknown config keys"):
            ExperimentConfig.from_dict({"bogus": 1})

    def test_from_file_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"budget": 7, "strategy": "random",
                                    "s_grid": [0.5, 1.0]}))
        cfg = ExperimentConfig.from_file(path)
        assert cfg.budget == 7
        assert cfg.strategy == "random"
        assert cfg.s_grid == (0.5, 1.0)

    def test_field_validation(self):
        with pytest.raises(InvalidInputError):
            ExperimentConfig(test_fraction=1.5)
        with pytest.raises(InvalidInputError):
            ExperimentConfig(strategy="greedy")
        with pytest.raises(InvalidInputError):
            ExperimentConfig(repetitions=0)

    @pytest.mark.parametrize("values,key", [
        ({"budget": "10"}, "budget"),
        ({"budget": 2.5}, "budget"),
        ({"budget": True}, "budget"),
        ({"s_grid": 2.0}, "s_grid"),
        ({"s_grid": [1.0, "2"]}, "s_grid"),
        ({"interval_good": [0.1]}, "interval_good"),
        ({"vi_tolerance": "1e-6"}, "vi_tolerance"),
        ({"data_path": 3}, "data_path"),
        ({"num_annotators": 0}, "num_annotators"),
        ({"num_good": 60}, "num_good"),
        ({"num_good": -1}, "num_good"),
        ({"initial_sweeps": 0}, "initial_sweeps"),
        ({"round_sweeps": 0}, "round_sweeps"),
        ({"vi_tolerance": 0}, "vi_tolerance"),
        ({"output_format": "xml"}, "output_format"),
    ])
    def test_from_dict_names_the_bad_key(self, values, key):
        with pytest.raises(InvalidInputError, match=f"config key '{key}'"):
            ExperimentConfig.from_dict(values)

    def test_default_moment_bound_from_bad_interval(self):
        cfg = ExperimentConfig()
        assert cfg.moment_bound() == pytest.approx(3.0 * 2.0**4)
        assert ExperimentConfig(u_override=5.0).moment_bound() == 5.0


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


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "crowdreg.cli", *args],
            capture_output=True, text=True,
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
