"""Bootstrap aggregation, benchmark harness, and the command-line interface."""

import csv

import numpy as np
import pytest

from autoboost.cli import (
    BenchmarkTask,
    bootstrap_aggregate,
    bootstrap_minima,
    main,
    read_benchmark_spec,
    run_benchmark,
)
from autoboost.pipeline import AutoConfig

from conftest import binary_margin_dataset


def dataset_to_csv(ds, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        names = [c.name for c in ds.columns]
        writer.writerow(names)
        for i in range(ds.n_rows):
            row = []
            for c in ds.columns:
                v = c.values[i]
                if c.kind == "numeric":
                    row.append("" if np.isnan(v) else repr(float(v)))
                else:
                    row.append("" if v == "__NA__" else str(v))
            writer.writerow(row)
    return path


class TestBootstrapAggregate:
    def test_constant_runs(self):
        for size in (1, 4, 7):
            assert bootstrap_aggregate([0.1] * 9, B=500, size=size, seed=1) == pytest.approx(0.1)

    def test_single_run(self):
        assert bootstrap_aggregate([0.37], B=100, size=4, seed=3) == 0.37

    def test_analytic_rare_best_case(self):
        # One perfect run among 24 failures: P(min of 4 = 0) = 1 - (24/25)^4
        # = 0.15065... < 0.5, so the median of the minima is 1.0.
        runs = [0.0] + [1.0] * 24
        minima = bootstrap_minima(runs, B=100_000, size=4, seed=7)
        assert float(np.median(minima)) == 1.0
        p_zero = float(np.mean(minima == 0.0))
        assert abs(p_zero - (1.0 - (24 / 25) ** 4)) < 0.01

    def test_size_one_is_plain_bootstrap_median(self):
        value = bootstrap_aggregate([0.1, 0.2, 0.3], B=100_000, size=1, seed=11)
        assert abs(value - 0.2) <= 0.01

    def test_min_of_four_dominates_min_of_one(self):
        vectors = ([0.1, 0.4, 0.4, 0.9], [0.25, 0.5, 0.75], [0.05, 0.2, 0.2, 0.6, 0.8])
        for vec in vectors:
            four = bootstrap_aggregate(vec, B=100_000, size=4, seed=13)
            one = bootstrap_aggregate(vec, B=100_000, size=1, seed=13)
            assert four <= one + 1e-12

    def test_deterministic_per_seed(self):
        runs = np.random.default_rng(0).uniform(size=25)
        a = bootstrap_aggregate(runs, B=10_000, size=4, seed=5)
        b = bootstrap_aggregate(runs, B=10_000, size=4, seed=5)
        assert a == b

    def test_mean_aggregation_mode(self):
        runs = [0.0, 1.0]
        min_value = bootstrap_aggregate(runs, B=50_000, size=4, seed=1, agg="min")
        mean_value = bootstrap_aggregate(runs, B=50_000, size=4, seed=1, agg="mean")
        assert min_value == 0.0
        assert 0.4 < mean_value < 0.6

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_aggregate([], B=10, size=4, seed=1)
        with pytest.raises(ValueError):
            bootstrap_aggregate([0.1], B=0, size=4, seed=1)
        with pytest.raises(ValueError):
            bootstrap_aggregate([0.1], B=10, size=4, seed=1, agg="max")


@pytest.fixture(scope="module")
def csv_pair(tmp_path_factory):
    base = tmp_path_factory.mktemp("bench")
    train = dataset_to_csv(binary_margin_dataset(200, seed=1), base / "train.csv")
    test = dataset_to_csv(binary_margin_dataset(90, seed=2), base / "test.csv")
    return base, train, test


FAST_CFG = AutoConfig(budget=4, deadline=60.0, max_rounds=20, patience=4)


class TestRunBenchmark:
    def test_single_repetition_equals_run_value(self, csv_pair):
        base, train, test = csv_pair
        tasks = [BenchmarkTask("toy", train, test, "label", "mmce")]
        report = run_benchmark(tasks, FAST_CFG, repetitions=1, B=1000, size=4, seed=3)
        d = report.datasets[0]
        assert d.error is None
        assert len(d.run_values) == 1
        assert d.aggregated == d.run_values[0]
        assert d.baseline is not None

    def test_deterministic_and_beats_baseline(self, csv_pair):
        base, train, test = csv_pair
        tasks = [BenchmarkTask("toy", train, test, "label", "mmce")]
        a = run_benchmark(tasks, FAST_CFG, repetitions=2, B=2000, size=2, seed=5)
        b = run_benchmark(tasks, FAST_CFG, repetitions=2, B=2000, size=2, seed=5)
        assert a.datasets[0].run_values == b.datasets[0].run_values
        assert a.datasets[0].aggregated == b.datasets[0].aggregated
        assert a.datasets[0].aggregated < a.datasets[0].baseline

    def test_failing_dataset_recorded_and_rest_continue(self, csv_pair):
        base, train, test = csv_pair
        tasks = [
            BenchmarkTask("broken", base / "absent.csv", test, "label", "mmce"),
            BenchmarkTask("toy", train, test, "label", "mmce"),
        ]
        report = run_benchmark(tasks, FAST_CFG, repetitions=1, B=100, size=1, seed=1)
        assert report.datasets[0].error is not None
        assert report.datasets[1].error is None
        tsv = report.to_tsv()
        assert "broken" in tsv and "toy" in tsv

    def test_tuner_error_recorded_and_rest_continue(self, csv_pair):
        base, train, test = csv_pair
        tasks = [
            BenchmarkTask("first", train, test, "label", "mmce"),
            BenchmarkTask("second", train, test, "label", "mmce"),
        ]
        cfg = AutoConfig(budget=1, deadline=60.0, max_rounds=20, patience=4)
        report = run_benchmark(tasks, cfg, repetitions=1, B=100, size=1, seed=1)
        assert [d.name for d in report.datasets] == ["first", "second"]
        for d in report.datasets:
            assert "n_init must be >= 2" in d.error
            assert d.run_values == []

    def test_logloss_label_unknown_to_training_recorded_and_rest_continue(self, csv_pair):
        base, train, test = csv_pair
        with open(test, newline="") as fh:
            rows = list(csv.reader(fh))
        label = rows[0].index("label")
        for row in rows[1:]:
            if row[label] == "yes":
                row[label] = "maybe"
        relabelled = base / "test-maybe.csv"
        with open(relabelled, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(rows)
        tasks = [
            BenchmarkTask("unknown-label", train, relabelled, "label", "logloss"),
            BenchmarkTask("toy", train, test, "label", "logloss"),
        ]
        report = run_benchmark(tasks, FAST_CFG, repetitions=1, B=100, size=1, seed=1)
        unknown, toy = report.datasets
        assert "label 'maybe' not present in training data" in unknown.error
        assert unknown.run_values == []
        assert toy.error is None
        assert len(toy.run_values) == 1 and np.isfinite(toy.run_values[0])

    def test_report_formats(self, csv_pair):
        base, train, test = csv_pair
        tasks = [BenchmarkTask("toy", train, test, "label", "mmce")]
        report = run_benchmark(tasks, FAST_CFG, repetitions=1, B=100, size=1, seed=1)
        table = report.format_table()
        assert "toy" in table
        # mmce renders as a percentage with two decimals
        baseline_pct = f"{100 * report.datasets[0].baseline:.2f}"
        assert baseline_pct in table


class TestCliCommands:
    def test_fit_predict_roundtrip(self, csv_pair, tmp_path, capsys):
        base, train, test = csv_pair
        bundle = tmp_path / "model.bundle"
        history = tmp_path / "history.csv"
        code = main([
            "fit", "--data", str(train), "--target", "label",
            "--budget", "4", "--max-rounds", "20", "--seed", "3",
            "--history", str(history), "--out", str(bundle),
        ])
        assert code == 0
        assert bundle.exists()
        out = capsys.readouterr().out
        assert "validation mmce" in out
        lines = history.read_text().strip().split("\n")
        assert lines[0].startswith("iteration,eta,gamma,max_depth")
        assert len(lines) == 5  # header + 4 evaluations

        preds_path = tmp_path / "preds.csv"
        features_only = tmp_path / "features.csv"
        ds = binary_margin_dataset(30, seed=9)
        no_target = type(ds)(tuple(c for c in ds.columns if c.name != "label"), None, None)
        dataset_to_csv(no_target, features_only)
        code = main([
            "predict", "--model", str(bundle), "--data", str(features_only),
            "--out", str(preds_path),
        ])
        assert code == 0
        with open(preds_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["prediction", "prob_no", "prob_yes"]
        assert len(rows) == 31
        assert rows[1][0] in ("no", "yes")
        p = [float(rows[1][1]), float(rows[1][2])]
        assert sum(p) == pytest.approx(1.0, abs=1e-9)

    def test_benchmark_command(self, csv_pair, tmp_path, capsys):
        base, train, test = csv_pair
        spec = tmp_path / "bench.tsv"
        spec.write_text(
            "name\ttrain_path\ttest_path\ttarget\tmeasure\n"
            f"toy\t{train}\t{test}\tlabel\tmmce\n"
        )
        out = tmp_path / "report.tsv"
        code = main([
            "benchmark", "--spec", str(spec), "--reps", "1", "--bootstrap", "1000",
            "--size", "1", "--seed", "2", "--budget", "4", "--max-rounds", "20",
            "--out", str(out),
        ])
        assert code == 0
        text = out.read_text()
        assert text.startswith("name\tmeasure\tbaseline")
        assert "toy" in text

    def test_usage_error_exit_code(self):
        assert main(["fit", "--data", "x.csv"]) == 1  # missing required args
        assert main([]) == 1

    @pytest.mark.parametrize(
        "flag,value",
        [("--budget", "1"), ("--budget", "0"), ("--budget", "-3"),
         ("--max-rounds", "0"), ("--max-rounds", "-1"), ("--seed", "-1")],
    )
    @pytest.mark.parametrize("command", ["fit", "benchmark"])
    def test_out_of_range_counts_are_usage_errors(self, command, flag, value, tmp_path, capsys):
        required = {
            "fit": ["--data", str(tmp_path / "d.csv"), "--target", "y"],
            "benchmark": ["--spec", str(tmp_path / "bench.tsv")],
        }[command]
        out = tmp_path / "out"
        assert main([command, *required, flag, value, "--out", str(out)]) == 1
        assert f"argument {flag}: expected an integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag,value",
        [("--reps", "0"), ("--bootstrap", "0"), ("--bootstrap", "-2"), ("--size", "0")],
    )
    def test_out_of_range_benchmark_counts_are_usage_errors(self, flag, value, csv_pair, tmp_path, capsys):
        base, train, test = csv_pair
        spec = tmp_path / "bench.tsv"
        spec.write_text(
            "name\ttrain_path\ttest_path\ttarget\tmeasure\n"
            f"toy\t{train}\t{test}\tlabel\tmmce\n"
        )
        out = tmp_path / "report.tsv"
        code = main(["benchmark", "--spec", str(spec), flag, value, "--budget", "4", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"argument {flag}: expected an integer >= 1, got {value}" in err
        assert not out.exists()

    def test_data_error_exit_code(self, tmp_path):
        code = main([
            "fit", "--data", str(tmp_path / "absent.csv"), "--target", "y",
            "--out", str(tmp_path / "m.bundle"),
        ])
        assert code == 2

    def test_corrupt_bundle_exit_code(self, csv_pair, tmp_path):
        base, train, test = csv_pair
        bad = tmp_path / "bad.bundle"
        bad.write_text("{ not json")
        code = main([
            "predict", "--model", str(bad), "--data", str(train),
            "--out", str(tmp_path / "p.csv"),
        ])
        assert code == 2

    def test_spec_relative_paths(self, csv_pair, tmp_path):
        base, train, test = csv_pair
        spec = base / "bench.tsv"
        spec.write_text(
            "name\ttrain_path\ttest_path\ttarget\tmeasure\n"
            "toy\ttrain.csv\ttest.csv\tlabel\tmmce\n"
        )
        tasks = read_benchmark_spec(spec)
        assert tasks[0].train_path == base / "train.csv"
