"""Bootstrap aggregation, benchmark harness, and the command-line interface."""

import csv
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import autoboost
from autoboost.cli import (
    BenchmarkTask,
    bootstrap_aggregate,
    bootstrap_minima,
    main,
    read_benchmark_spec,
    run_benchmark,
)
from autoboost.data import Column, DataError, Dataset
from autoboost.metrics import rmse
from autoboost.pipeline import AutoConfig, autogbt_predict, load

from conftest import binary_margin_dataset, linear_regression_dataset


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

    def test_logloss_baseline_is_logloss_of_training_class_frequencies(self, tmp_path):
        # Training frequencies are a: 9/12 and b: 3/12; the test labels are a, a, a, b.
        train = tmp_path / "train.csv"
        train.write_text("x,label\n" + "".join(f"{i},{'ab'[i >= 9]}\n" for i in range(12)))
        test = tmp_path / "test.csv"
        test.write_text("x,label\n0,a\n1,a\n2,a\n10,b\n")
        tasks = [BenchmarkTask("prior", train, test, "label", "logloss")]
        report = run_benchmark(tasks, FAST_CFG, repetitions=1, B=100, size=1, seed=1)
        d = report.datasets[0]
        assert d.error is None
        assert d.baseline == pytest.approx(-(3 * math.log(0.75) + math.log(0.25)) / 4, rel=1e-12)

    def test_test_files_missing_a_training_class_are_scored(self, csv_pair, tmp_path):
        base, train, test = csv_pair
        binary_test = binary_margin_dataset(90, seed=2)
        yes = np.flatnonzero(binary_test.target_values() == "yes")
        only_yes = dataset_to_csv(binary_test.subset(yes), tmp_path / "only-yes.csv")
        labels = np.asarray(["a", "b", "c"] * 30, dtype=object)
        x = np.tile([-3.0, 0.0, 3.0], 30) + np.random.default_rng(8).normal(0, 0.5, 90)
        columns = (Column("x", "numeric", x), Column("y", "categorical", labels))
        three = Dataset(columns, "y", "multiclass")
        mc_train = dataset_to_csv(three.subset(np.arange(60)), tmp_path / "mc-train.csv")
        no_c = np.flatnonzero(labels[60:] != "c") + 60
        mc_test = dataset_to_csv(three.subset(no_c), tmp_path / "mc-no-c.csv")
        tasks = [
            BenchmarkTask("binary", train, only_yes, "label", "mmce"),
            BenchmarkTask("multiclass", mc_train, mc_test, "y", "logloss"),
        ]
        report = run_benchmark(tasks, FAST_CFG, repetitions=1, B=100, size=1, seed=1)
        for d in report.datasets:
            assert d.error is None
            assert d.baseline is not None and len(d.run_values) == 1
        binary, multiclass = report.datasets
        assert binary.baseline == 1.0  # the 100/100 training tie breaks to "no"
        assert np.isfinite(multiclass.run_values[0])

    def test_report_formats(self, csv_pair):
        base, train, test = csv_pair
        tasks = [BenchmarkTask("toy", train, test, "label", "mmce")]
        report = run_benchmark(tasks, FAST_CFG, repetitions=1, B=100, size=1, seed=1)
        table = report.format_table()
        assert "toy" in table
        # mmce renders as a percentage with two decimals
        baseline_pct = f"{100 * report.datasets[0].baseline:.2f}"
        assert baseline_pct in table


@pytest.fixture(scope="module")
def numeric_level_bundle(tmp_path_factory):
    """A bundle fitted where categorical ``c1`` has the levels 1, 2, c and d."""
    base = tmp_path_factory.mktemp("levels")
    ds = binary_margin_dataset(200, seed=1)
    c1 = np.asarray([{"a": "1", "b": "2"}.get(v, v) for v in ds.columns[2].values], dtype=object)
    columns = list(ds.columns)
    columns[2] = Column("c1", "categorical", c1)
    train = dataset_to_csv(Dataset(tuple(columns), "label", "binary"), base / "train.csv")
    bundle = base / "model.bundle"
    code = main([
        "fit", "--data", str(train), "--target", "label", "--budget", "4",
        "--max-rounds", "20", "--out", str(bundle),
    ])
    assert code == 0
    return bundle


# Runs the CLI in a fresh interpreter, then prints its exit code and the
# SciPy submodules that the run loaded.
_SCIPY_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import autoboost, autoboost.cli
code = autoboost.cli.main(sys.argv[2:])
print(code, *sorted(m for m in ("scipy.linalg", "scipy.optimize", "scipy.special") if m in sys.modules))
"""


def _scipy_after(argv) -> list[str]:
    src = Path(autoboost.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-I", "-c", _SCIPY_PROBE, str(src), *argv],
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


class TestCliCommands:
    def test_scoring_process_never_loads_scipy(self, csv_pair, tmp_path):
        base, train, test = csv_pair
        bundle = tmp_path / "model.bundle"
        assert main([
            "fit", "--data", str(train), "--target", "label", "--budget", "4",
            "--max-rounds", "20", "--out", str(bundle),
        ]) == 0
        assert _scipy_after([
            "predict", "--model", str(bundle), "--data", str(test),
            "--out", str(tmp_path / "preds.csv"),
        ]) == ["0"]
        # One evaluation past the 16-point initial design fits the GP.
        loaded = _scipy_after([
            "fit", "--data", str(train), "--target", "label", "--budget", "17",
            "--max-rounds", "5", "--out", str(tmp_path / "gp.bundle"),
        ])
        assert loaded[0] == "0" and "scipy.optimize" in loaded

    @pytest.mark.parametrize(
        "levels", [["1", "2"], ["", ""]], ids=["numeric-looking", "all-missing"]
    )
    def test_predict_reads_categoricals_with_fit_time_kinds(
        self, numeric_level_bundle, levels, tmp_path
    ):
        # Inferred on its own, this batch's c1 column would be numeric.
        ds = binary_margin_dataset(30, seed=9)
        c1 = np.asarray([levels[i % 2] or "__NA__" for i in range(30)], dtype=object)
        columns = (*ds.columns[:2], Column("c1", "categorical", c1), ds.columns[3])
        features = Dataset(columns, None, None)
        data = dataset_to_csv(features, tmp_path / "features.csv")
        out = tmp_path / "preds.csv"
        code = main(["predict", "--model", str(numeric_level_bundle), "--data", str(data),
                     "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        expected = autogbt_predict(load(numeric_level_bundle), features)
        assert [r[0] for r in rows] == expected.labels
        np.testing.assert_array_equal(
            np.asarray([r[1:] for r in rows], dtype=float), expected.probabilities
        )

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

    def test_one_row_file_scores_like_its_line_in_a_longer_file(
        self, numeric_level_bundle, tmp_path, capsys
    ):
        ds = binary_margin_dataset(30, seed=9)
        longer = dataset_to_csv(Dataset(ds.feature_columns, None, None), tmp_path / "long.csv")
        header, first = longer.read_text().splitlines()[:2]
        one_row = tmp_path / "one.csv"
        one_row.write_text(f"{header}\n{first}\n")
        lines = {}
        for name, data in (("long", longer), ("one", one_row)):
            out = tmp_path / f"{name}-preds.csv"
            code = main(["predict", "--model", str(numeric_level_bundle), "--data", str(data),
                         "--out", str(out)])
            assert code == 0
            lines[name] = out.read_text().splitlines()
        assert lines["one"] == lines["long"][:2]

        header_only = tmp_path / "header.csv"
        header_only.write_text(f"{header}\n")
        code = main(["predict", "--model", str(numeric_level_bundle), "--data", str(header_only),
                     "--out", str(tmp_path / "none.csv")])
        assert code == 2
        assert "need at least 1 data row, found 0" in capsys.readouterr().err

    def test_target_only_fit_is_a_data_error(self, tmp_path, capsys):
        data = tmp_path / "labels.csv"
        data.write_text("y\n" + "".join(f"{'ab'[i % 2]}\n" for i in range(20)))
        out = tmp_path / "m.bundle"
        code = main(["fit", "--data", str(data), "--target", "y", "--budget", "2",
                     "--max-rounds", "5", "--out", str(out)])
        assert code == 2
        assert "dataset has no feature columns" in capsys.readouterr().err
        assert not out.exists()

    def test_values_near_the_float_limit_fit_save_and_predict(self, tmp_path):
        # Half the sum of two such neighbours overflows to inf, which JSON cannot store.
        x = np.random.default_rng(0).uniform(1.0e308, 1.7e308, size=200)
        train = tmp_path / "train.csv"
        train.write_text("x,label\n" + "".join(
            f"{float(v)!r},{'yes' if v > 1.35e308 else 'no'}\n" for v in x
        ))
        bundle = tmp_path / "model.bundle"
        code = main(["fit", "--data", str(train), "--target", "label", "--budget", "4",
                     "--max-rounds", "10", "--out", str(bundle)])
        assert code == 0
        thresholds = [t for group in load(bundle).model.rounds for tree in group
                      for t in tree.threshold[tree.feature >= 0]]
        assert thresholds and all(1.0e308 < t <= 1.7e308 for t in thresholds)
        data = tmp_path / "features.csv"
        data.write_text("x\n" + "".join(f"{float(v)!r}\n" for v in x[:20]))
        out = tmp_path / "preds.csv"
        assert main(["predict", "--model", str(bundle), "--data", str(data),
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 21

    def test_regression_fit_predict_roundtrip(self, tmp_path):
        train = dataset_to_csv(linear_regression_dataset(120, seed=3), tmp_path / "train.csv")
        bundle = tmp_path / "model.bundle"
        code = main(["fit", "--data", str(train), "--target", "y", "--budget", "4",
                     "--max-rounds", "20", "--out", str(bundle)])
        assert code == 0
        features = Dataset(linear_regression_dataset(25, seed=4).feature_columns, None, None)
        data = dataset_to_csv(features, tmp_path / "features.csv")
        out = tmp_path / "preds.csv"
        code = main(["predict", "--model", str(bundle), "--data", str(data), "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["prediction"]
        assert [len(r) for r in rows[1:]] == [1] * 25
        expected = autogbt_predict(load(bundle), features)
        assert [float(r[0]) for r in rows[1:]] == expected.values.tolist()

    def test_benchmark_regression_baseline_is_rmse_of_training_mean(self, tmp_path):
        train_ds = linear_regression_dataset(120, seed=5)
        test_ds = linear_regression_dataset(40, seed=6)
        dataset_to_csv(train_ds, tmp_path / "train.csv")
        dataset_to_csv(test_ds, tmp_path / "test.csv")
        spec = tmp_path / "bench.tsv"
        spec.write_text(
            "name\ttrain_path\ttest_path\ttarget\tmeasure\n"
            "line\ttrain.csv\ttest.csv\ty\trmse\n"
        )
        out = tmp_path / "report.tsv"
        code = main([
            "benchmark", "--spec", str(spec), "--reps", "1", "--bootstrap", "100",
            "--size", "1", "--budget", "4", "--max-rounds", "20", "--out", str(out),
        ])
        assert code == 0
        with open(out, newline="") as fh:
            (row,) = list(csv.DictReader(fh, delimiter="\t"))
        truth = test_ds.target_values()
        mean = float(np.mean(train_ds.target_values()))
        assert row["error"] == ""
        assert float(row["baseline"]) == rmse(np.full(len(truth), mean), truth)
        assert float(row["aggregated"]) < float(row["baseline"])

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
        err = capsys.readouterr().err
        assert err.startswith(f"usage: autoboost {command} ")
        assert f"argument {flag}: expected an integer" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("command", ["fit", "benchmark"])
    def test_non_finite_time_limit_is_a_usage_error(self, command, value, tmp_path, capsys):
        required = {
            "fit": ["--data", str(tmp_path / "d.csv"), "--target", "y"],
            "benchmark": ["--spec", str(tmp_path / "bench.tsv")],
        }[command]
        out = tmp_path / "out"
        # The = form, since argparse reads a bare -inf as an option.
        assert main([command, *required, f"--time-limit={value}", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: autoboost {command} ")
        assert f"argument --time-limit: expected a finite number of seconds, got {value}" in err
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
        assert err.startswith("usage: autoboost benchmark ")
        assert f"argument {flag}: expected an integer >= 1, got {value}" in err
        assert not out.exists()

    def test_data_error_exit_code(self, tmp_path):
        code = main([
            "fit", "--data", str(tmp_path / "absent.csv"), "--target", "y",
            "--out", str(tmp_path / "m.bundle"),
        ])
        assert code == 2

    @pytest.mark.parametrize("command,flag,content,message", [
        ("fit", "--data", b"x,c,y\n1,\xe9,u\n2,b,v\n", "is not UTF-8 text"),
        ("fit", "--data", None, "Is a directory"),
        ("benchmark", "--spec", b"name\ttrain_path\ttest_path\ttarget\tmeasure\nt\xe9\n",
         "is not UTF-8 text"),
        ("benchmark", "--spec", None, "Is a directory"),
        ("predict", "--model", None, "Is a directory"),
        ("fit", "--data", b"x,c,y\n1," + b"a" * 200_000 + b",u\n2,b,v\n",
         "field larger than field limit"),
    ], ids=["latin1-csv", "directory-data", "latin1-spec", "directory-spec", "directory-model",
            "cell-past-csv-field-limit"])
    def test_unreadable_input_exit_code(
        self, command, flag, content, message, csv_pair, tmp_path, capsys
    ):
        # None passes a directory where a file belongs; bytes are the file.
        base, train, test = csv_pair
        given = tmp_path / "input"
        if content is None:
            given.mkdir()
        else:
            given.write_bytes(content)
        required = {
            "fit": ["--target", "y"],
            "benchmark": [],
            "predict": ["--data", str(train)],
        }[command]
        out = tmp_path / "out"
        assert main([command, flag, str(given), *required, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(given) in err and message in err
        assert not out.exists()

    def test_corrupt_bundle_exit_code(self, csv_pair, tmp_path):
        base, train, test = csv_pair
        bad = tmp_path / "bad.bundle"
        bad.write_text("{ not json")
        code = main([
            "predict", "--model", str(bad), "--data", str(train),
            "--out", str(tmp_path / "p.csv"),
        ])
        assert code == 2

    def test_short_spec_row_is_a_data_error(self, csv_pair, tmp_path, capsys):
        base, train, test = csv_pair
        spec = tmp_path / "bench.tsv"
        spec.write_text(
            "name\ttrain_path\ttest_path\ttarget\tmeasure\n"
            f"toy\t{train}\t{test}\tlabel\tmmce\n"
            f"short\t{train}\n"
        )
        missing = r"line 3 lacks fields \['measure', 'target', 'test_path'\]"
        with pytest.raises(DataError, match=missing):
            read_benchmark_spec(spec)
        code = main(["benchmark", "--spec", str(spec), "--out", str(tmp_path / "r.tsv")])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("content,message", [
        ("", "benchmark spec needs columns"),
        ("name\ttrain_path\n", "benchmark spec needs columns"),
        ("name\ttrain_path\ttest_path\ttarget\tmeasure\n", "benchmark spec lists no datasets"),
    ], ids=["empty", "two-columns", "header-only"])
    def test_spec_without_datasets_is_a_data_error(self, content, message, tmp_path, capsys):
        spec = tmp_path / "bench.tsv"
        spec.write_text(content)
        out = tmp_path / "r.tsv"
        assert main(["benchmark", "--spec", str(spec), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_benchmark_records_an_unparseable_csv_and_scores_the_rest(
        self, csv_pair, tmp_path, capsys
    ):
        # A cell past the csv module's field size limit fails that dataset only.
        base, train, test = csv_pair
        huge = tmp_path / "huge.csv"
        huge.write_text("x1,label\n" + "a" * 200_000 + ",yes\n0.5,no\n")
        spec = tmp_path / "bench.tsv"
        spec.write_text(
            "name\ttrain_path\ttest_path\ttarget\tmeasure\n"
            f"huge\t{huge}\t{test}\tlabel\tmmce\n"
            f"toy\t{train}\t{test}\tlabel\tmmce\n"
        )
        out = tmp_path / "report.tsv"
        code = main(["benchmark", "--spec", str(spec), "--reps", "1", "--bootstrap", "10",
                     "--budget", "2", "--max-rounds", "5", "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            failed, scored = csv.DictReader(fh, delimiter="\t")
        assert str(huge) in failed["error"] and "field larger than field limit" in failed["error"]
        assert failed["aggregated"] == ""
        assert scored["error"] == "" and float(scored["aggregated"]) >= 0.0
        # The table prints the failure beside the other dataset's normal row.
        table = capsys.readouterr().out.splitlines()
        (failed_row,) = [line for line in table if line.startswith("huge ")]
        (scored_row,) = [line for line in table if line.startswith("toy ")]
        assert failed_row.split()[1:3] == ["mmce", "FAILED:"]
        assert scored_row.split()[1:] == [
            "mmce", *(f"{100.0 * float(scored[k]):.2f}" for k in ("baseline", "aggregated"))
        ]

    def test_spec_with_byte_order_mark(self, csv_pair, tmp_path, capsys):
        # Some editors save UTF-8 with a BOM, which must not end up in the first column's name.
        base, train, test = csv_pair
        spec = tmp_path / "bench.tsv"
        spec.write_text(
            "name\ttrain_path\ttest_path\ttarget\tmeasure\n"
            f"toy\t{train}\t{test}\tlabel\tmmce\n",
            encoding="utf-8-sig",
        )
        assert spec.read_bytes().startswith(b"\xef\xbb\xbfname\t")
        tasks = read_benchmark_spec(spec)
        assert [t.name for t in tasks] == ["toy"]
        out = tmp_path / "report.tsv"
        code = main(["benchmark", "--spec", str(spec), "--reps", "1", "--bootstrap", "10",
                     "--budget", "2", "--max-rounds", "5", "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines()[1].startswith("toy\tmmce\t")

    def test_spec_relative_paths(self, csv_pair, tmp_path):
        base, train, test = csv_pair
        spec = base / "bench.tsv"
        spec.write_text(
            "name\ttrain_path\ttest_path\ttarget\tmeasure\n"
            "toy\ttrain.csv\ttest.csv\tlabel\tmmce\n"
        )
        tasks = read_benchmark_spec(spec)
        assert tasks[0].train_path == base / "train.csv"
