"""Command-line interface (fit / predict / benchmark) and bootstrap evaluation.

The benchmark protocol repeats independent fits per dataset, then aggregates
test errors by resampling ``size`` run results with replacement, keeping the
best of each resample (simulated parallel runs), and reporting the median
over ``B`` resamples. ``--agg mean`` switches to mean-of-resample for the
alternative reading of that protocol.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import _BLOCK_ROWS, DEFAULT_NA_TOKENS, DataError, Dataset, load_csv, majority_baseline, open_text
from .metrics import MEASURES, logloss, mmce, resolve_measure, rmse
from .pipeline import AutoConfig, BundleError, autogbt_fit, autogbt_predict, load, save
from .smbo import TuneError, history_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3


def bootstrap_minima(run_values, B: int, size: int, seed: int, agg: str = "min") -> np.ndarray:
    """Aggregate of each of B bootstrap resamples of ``size`` run results."""
    values = np.asarray(run_values, dtype=np.float64)
    if values.ndim != 1 or len(values) == 0:
        raise ValueError("run_values must be a non-empty vector")
    if B < 1 or size < 1:
        raise ValueError("B and size must be >= 1")
    if agg not in ("min", "mean"):
        raise ValueError(f"unknown aggregation {agg!r}")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(values), size=(B, size))
    samples = values[idx]
    return samples.min(axis=1) if agg == "min" else samples.mean(axis=1)


def bootstrap_aggregate(
    run_values, B: int = 100_000, size: int = 4, seed: int = 1, agg: str = "min"
) -> float:
    """Median of B bootstrap best-of-``size`` resamples of the run results."""
    return float(np.median(bootstrap_minima(run_values, B, size, seed, agg)))


@dataclass(frozen=True)
class BenchmarkTask:
    name: str
    train_path: Path
    test_path: Path
    target: str
    measure: str


@dataclass
class DatasetReport:
    name: str
    measure: str
    baseline: float | None = None
    run_values: list[float] = dataclasses.field(default_factory=list)
    aggregated: float | None = None
    error: str | None = None


@dataclass
class BenchmarkReport:
    datasets: list[DatasetReport]

    def to_tsv(self) -> str:
        lines = ["name\tmeasure\tbaseline\taggregated\truns\terror"]
        for d in self.datasets:
            runs = ",".join(repr(v) for v in d.run_values)
            lines.append(
                "\t".join([
                    d.name,
                    d.measure,
                    "" if d.baseline is None else repr(d.baseline),
                    "" if d.aggregated is None else repr(d.aggregated),
                    runs,
                    d.error or "",
                ])
            )
        return "\n".join(lines) + "\n"

    def format_table(self) -> str:
        """Human-readable summary; mmce values print as percentages."""
        lines = [f"{'dataset':20s} {'measure':8s} {'baseline':>10s} {'aggregated':>10s}"]
        for d in self.datasets:
            if d.error:
                lines.append(f"{d.name:20s} {d.measure:8s} {'FAILED: ' + d.error}")
                continue
            lines.append(
                f"{d.name:20s} {d.measure:8s} {_fmt(d.measure, d.baseline):>10s} "
                f"{_fmt(d.measure, d.aggregated):>10s}"
            )
        return "\n".join(lines)


def _fmt(measure: str, value: float | None) -> str:
    if value is None:
        return "-"
    if measure == "mmce":
        return f"{100.0 * value:.2f}"
    return f"{value:.4f}"


def _test_value(measure_name: str, model, test: Dataset) -> float:
    preds = autogbt_predict(model, test)
    if measure_name == "rmse":
        return rmse(preds.values, np.asarray(test.target_values(), dtype=np.float64))
    if measure_name == "mmce":
        return mmce(np.asarray(preds.labels, dtype=object), test.target_values().astype(object))
    return logloss(preds.probabilities, test.class_indices(preds.classes))


def _baseline(measure_name: str, train: Dataset, test: Dataset) -> float:
    """The test measure of a constant model fitted to the training targets: the
    training mean (rmse), majority class (mmce) or class frequencies (logloss)."""
    if measure_name == "rmse":
        truth = test.target_values()
        return rmse(np.full(len(truth), float(np.mean(train.target_values()))), truth)
    if measure_name == "mmce":
        return majority_baseline(train, test)
    classes = train.classes
    prior = np.bincount(train.class_indices(classes), minlength=len(classes)) / train.n_rows
    return logloss(np.tile(prior, (test.n_rows, 1)), test.class_indices(classes))


def run_benchmark(
    tasks: list[BenchmarkTask],
    cfg: AutoConfig,
    repetitions: int = 25,
    B: int = 100_000,
    size: int = 4,
    seed: int = 1,
    agg: str = "min",
) -> BenchmarkReport:
    """Independent fits with seeds seed+1..seed+R per dataset, then aggregate.

    A dataset that fails to load or fit is recorded with its error and the
    remaining datasets still run.
    """
    reports = []
    for task in tasks:
        report = DatasetReport(name=task.name, measure=task.measure)
        reports.append(report)
        try:
            train = load_csv(task.train_path, task.target)
            measure = resolve_measure(task.measure, train.task)
            test = load_csv(task.test_path, task.target, task_hint=train.task,
                            kinds=dict(train.feature_schema))
            report.baseline = _baseline(measure, train, test)
            for r in range(1, repetitions + 1):
                run_cfg = dataclasses.replace(cfg, measure=measure, seed=seed + r)
                model = autogbt_fit(train, run_cfg)
                report.run_values.append(_test_value(measure, model, test))
            report.aggregated = bootstrap_aggregate(report.run_values, B, size, seed, agg)
        except (DataError, ValueError, OSError, TuneError) as exc:
            report.error = str(exc)
    return BenchmarkReport(reports)


def read_benchmark_spec(path: str | Path) -> list[BenchmarkTask]:
    """Parse a bench.tsv (name, train_path, test_path, target, measure).

    Relative dataset paths resolve against the spec file's directory.
    """
    path = Path(path)
    base = path.parent
    tasks = []
    with open_text(path, "benchmark spec") as fh:
        reader = csv.DictReader(fh, delimiter="\t")
        required = {"name", "train_path", "test_path", "target", "measure"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise DataError(f"benchmark spec needs columns {sorted(required)}")
        for row in reader:
            missing = sorted(k for k in required if row[k] is None)
            if missing:
                raise DataError(f"{path}: line {reader.line_num} lacks fields {missing}")
            tasks.append(BenchmarkTask(
                name=row["name"],
                train_path=base / row["train_path"],
                test_path=base / row["test_path"],
                target=row["target"],
                measure=row["measure"],
            ))
    if not tasks:
        raise DataError("benchmark spec lists no datasets")
    return tasks


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subcommand parsers by name, with AutoConfig's fit defaults."""
    defaults = AutoConfig()
    parser = _Parser(prog="autoboost", description="Automatic gradient boosting")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a pipeline on a CSV dataset")
    fit.add_argument("--data", required=True)
    fit.add_argument("--target", required=True)
    fit.add_argument("--measure", choices=MEASURES)
    fit.add_argument("--budget", type=int, default=defaults.budget)
    fit.add_argument("--time-limit", type=float, default=defaults.deadline)
    fit.add_argument("--seed", type=int, default=defaults.seed)
    fit.add_argument("--valid-fraction", type=float, default=defaults.valid_fraction)
    fit.add_argument("--max-rounds", type=int, default=defaults.max_rounds)
    fit.add_argument("--na-token", action="append", default=None,
                     help="cell value treated as missing (repeatable)")
    fit.add_argument("--history", help="also write the tuning history as CSV")
    fit.add_argument("--out", required=True)

    predict = sub.add_parser("predict", help="predict with a saved pipeline")
    predict.add_argument("--model", required=True)
    predict.add_argument("--data", required=True)
    predict.add_argument("--na-token", action="append", default=None)
    predict.add_argument("--out", required=True)

    bench = sub.add_parser("benchmark", help="run the bootstrap benchmark protocol")
    bench.add_argument("--spec", required=True)
    bench.add_argument("--reps", type=int, default=25)
    bench.add_argument("--bootstrap", type=int, default=100_000)
    bench.add_argument("--size", type=int, default=4)
    bench.add_argument("--seed", type=int, default=1)
    bench.add_argument("--agg", choices=["min", "mean"], default="min")
    bench.add_argument("--budget", type=int, default=defaults.budget)
    bench.add_argument("--time-limit", type=float, default=defaults.deadline)
    bench.add_argument("--max-rounds", type=int, default=defaults.max_rounds)
    bench.add_argument("--out", required=True)
    return parser, sub.choices


def _na_tokens(args) -> tuple[str, ...]:
    return tuple(args.na_token) if args.na_token else DEFAULT_NA_TOKENS


def _cmd_fit(args) -> int:
    data = load_csv(args.data, args.target, na_tokens=_na_tokens(args))
    cfg = AutoConfig(
        measure=args.measure,
        budget=args.budget,
        deadline=args.time_limit,
        valid_fraction=args.valid_fraction,
        max_rounds=args.max_rounds,
        seed=args.seed,
    )
    model = autogbt_fit(data, cfg)
    save(model, args.out)
    if args.history:
        Path(args.history).write_text(history_csv(model.history["evaluations"]), encoding="utf-8")
    value = model.fit_report["objective_value"]
    print(f"fitted {data.task} pipeline on {data.n_rows} rows")
    print(f"validation {model.measure}: {value:.6g} "
          f"({len(model.history['evaluations'])} configurations tried)")
    print(f"bundle written to {args.out}")
    return EXIT_OK


def _cmd_predict(args) -> int:
    model = load(args.model)
    kinds = {ce.name: ce.kind for ce in model.encoders}
    data = load_csv(args.data, target=None, na_tokens=_na_tokens(args), kinds=kinds)
    preds = autogbt_predict(model, data)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        # csv writes each float as its repr, the shortest exact decimal. The
        # rows go out a block at a time, so no list of every row's floats is built.
        if preds.task == "regression":
            writer.writerow(["prediction"])
            for start in range(0, data.n_rows, _BLOCK_ROWS):
                writer.writerows([v] for v in preds.values[start:start + _BLOCK_ROWS].tolist())
        else:
            writer.writerow(["prediction"] + [f"prob_{c}" for c in preds.classes])
            for start in range(0, data.n_rows, _BLOCK_ROWS):
                stop = start + _BLOCK_ROWS
                writer.writerows(
                    [label, *row]
                    for label, row in zip(preds.labels[start:stop], preds.probabilities[start:stop].tolist())
                )
    print(f"wrote {data.n_rows} predictions to {args.out}")
    return EXIT_OK


def _cmd_benchmark(args) -> int:
    tasks = read_benchmark_spec(args.spec)
    cfg = AutoConfig(budget=args.budget, deadline=args.time_limit, max_rounds=args.max_rounds)
    report = run_benchmark(
        tasks, cfg, repetitions=args.reps, B=args.bootstrap,
        size=args.size, seed=args.seed, agg=args.agg,
    )
    Path(args.out).write_text(report.to_tsv(), encoding="utf-8")
    print(report.format_table())
    print(f"report written to {args.out}")
    return EXIT_RUNTIME if all(d.error for d in report.datasets) else EXIT_OK


def main(argv=None) -> int:
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
        # The tuner's initial design needs two points, boosting one round and
        # the bootstrap one resample of one run; seeds go to default_rng as
        # they are, so they must be non-negative.
        minimums = {"budget": 2, "max_rounds": 1, "reps": 1, "bootstrap": 1, "size": 1, "seed": 0}
        for dest, low in minimums.items():
            value = getattr(args, dest, low)
            if value < low:
                flag = "--" + dest.replace("_", "-")
                # The given subcommand's parser, so the usage line is that command's.
                commands[args.command].error(
                    f"argument {flag}: expected an integer >= {low}, got {value}"
                )
        # A bundle stores its deadline as JSON, which has no infinity or NaN.
        if not math.isfinite(getattr(args, "time_limit", 0.0)):
            commands[args.command].error(
                f"argument --time-limit: expected a finite number of seconds, got {args.time_limit}"
            )
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # An output that cannot be written fails before any data is read.
        for dest in ("out", "history"):
            path = getattr(args, dest, None)
            if path and not Path(path).parent.is_dir():
                raise DataError(f"--{dest} {path}: no directory {Path(path).parent}")
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "predict":
            return _cmd_predict(args)
        return _cmd_benchmark(args)
    except (DataError, BundleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
