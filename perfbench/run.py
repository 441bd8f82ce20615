"""Fit-and-score benchmark of autoboost.

    python3 perfbench/run.py --workload fit-binary --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports the package from the
checkout's `src/`. One round is one `autoboost fit` and one `autoboost
predict`, called in-process through `autoboost.cli.main`, on the files that
`workloads.py` writes. Rounds repeat until `--seconds` would be exceeded.
The last line of standard output is one JSON object: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`. Generated files go
to `perfbench/work/<workload>/`.
"""

import os

# One BLAS thread, set before numpy is first imported here or in a probe:
# on two shared cores a multi-threaded BLAS made the tuner's fit time swing
# (9.65-11.53 s unpinned against 9.24-9.92 s pinned over four runs).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
N_INIT = 16  # Latin-hypercube points the CLI evaluates before its first GP step
SETUP_REPEATS = 5
# A fresh interpreter's `import autoboost`, timed inside it.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import autoboost; print(time.perf_counter() - t); print(autoboost.__file__)"
)


def _fail(message: str, code: int) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(code)


def _import_seconds() -> float:
    proc = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120,
    )
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or not Path(lines[1]).is_relative_to(SRC):
        _fail(f"cannot import autoboost from {SRC}:\n{proc.stderr}", 2)
    return float(lines[0])


def set_up(w: workloads.Workload, seed: int, workdir: Path):
    """Write the inputs; return them and the median set-up time.

    Set-up is a fresh interpreter's `import autoboost` plus writing the input
    files, repeated because a single import varied 0.79-0.98 s. The median
    also absorbs the first import in a fresh checkout, which compiles bytecode.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        imported = _import_seconds()
        t0 = time.perf_counter()
        inputs = workloads.write_inputs(w, seed, workdir)
        samples.append(imported + time.perf_counter() - t0)
    return inputs, statistics.median(samples)


def _call(cli, argv: list[str], span) -> tuple[int, float, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        with span:
            code = cli.main(argv)
        elapsed = time.perf_counter() - t0
    return code, elapsed, err.getvalue()


class Run:
    """Rounds of one workload, their timings and their correctness checks."""

    def __init__(self, w, inputs, workdir: Path, tracer=None):
        self.w, self.inputs, self.tracer = w, inputs, tracer
        self.bundle = workdir / "model.bundle"
        self.history = workdir / "history.csv"
        self.preds = workdir / "predictions.csv"
        self.truth = checks.read_truth(inputs.truth_csv)
        self.fit_argv = [
            "fit", "--data", str(inputs.train_csv), "--target", "label",
            "--budget", str(w.budget), "--max-rounds", str(w.max_rounds),
            "--time-limit", "1000000", "--seed", str(workloads.FIT_SEED),
            "--history", str(self.history), "--out", str(self.bundle),
        ]
        self.predict_argv = [
            "predict", "--model", str(self.bundle), "--data", str(inputs.score_csv),
            "--out", str(self.preds),
        ]
        self.fit_s: list[float] = []
        self.predict_s: list[float] = []
        self.layers: list[dict] = []
        self.spans: list[list] = []
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.first: dict | None = None

    def _span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def round(self, cli) -> bool:
        """One fit and one predict; False when a command failed."""
        if self.tracer:
            self.tracer.reset()
        self.attempted += 2
        code, fit_s, err = _call(cli, self.fit_argv, self._span("cli.fit"))
        if code != 0:
            self.failed += 2  # the predict has no bundle to read
        else:
            code, predict_s, err = _call(cli, self.predict_argv, self._span("cli.predict"))
            self.failed += code != 0
        if code != 0:
            print(f"perfbench: command failed with exit code {code}:\n{err}", file=sys.stderr)
            return False
        self.fit_s.append(fit_s)
        self.predict_s.append(predict_s)
        if self.tracer:
            tracing.check_calls(self.tracer, self.w.budget, max(0, self.w.budget - N_INIT))
            self.layers.append(tracing.layer_metrics(self.tracer))
            self.spans.append([vars(s) for s in self.tracer.spans])
        self._check_round()
        return True

    def _check_round(self) -> None:
        try:
            payload = checks.read_bundle(self.bundle)["payload"]
            digests = (checks.model_digest(payload), checks.file_digest(self.preds))
            if self.first is None:
                checks.check_history(self.history, payload, self.w.budget)
                labels, classes, probs = checks.read_predictions(self.preds)
                self.first = {
                    # An array, not 20,000 small lists: lists that outlive the
                    # round would lengthen every later garbage collection in the fit.
                    "digests": digests, "probs": np.asarray(probs),
                    "test_mmce": checks.mmce(labels, self.truth),
                    "test_logloss": checks.logloss(probs, classes, self.truth),
                    "bundle_bytes": self.bundle.stat().st_size,
                }
                checks.check_predictions(labels, classes, probs, self.truth, payload)
            elif digests != self.first["digests"]:
                raise checks.CheckError("a repeated fit on the same inputs gave another model or other predictions")
        except (checks.CheckError, KeyError, ValueError) as exc:
            self.problems.append(f"{type(exc).__name__}: {exc}")

    def check_round_trip(self, autoboost) -> None:
        """A second save and load of the bundle must give bit-identical probabilities."""
        again = self.bundle.with_name("model-again.bundle")
        autoboost.save(autoboost.load(self.bundle), again)
        data = autoboost.load_csv(self.inputs.score_csv, target=None)
        probs = autoboost.autogbt_predict(autoboost.load(again), data).probabilities
        if not np.array_equal(probs, self.first["probs"]):
            self.problems.append("CheckError: probabilities changed after a second save and load")


def _declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        _fail("--seed must be >= 0 and --seconds > 0", 2)
    if not (SRC / "autoboost" / "__init__.py").is_file():
        _fail(f"no autoboost package under {SRC}; run from a checkout of the repository", 2)
    if not (ROOT / "BENCHMARK.json").is_file():
        _fail(f"no BENCHMARK.json in {ROOT}", 2)
    units = _declared_metrics(bool(args.trace))

    w = workloads.WORKLOADS[args.workload]
    workdir = HERE / "work" / w.name
    inputs, setup_s = set_up(w, args.seed, workdir)

    sys.path.insert(0, str(SRC))
    import autoboost
    from autoboost import cli

    # Only the traced run installs wrappers; the end-to-end figures never pass through one.
    tracer, saved = None, []
    if args.trace:
        from autoboost import gbt, pipeline, smbo

        tracer = tracing.Tracer()
        try:
            saved = tracing.install(tracer, {"cli": cli, "pipeline": pipeline, "gbt": gbt, "smbo": smbo})
        except tracing.TraceError as exc:
            _fail(str(exc), 3)

    run = Run(w, inputs, workdir, tracer)
    started = time.perf_counter()
    longest = 0.0
    try:
        while True:
            gc.collect()  # every round starts from the same heap
            t0 = time.perf_counter()
            if not run.round(cli):
                break
            longest = max(longest, time.perf_counter() - t0)
            if time.perf_counter() - started + longest > args.seconds:
                break
    except tracing.TraceError as exc:
        _fail(str(exc), 3)
    finally:
        tracing.uninstall(saved)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not run.fit_s or run.first is None:
        _fail("no round completed" + "".join("; " + p for p in run.problems), 1)
    run.check_round_trip(autoboost)

    if args.trace:
        values = {k: statistics.median(r[k] for r in run.layers) for k in run.layers[0]}
        trace_doc = {
            "workload": w.name, "seed": args.seed, "fit_s": run.fit_s,
            "predict_s": run.predict_s, "rounds": run.spans,
        }
        (workdir / "trace.json").write_text(json.dumps(trace_doc), encoding="utf-8")
    else:
        values = {
            "setup_s": setup_s,
            # Means over the rounds: with three to ten rounds a run, they spread
            # less from run to run than medians did (see README.md).
            "fit_s": statistics.fmean(run.fit_s),
            "predict_rows_per_s": w.n_score * len(run.predict_s) / math.fsum(run.predict_s),
            "test_mmce": run.first["test_mmce"],
            "test_logloss": run.first["test_logloss"],
            "bundle_bytes": run.first["bundle_bytes"],
            "peak_rss_mb": peak_rss_mb,
        }
    if set(values) != set(units):
        _fail(f"measured metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}", 4)
    for problem in run.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(
        f"perfbench: {w.name} seed {args.seed}: {len(run.fit_s)} rounds, fit_s {run.fit_s}, "
        f"predict_s {run.predict_s}, model {run.first['digests'][0][:16]}",
        file=sys.stderr,
    )
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    line = json.dumps(result)
    (workdir / ("result-trace.json" if args.trace else "result.json")).write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
