"""Spans around the package's functions, installed from outside the package.

Each function is replaced under the name through which its caller looks it
up, because rebinding `autoboost.load_csv` would not reach `cli`, which
imported `load_csv` by name:

- `cli` calls `load_csv`, `autogbt_fit`, `save`, `load` and `autogbt_predict`;
- `pipeline` calls `split_holdout`, `fit_encoders`, `transform`, `tune` and
  the threshold optimizers by name, and `gbt.train` and `gbt.predict`
  through the module;
- `gbt.train` calls `build_tree`, and `smbo.tune` calls `gp_fit` and
  `propose_point`, through their own module's globals.

The objective that `pipeline` hands to `tune` is wrapped as `smbo.objective`.
Only the traced run installs the wrappers, so the end-to-end figures never
pass through one.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from dataclasses import dataclass

# (module, attribute, span name)
TARGETS = (
    ("cli", "load_csv", "data.load_csv"),
    ("cli", "autogbt_fit", "pipeline.autogbt_fit"),
    ("cli", "save", "pipeline.save"),
    ("cli", "load", "pipeline.load"),
    ("cli", "autogbt_predict", "pipeline.autogbt_predict"),
    ("pipeline", "split_holdout", "data.split_holdout"),
    ("pipeline", "fit_encoders", "encoding.fit_encoders"),
    ("pipeline", "transform", "encoding.transform"),
    ("pipeline", "tune", "smbo.tune"),
    ("pipeline", "optimize_binary", "threshold.optimize_binary"),
    ("pipeline", "optimize_multiclass_gsa", "threshold.optimize_multiclass_gsa"),
    ("gbt", "train", "gbt.train"),
    ("gbt", "predict", "gbt.predict"),
    ("gbt", "build_tree", "gbt.build_tree"),
    ("smbo", "gp_fit", "smbo.gp_fit"),
    ("smbo", "propose_point", "smbo.propose_point"),
)

FIT, PREDICT = "cli.fit", "cli.predict"


class TraceError(RuntimeError):
    """The package no longer has a function the traced run must wrap."""


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


class Tracer:
    """Spans and counters of one round, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def reset(self) -> None:
        self.spans, self.counts, self._open = [], Counter(), []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self._count(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, result) -> None:
        if name in ("data.load_csv", "encoding.transform"):
            self.counts[name + ".rows"] += result.n_rows
        elif name == "gbt.train":
            self.counts["gbt.rounds"] += len(result.rounds)
            self.counts["gbt.best_iteration"] += result.best_iteration

    def wrap_tune(self, tune):
        def traced_tune(objective, *args, **kwargs):
            return tune(self.wrap(objective, "smbo.objective"), *args, **kwargs)

        return self.wrap(traced_tune, "smbo.tune")


def install(tracer: Tracer, modules: dict) -> list[tuple]:
    """Replace every target; return what `uninstall` needs to undo it."""
    saved = []
    for module_name, attr, span_name in TARGETS:
        module = modules[module_name]
        original = getattr(module, attr, None)
        if not callable(original):
            uninstall(saved)
            raise TraceError(
                f"autoboost.{module_name}.{attr} is gone; the traced run wraps it to "
                f"measure {span_name} and will not report that layer as zero"
            )
        wrapped = tracer.wrap_tune(original) if span_name == "smbo.tune" else tracer.wrap(original, span_name)
        setattr(module, attr, wrapped)
        saved.append((module, attr, original))
    return saved


def uninstall(saved: list[tuple]) -> None:
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one fit command and one predict command.

    A `_s` figure named after a function is that function's self time, so
    those figures add up to the two commands' wall time. `gbt.train_s`,
    `smbo.tune_s` and `smbo.objective_s` are inclusive; `gbt.boost_loop_s`
    and `smbo.overhead_s` are the differences the names describe.
    """
    spans = tracer.spans
    own = self_times(spans)
    root = _roots(spans)

    def self_s(name, phase=None):
        return sum(t for s, t, r in zip(spans, own, root) if s.name == name and phase in (None, r))

    def total_s(name):
        return sum(s.end - s.start for s in spans if s.name == name)

    def calls(name, phase=None):
        return sum(1 for s, r in zip(spans, root) if s.name == name and phase in (None, r))

    rounds = tracer.counts["gbt.rounds"]
    return {
        "data.load_csv.train_s": self_s("data.load_csv", FIT),
        "data.load_csv.score_s": self_s("data.load_csv", PREDICT),
        "data.load_csv.rows": tracer.counts["data.load_csv.rows"],
        "data.split_holdout_s": self_s("data.split_holdout"),
        "encoding.fit_encoders_s": self_s("encoding.fit_encoders"),
        "encoding.transform.fit_s": self_s("encoding.transform", FIT),
        "encoding.transform.score_s": self_s("encoding.transform", PREDICT),
        "encoding.transform_rows": tracer.counts["encoding.transform.rows"],
        "gbt.build_tree_s": self_s("gbt.build_tree"),
        "gbt.build_tree_calls": calls("gbt.build_tree"),
        "gbt.train_s": total_s("gbt.train"),
        "gbt.train_calls": calls("gbt.train"),
        "gbt.rounds": rounds,
        "gbt.rounds_kept_ratio": tracer.counts["gbt.best_iteration"] / rounds if rounds else 0.0,
        "gbt.boost_loop_s": total_s("gbt.train") - total_s("gbt.build_tree"),
        "gbt.predict.fit_s": self_s("gbt.predict", FIT),
        "gbt.predict.score_s": self_s("gbt.predict", PREDICT),
        "threshold.optimize_binary_s": self_s("threshold.optimize_binary"),
        "threshold.optimize_multiclass_gsa_s": self_s("threshold.optimize_multiclass_gsa"),
        "threshold.calls": calls("threshold.optimize_binary") + calls("threshold.optimize_multiclass_gsa"),
        "smbo.tune_s": total_s("smbo.tune"),
        "smbo.objective_s": total_s("smbo.objective"),
        "smbo.overhead_s": total_s("smbo.tune") - total_s("smbo.objective"),
        "smbo.gp_fit_s": self_s("smbo.gp_fit"),
        "smbo.gp_fit_calls": calls("smbo.gp_fit"),
        "smbo.propose_point_s": self_s("smbo.propose_point"),
        "smbo.evaluations": calls("smbo.objective"),
        "pipeline.autogbt_fit_s": self_s("pipeline.autogbt_fit"),
        "pipeline.save_s": self_s("pipeline.save"),
        "pipeline.load_s": self_s("pipeline.load"),
        "pipeline.autogbt_predict_s": self_s("pipeline.autogbt_predict"),
        "cli.predict_write_s": self_s(PREDICT),
        "cli.fit_rest_s": self_s(FIT),
    }


def check_calls(tracer: Tracer, budget: int, gp_steps: int) -> None:
    """Every wrapper must have been reached as often as one fit and one predict call it.

    A name that still exists but that its caller no longer looks up would
    otherwise read as a layer that takes no time.
    """
    spans = tracer.spans
    got = Counter(s.name for s in spans)
    fit_predicts = sum(1 for s, r in zip(spans, _roots(spans)) if s.name == "gbt.predict" and r == FIT)
    expected = {
        "data.load_csv": 2, "data.split_holdout": 1, "encoding.fit_encoders": 1,
        "encoding.transform": 3, "smbo.tune": 1, "smbo.objective": budget,
        "gbt.train": budget, "gbt.predict": budget + 1, "pipeline.autogbt_fit": 1,
        "pipeline.save": 1, "pipeline.load": 1, "pipeline.autogbt_predict": 1,
        "threshold": budget, "smbo.gp_fit": gp_steps, "smbo.propose_point": gp_steps,
    }
    got["threshold"] = got["threshold.optimize_binary"] + got["threshold.optimize_multiclass_gsa"]
    wrong = [f"{k}: {got[k]} calls, expected {v}" for k, v in expected.items() if got[k] != v]
    if fit_predicts != budget:
        wrong.append(f"gbt.predict in the fit: {fit_predicts} calls, expected {budget}")
    if got["gbt.build_tree"] < budget:
        wrong.append(f"gbt.build_tree: {got['gbt.build_tree']} calls, expected at least {budget}")
    if wrong:
        raise TraceError("wrapped functions were not reached as expected: " + "; ".join(wrong))


def _roots(spans: list[Span]) -> list[str]:
    """The name of each span's root span; a parent precedes its children."""
    roots: list[str] = []
    for s in spans:
        roots.append(roots[s.parent] if s.parent >= 0 else s.name)
    return roots
