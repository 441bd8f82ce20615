"""Hand-computed cases for the benchmark's own helpers."""

import hashlib
import json
import math
from types import SimpleNamespace

import pytest

import checks
import tracing
from tracing import Span, Tracer


def test_mmce_counts_differing_labels():
    assert checks.mmce(["a", "b", "b", "a"], ["a", "a", "b", "b"]) == 0.5
    assert checks.mmce(["a", "b", "c"], ["a", "b", "c"]) == 0.0


def test_logloss_is_mean_negative_log_of_true_class():
    probs = [[0.5, 0.5], [0.25, 0.75]]
    # (-ln 0.5 - ln 0.75) / 2 = (0.6931472 + 0.2876821) / 2
    assert checks.logloss(probs, ("a", "b"), ["a", "b"]) == pytest.approx(0.4904146, abs=1e-7)
    # A zero probability for the true class is floored at 1e-15: -ln(1e-15) = 34.5387764
    assert checks.logloss([[1.0, 0.0]], ("a", "b"), ["b"]) == pytest.approx(34.5387764, abs=1e-7)


def test_baselines_from_truth_frequencies():
    assert checks.majority_error(["a", "a", "b"]) == pytest.approx(1 / 3)
    assert checks.prior_entropy(["a", "b"]) == pytest.approx(math.log(2))
    assert checks.prior_entropy(["a", "a"]) == 0.0


def test_binary_labels_use_greater_or_equal():
    probs = [[0.6, 0.4], [0.3, 0.7], [0.5, 0.5]]
    assert checks.derive_labels(probs, [0.5], ("a", "b")) == ["a", "b", "b"]
    assert checks.derive_labels(probs, [0.75], ("a", "b")) == ["a", "a", "a"]


def test_multiclass_labels_divide_by_thresholds_and_break_ties_low():
    probs = [[0.2, 0.4, 0.4]]
    classes = ("a", "b", "c")
    assert checks.derive_labels(probs, [1 / 3, 1 / 3, 1 / 3], classes) == ["b"]  # 0.6, 1.2, 1.2
    assert checks.derive_labels(probs, [0.2, 0.4, 0.4], classes) == ["a"]  # 1, 1, 1
    assert checks.derive_labels(probs, [0.6, 0.3, 0.1], classes) == ["c"]  # 0.33, 1.33, 4


def test_probability_rows_must_sum_to_one():
    checks.check_probabilities([[0.25, 0.75]], 2)
    with pytest.raises(checks.CheckError):
        checks.check_probabilities([[0.25, 0.7]], 2)
    with pytest.raises(checks.CheckError):
        checks.check_probabilities([[1.5, -0.5]], 2)


def test_bundle_checksum_is_recomputed(tmp_path):
    payload = {"b": [1, 2], "a": "x"}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    doc = {"checksum": hashlib.sha256(canonical.encode()).hexdigest(), "payload": payload}
    path = tmp_path / "m.bundle"
    path.write_text(json.dumps(doc))
    assert checks.read_bundle(path)["payload"] == payload
    doc["payload"]["a"] = "y"
    path.write_text(json.dumps(doc))
    with pytest.raises(checks.CheckError):
        checks.read_bundle(path)


def test_model_digest_ignores_only_wall_clock_seconds():
    def payload(elapsed, value):
        return {"history": {"evaluations": [{"value": value, "elapsed": elapsed}]}, "m": 1}

    assert checks.model_digest(payload(0.5, 1.0)) == checks.model_digest(payload(0.7, 1.0))
    assert checks.model_digest(payload(0.5, 1.0)) != checks.model_digest(payload(0.5, 2.0))


def test_self_time_subtracts_children_and_clips_overlap():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a.child", 2.0, 3.0, 1),
        Span("b", 5.0, 6.0, 0),
        Span("late", 8.0, 12.0, 0),  # only 8..10 lies inside the root
    ]
    assert tracing.self_times(spans) == [10 - 3 - 1 - 2, 2.0, 1.0, 1.0, 4.0]


def test_layer_metrics_split_a_fit_into_self_and_inclusive_times():
    tr = Tracer()
    tr.spans = [
        Span("cli.fit", 0.0, 10.0, -1),
        Span("data.load_csv", 0.0, 1.0, 0),
        Span("pipeline.autogbt_fit", 1.0, 9.0, 0),
        Span("smbo.tune", 2.0, 8.0, 2),
        Span("smbo.objective", 2.0, 7.0, 3),
        Span("gbt.train", 2.0, 6.0, 4),
        Span("gbt.build_tree", 2.0, 5.0, 5),
        Span("cli.predict", 20.0, 23.0, -1),
        Span("data.load_csv", 20.0, 22.0, 7),
    ]
    tr.counts.update({"gbt.rounds": 4, "gbt.best_iteration": 3})
    m = tracing.layer_metrics(tr)
    assert m["data.load_csv.train_s"] == 1.0
    assert m["data.load_csv.score_s"] == 2.0
    assert m["gbt.build_tree_s"] == 3.0
    assert m["gbt.train_s"] == 4.0
    assert m["gbt.boost_loop_s"] == 1.0
    assert m["smbo.tune_s"] == 6.0
    assert m["smbo.objective_s"] == 5.0
    assert m["smbo.overhead_s"] == 1.0
    assert m["pipeline.autogbt_fit_s"] == 2.0
    assert m["cli.fit_rest_s"] == 1.0
    assert m["cli.predict_write_s"] == 1.0
    assert m["gbt.rounds_kept_ratio"] == 0.75


def test_missing_wrapped_name_fails_and_restores_the_others():
    def fn():
        return None

    modules = {m: SimpleNamespace() for m, _, _ in tracing.TARGETS}
    for m, attr, _ in tracing.TARGETS:
        setattr(modules[m], attr, fn)
    del modules["smbo"].gp_fit
    with pytest.raises(tracing.TraceError, match="smbo.gp_fit is gone"):
        tracing.install(Tracer(), modules)
    assert modules["cli"].load_csv is fn
