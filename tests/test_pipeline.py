"""End-to-end pipeline: fit, predict, serialize, internal consistency."""

import dataclasses
import hashlib
import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest

from autoboost.data import Column, DataError, Dataset, SchemaError, split_holdout, majority_baseline
from autoboost.encoding import transform
from autoboost.gbt import predict as gbt_predict
from autoboost.metrics import logloss, mmce, rmse
from autoboost.smbo import SPACE, TuneError, decode_config
from autoboost import pipeline
from autoboost.cli import main
from autoboost.pipeline import (
    AutoConfig,
    BundleError,
    BundleVersionError,
    _gbt_config,
    autogbt_fit,
    autogbt_predict,
    load,
    save,
)
from autoboost.threshold import apply_thresholds

from conftest import binary_margin_dataset, linear_regression_dataset


FAST = dict(budget=16, deadline=60.0, max_rounds=40, patience=5)


@pytest.fixture(scope="module")
def fitted_binary():
    train = binary_margin_dataset(240, seed=21, missing=0.05)
    cfg = AutoConfig(seed=2, **FAST)
    return train, cfg, autogbt_fit(train, cfg)


@pytest.fixture(scope="module")
def fitted_multiclass():
    rng = np.random.default_rng(14)
    n = 210
    centers = {"a": -3.0, "b": 0.0, "c": 3.0}
    labels = rng.choice(["a", "b", "c"], size=n).astype(object)
    x = np.asarray([rng.normal(centers[l], 0.6) for l in labels])
    cat = rng.choice(["p", "q"], size=n).astype(object)
    train = Dataset(
        (
            Column("x", "numeric", x),
            Column("c", "categorical", cat),
            Column("y", "categorical", labels),
        ),
        "y",
        "multiclass",
    )
    cfg = AutoConfig(seed=12, budget=4, deadline=60.0, max_rounds=25, patience=4)
    return train, cfg, autogbt_fit(train, cfg)


@pytest.fixture(scope="module")
def fitted_regression():
    train = linear_regression_dataset(120, seed=71)
    cfg = AutoConfig(seed=5, budget=4, deadline=60.0, max_rounds=25, patience=4)
    return train, cfg, autogbt_fit(train, cfg)


class TestFit:
    def test_separable_binary_beats_baseline(self, fitted_binary):
        train, cfg, model = fitted_binary
        assert model.fit_report["objective_value"] == 0.0
        test = binary_margin_dataset(150, seed=77, missing=0.05)
        preds = autogbt_predict(model, test)
        test_error = float(np.mean(np.asarray(preds.labels, dtype=object) != test.target_values()))
        assert test_error < majority_baseline(train, test)

    def test_regression_beats_mean_predictor(self):
        train = linear_regression_dataset(200, seed=31)
        cfg = AutoConfig(seed=3, budget=16, deadline=60.0, max_rounds=60, patience=5)
        model = autogbt_fit(train, cfg)
        test = linear_regression_dataset(100, seed=32)
        preds = autogbt_predict(model, test)
        truth = np.asarray(test.target_values(), dtype=float)
        mean_rmse = rmse(np.full(len(truth), float(np.mean(train.target_values()))), truth)
        assert rmse(preds.values, truth) < mean_rmse

    def test_budget_equal_n_init_uses_design_only(self):
        train = binary_margin_dataset(150, seed=5)
        cfg = AutoConfig(seed=4, **FAST)  # budget 16 == default n_init
        model = autogbt_fit(train, cfg)
        assert len(model.history["evaluations"]) == 16
        assert 0 <= model.history["incumbent_index"] < 16

    def test_two_fits_same_seed_are_prediction_equivalent(self):
        train = binary_margin_dataset(150, seed=6)
        cfg = AutoConfig(seed=9, budget=8, deadline=60.0, max_rounds=30, patience=5)
        test = binary_margin_dataset(60, seed=61)
        a = autogbt_predict(autogbt_fit(train, cfg), test)
        b = autogbt_predict(autogbt_fit(train, cfg), test)
        np.testing.assert_array_equal(a.probabilities, b.probabilities)
        assert a.labels == b.labels

    def test_missing_target_errors(self):
        d = Dataset((Column("x", "numeric", np.arange(10.0)),), None, None)
        with pytest.raises(DataError, match="target"):
            autogbt_fit(d, AutoConfig(**FAST))

    @pytest.mark.parametrize("kind, values, task, message", [
        ("categorical", ["a"] * 6, "binary", "binary target must have 2 levels, found 1"),
        ("categorical", ["a", "b", "c"] * 2, "binary", "binary target must have 2 levels, found 3"),
        ("categorical", ["a", "b"] * 3, "multiclass",
         "multiclass target must have >=3 levels, found 2"),
        ("numeric", [0.0, 1.0] * 3, "binary", "task 'binary' requires a categorical target"),
        ("categorical", ["a", "b"] * 3, "regression", "regression requires a numeric target"),
        ("numeric", [0.5, np.nan, 1.5, 2.0, 2.5, 3.0], "regression", "has missing values"),
    ], ids=["binary-1-level", "binary-3-levels", "multiclass-2-levels", "numeric-binary",
            "categorical-regression", "regression-nan"])
    def test_untrainable_target_errors_before_splitting(self, monkeypatch, kind, values, task,
                                                        message):
        def split_holdout(*args, **kwargs):
            raise AssertionError("the target was not checked before the split")

        monkeypatch.setattr("autoboost.pipeline.split_holdout", split_holdout)
        cols = (Column("x", "numeric", np.arange(6.0)), Column("y", kind, np.asarray(values)))
        with pytest.raises(DataError, match=message):
            autogbt_fit(Dataset(cols, "y", task), AutoConfig(**FAST))

    def test_measure_task_mismatch_errors(self):
        train = binary_margin_dataset(100, seed=1)
        with pytest.raises(DataError, match="does not apply"):
            autogbt_fit(train, AutoConfig(measure="rmse", **FAST))

    def test_multiclass_pipeline_with_gsa_thresholds(self, fitted_multiclass, tmp_path):
        train, _, model = fitted_multiclass
        labels = train.target_column.values
        assert model.task == "multiclass"
        assert len(model.thresholds) == 3
        preds = autogbt_predict(model, train)
        assert set(preds.labels) <= {"a", "b", "c"}
        np.testing.assert_allclose(preds.probabilities.sum(axis=1), 1.0, atol=1e-12)
        accuracy = np.mean(np.asarray(preds.labels, dtype=object) == labels)
        assert accuracy > 0.9
        # multiclass bundles round-trip too (per-class trees, vector base score)
        path = tmp_path / "mc.bundle"
        save(model, path)
        again = autogbt_predict(load(path), train)
        np.testing.assert_array_equal(preds.probabilities, again.probabilities)

    def test_logloss_measure_skips_threshold_search(self):
        train = binary_margin_dataset(150, seed=41)
        cfg = AutoConfig(measure="logloss", seed=7, budget=4, deadline=60.0,
                         max_rounds=20, patience=4)
        model = autogbt_fit(train, cfg)
        assert model.measure == "logloss"
        assert model.thresholds is not None and model.thresholds[0] == 0.5

    def test_multiclass_logloss_keeps_equal_thresholds(self, fitted_multiclass, tmp_path):
        train, cfg, _ = fitted_multiclass
        model = autogbt_fit(train, dataclasses.replace(cfg, measure="logloss"))
        path = tmp_path / "mc.bundle"
        save(model, path)
        assert json.loads(path.read_text())["payload"]["thresholds"] == [1 / 3] * 3
        loaded = load(path)
        preds = autogbt_predict(loaded, train)
        labels = [loaded.classes.index(label) for label in preds.labels]
        assert labels == np.argmax(preds.probabilities, axis=1).tolist()

    @pytest.mark.parametrize("deadline", [math.inf, math.nan])
    def test_non_finite_deadline_errors_before_the_split(self, deadline):
        # Four rows are too few to split, so only a check made before the
        # split can report the deadline.
        d = Dataset(
            (Column("x", "numeric", np.arange(4.0)), Column("y", "numeric", np.arange(4.0))),
            "y",
            "regression",
        )
        with pytest.raises(ValueError, match="deadline must be a finite number of seconds"):
            autogbt_fit(d, AutoConfig(budget=2, deadline=deadline, max_rounds=2))

    @pytest.mark.parametrize("field", ["max_rounds", "patience"])
    def test_limit_below_one_errors_before_any_evaluation(self, field):
        # Inside an evaluation the limit would fail every one, each with a
        # warning, and then the tuner; checked first, no split or tuning runs.
        train = binary_margin_dataset(60, seed=8)
        with mock.patch.object(pipeline, "split_holdout") as split, \
                mock.patch.object(pipeline, "tune") as tune, warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"{field} must be >= 1, got 0"):
                autogbt_fit(train, AutoConfig(budget=4, deadline=60.0, **{field: 0}))
        split.assert_not_called()
        tune.assert_not_called()

    def test_budget_below_two_names_the_budget(self):
        train = binary_margin_dataset(60, seed=8)
        with pytest.raises(TuneError, match=r"budget must be >= 2, got 1"):
            autogbt_fit(train, AutoConfig(budget=1, deadline=60.0, max_rounds=5))


class TestPredict:
    def test_reproduces_fit_time_validation_predictions(self):
        # The logloss of the deployed predictions on the holdout is the
        # incumbent's objective, bit for bit, so prediction after packaging
        # reproduces the fit-time holdout probabilities.
        train = binary_margin_dataset(150, seed=41, missing=0.05)
        cfg = AutoConfig(measure="logloss", seed=7, budget=4, deadline=60.0,
                         max_rounds=20, patience=4)
        model = autogbt_fit(train, cfg)
        _, valid = split_holdout(
            train, model.auto_config["valid_fraction"], model.auto_config["seed"], stratify=True
        )
        preds = autogbt_predict(model, valid)
        value = logloss(preds.probabilities, valid.class_indices(model.classes))
        assert value == model.fit_report["objective_value"]

    def test_unseen_category_predicts_without_error(self, fitted_binary):
        _, _, model = fitted_binary
        novel = Dataset(
            (
                Column("x1", "numeric", np.asarray([0.4, -0.4])),
                Column("x2", "numeric", np.asarray([0.0, np.nan])),
                Column("c1", "categorical", np.asarray(["zebra", "a"], dtype=object)),
                Column("c2", "categorical", np.asarray(["u", "unseen"], dtype=object)),
            ),
            None,
            None,
        )
        preds = autogbt_predict(model, novel)
        assert len(preds.labels) == 2
        np.testing.assert_allclose(preds.probabilities.sum(axis=1), 1.0, atol=1e-12)

    def test_labels_subset_of_training_labels(self, fitted_binary):
        train, _, model = fitted_binary
        test = binary_margin_dataset(80, seed=55)
        preds = autogbt_predict(model, test)
        assert set(preds.labels) <= set(train.classes)

    def test_extra_and_reordered_columns_do_not_change_predictions(self):
        def mixed(n, seed):
            # c1 (4 levels) is dummy encoded, the 12-level c2 impact encoded.
            base = binary_margin_dataset(n, seed=seed, missing=0.05)
            wide = np.random.default_rng(seed).choice([f"w{i:02d}" for i in range(12)], size=n)
            cols = [Column("c2", "categorical", wide) if c.name == "c2" else c for c in base.columns]
            return Dataset(tuple(cols), "label", "binary")

        model = autogbt_fit(mixed(160, seed=61), AutoConfig(
            seed=3, budget=4, deadline=60.0, max_rounds=20, patience=4))
        strategies = [ce.strategy for ce in model.encoders]
        assert strategies == ["passthrough", "passthrough", "dummy", "impact"]

        test = mixed(60, seed=62)
        scoring = Dataset(test.feature_columns, None, None)
        rng = np.random.default_rng(63)
        extra_num = Column("extra_num", "numeric", rng.normal(size=test.n_rows))
        extra_cat = Column("extra_cat", "categorical", rng.choice(["p", "q"], size=test.n_rows))
        shuffled = Dataset(
            (extra_num, *reversed(test.feature_columns), extra_cat, test.target_column),
            "label",
            "binary",
        )
        expected = autogbt_predict(model, scoring)
        got = autogbt_predict(model, shuffled)
        assert np.array_equal(got.probabilities, expected.probabilities)
        assert got.labels == expected.labels

    def test_schema_mismatch_errors(self, fitted_binary):
        _, _, model = fitted_binary
        wrong = Dataset((Column("x1", "numeric", np.arange(4.0)),), None, None)
        with pytest.raises(SchemaError):
            autogbt_predict(model, wrong)


class TestInternalConsistency:
    def test_incumbent_value_matches_reevaluation(self, fitted_binary):
        train, cfg, model = fitted_binary
        _, valid = split_holdout(
            train, model.auto_config["valid_fraction"], model.auto_config["seed"], stratify=True
        )
        encoded = transform(model.encoders, valid)
        probs = gbt_predict(model.model, encoded.feature_matrix())
        labels = apply_thresholds(probs, model.thresholds)
        value = mmce(labels, valid.class_indices(model.classes))
        assert value == model.fit_report["objective_value"]

    def test_thresholded_no_worse_than_argmax(self, fitted_binary):
        train, cfg, model = fitted_binary
        _, valid = split_holdout(train, cfg.valid_fraction, cfg.seed, stratify=True)
        encoded = transform(model.encoders, valid)
        probs = gbt_predict(model.model, encoded.feature_matrix())
        argmax_value = mmce(np.argmax(probs, axis=1), valid.class_indices(model.classes))
        assert model.fit_report["objective_value"] <= argmax_value

    def test_incumbent_value_is_minimum_of_history(self, fitted_binary):
        _, _, model = fitted_binary
        values = [e["value"] for e in model.history["evaluations"]]
        idx = model.history["incumbent_index"]
        assert values[idx] == min(values)
        assert model.fit_report["objective_value"] == values[idx]

    def test_booster_settings_take_every_tuned_value_by_name(self):
        params = decode_config(np.linspace(0.0, 1.0, len(SPACE)))
        gcfg = _gbt_config(params, AutoConfig(max_rounds=7, patience=3, seed=5))
        # GBTConfig spells the penalties out, since Python reserves ``lambda``.
        fields = {"lambda": "reg_lambda", "alpha": "reg_alpha"}
        assert {name: getattr(gcfg, fields.get(name, name)) for name in params} == params
        assert (gcfg.max_rounds, gcfg.patience, gcfg.seed) == (7, 3, 5)
        # A tuned name with no GBTConfig field fails instead of being dropped.
        with pytest.raises(TypeError, match="min_child_weight"):
            _gbt_config({**params, "min_child_weight": 1.0}, AutoConfig())


def rare_class_dataset():
    """100 rows: classes a x2, b x49, c x49, separated by one numeric feature.

    A stratified 20-row holdout takes no row of the rare class ``a``.
    """
    rng = np.random.default_rng(0)
    labels = np.asarray(["a"] * 2 + ["b"] * 49 + ["c"] * 49, dtype=object)
    x = np.where(labels == "b", -1.0, 1.0) + rng.normal(scale=0.3, size=100)
    x[:2] = rng.normal(scale=0.05, size=2)
    return Dataset(
        (Column("x", "numeric", x), Column("y", "categorical", labels)), "y", "multiclass"
    )


class TestHoldoutLabels:
    def test_class_missing_from_holdout_keeps_label_indices(self):
        train = rare_class_dataset()
        cfg = AutoConfig(seed=1, budget=4, deadline=60.0, max_rounds=20, patience=4)
        model = autogbt_fit(train, cfg)
        _, valid = split_holdout(train, cfg.valid_fraction, cfg.seed, stratify=True)
        assert "a" not in set(valid.target_values())
        encoded = transform(model.encoders, valid)
        probs = gbt_predict(model.model, encoded.feature_matrix())
        truth = np.asarray([model.classes.index(v) for v in valid.target_values()])
        value = mmce(apply_thresholds(probs, model.thresholds), truth)
        assert value == model.fit_report["objective_value"]
        assert value <= mmce(np.argmax(probs, axis=1), truth)

    def test_large_holdout_keeps_a_training_row_of_the_rare_class(self):
        # An 80% holdout's quota for the rare class rounds up to both of its
        # rows; the split keeps one in training, so the fit succeeds.
        train = rare_class_dataset()
        cfg = AutoConfig(seed=1, budget=4, deadline=60.0, max_rounds=5, valid_fraction=0.8)
        model = autogbt_fit(train, cfg)
        assert model.classes == ("a", "b", "c")
        train_split, _ = split_holdout(train, cfg.valid_fraction, cfg.seed, stratify=True)
        assert "a" in set(train_split.target_values())


def _rewrite_with_checksum(path, doc):
    """Write ``doc`` to ``path`` with the checksum of its (edited) payload."""
    canonical = json.dumps(doc["payload"], sort_keys=True, separators=(",", ":"))
    doc["checksum"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    path.write_text(json.dumps(doc))


def _split_tree(payload, count=1):
    """The first stored tree with at least ``count`` split nodes, and their indices."""
    for group in payload["model"]["rounds"]:
        for tree in group:
            splits = [i for i, f in enumerate(tree["feature"]) if f >= 0]
            if len(splits) >= count:
                return tree, splits
    raise AssertionError(f"no stored tree has {count} split nodes")


def _one_threshold(p):
    p["thresholds"] = p["thresholds"][:1]


def _divisor_zero(p):
    p["thresholds"][1] = 0.0


def _divisor_negative(p):
    p["thresholds"][1] = -0.1


def _feature_99(p):
    tree, splits = _split_tree(p)
    tree["feature"][splits[0]] = 99


def _one_class_fewer(p):
    p["classes"] = p["classes"][:-1]


def _model_task_differs(p):
    p["model"]["task"] = "binary"


def _three_classes_for_binary(p):
    p["task"] = p["model"]["task"] = "binary"


def _left_out_of_range(p):
    tree, splits = _split_tree(p)
    tree["left"][splits[0]] = 10**6


def _left_is_own_index(p):
    tree, splits = _split_tree(p)
    tree["left"][splits[0]] = splits[0]


def _children_shared(p):
    # Both splits stay numbered before their children; the first split's
    # own children lose their parent.
    tree, splits = _split_tree(p, 2)
    tree["left"][splits[0]] = tree["left"][splits[1]]


def _node_arrays_differ(p):
    p["model"]["rounds"][0][0]["value"].append(0.0)


def _round_one_tree_short(p):
    p["model"]["rounds"][0] = p["model"]["rounds"][0][:-1]


def _base_score_one_short(p):
    p["model"]["base_score"] = p["model"]["base_score"][:-1]


def _best_iteration_zero(p):
    p["model"]["best_iteration"] = 0


def _best_iteration_past_rounds(p):
    p["model"]["best_iteration"] = len(p["model"]["rounds"]) + 1


def _model_reads_one_more_feature(p):
    p["model"]["n_features"] += 1


def _encoder_table_row_dropped(p):
    enc = next(e for e in p["encoders"] if e["strategy"] != "passthrough")
    enc["table"] = enc["table"][:-1]


def _no_encoders(p):
    # Every tree a single leaf, so the model reads none of its zero features.
    leaf = {"feature": [-1], "threshold": [0.0], "default_left": [True], "left": [-1], "value": [0.0]}
    p["encoders"] = []
    p["model"]["n_features"] = 0
    p["model"]["rounds"] = [[dict(leaf) for _ in group] for group in p["model"]["rounds"]]


def _drop_thresholds(p):
    del p["thresholds"]


def _drop_model(p):
    del p["model"]


def _drop_valid_history(p):
    del p["model"]["valid_history"]


def _drop_output_names(p):
    del p["encoders"][0]["output_names"]


def _drop_left(p):
    del p["model"]["rounds"][0][0]["left"]


class TestBundle:
    def test_roundtrip_predictions_bit_identical(self, fitted_binary, tmp_path):
        _, _, model = fitted_binary
        path = tmp_path / "model.bundle"
        save(model, path)
        loaded = load(path)
        rng = np.random.default_rng(0)
        n = 100
        newdata = Dataset(
            (
                Column("x1", "numeric", rng.uniform(-1, 1, size=n)),
                Column("x2", "numeric", np.where(rng.uniform(size=n) < 0.1, np.nan, rng.normal(size=n))),
                Column("c1", "categorical", rng.choice(["a", "b", "weird", "__NA__"], size=n).astype(object)),
                Column("c2", "categorical", rng.choice(["u", "v", "new"], size=n).astype(object)),
            ),
            None,
            None,
        )
        a = autogbt_predict(model, newdata)
        b = autogbt_predict(loaded, newdata)
        np.testing.assert_array_equal(a.probabilities, b.probabilities)
        assert a.labels == b.labels

    def test_regression_roundtrip(self, fitted_regression, tmp_path):
        _, _, model = fitted_regression
        path = tmp_path / "reg.bundle"
        save(model, path)
        loaded = load(path)
        test = linear_regression_dataset(40, seed=72)
        np.testing.assert_array_equal(
            autogbt_predict(model, test).values, autogbt_predict(loaded, test).values
        )

    @pytest.mark.parametrize("fitted", ["fitted_binary", "fitted_multiclass", "fitted_regression"])
    def test_save_of_a_loaded_bundle_is_byte_identical(self, fitted, request, tmp_path):
        _, _, model = request.getfixturevalue(fitted)
        path, again = tmp_path / "model.bundle", tmp_path / "again.bundle"
        save(model, path)
        save(load(path), again)
        assert again.read_bytes() == path.read_bytes()

    def test_bundle_keeps_rounds_up_to_best_iteration(self, fitted_binary, tmp_path):
        _, _, model = fitted_binary
        path = tmp_path / "model.bundle"
        save(model, path)
        for m in (model.model, load(path).model):
            assert len(m.rounds) == m.best_iteration
            # Boosting ran past the best round; every trained round's
            # validation value is kept.
            assert len(m.valid_history) > m.best_iteration
        doc = json.loads(path.read_text())
        assert doc["version"] == 4
        assert doc["payload"]["fit_report"] == {"objective_value": model.fit_report["objective_value"]}
        assert all(set(e) == {"config", "value", "elapsed"} for e in doc["payload"]["history"]["evaluations"])
        assert all(
            set(tree) == {"feature", "threshold", "default_left", "left", "value"}
            for group in doc["payload"]["model"]["rounds"] for tree in group
        )

    def test_truncated_file_raises_bundle_error(self, fitted_binary, tmp_path):
        _, _, model = fitted_binary
        path = tmp_path / "model.bundle"
        save(model, path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(BundleError):
            load(path)

    def test_too_deeply_nested_file_raises_bundle_error(self, tmp_path):
        # Valid JSON nested deeper than the decoder's recursion limit.
        path = tmp_path / "model.bundle"
        path.write_text("[" * 200_000 + "]" * 200_000)
        with pytest.raises(BundleError, match="corrupt bundle"):
            load(path)
        data = tmp_path / "features.csv"
        data.write_text("x1,x2,c1,c2\n0.5,0.1,a,u\n")
        assert main(["predict", "--model", str(path), "--data", str(data),
                     "--out", str(tmp_path / "p.csv")]) == 2

    def test_tampered_payload_fails_checksum(self, fitted_binary, tmp_path):
        _, _, model = fitted_binary
        path = tmp_path / "model.bundle"
        save(model, path)
        doc = json.loads(path.read_text())
        doc["payload"]["task"] = "multiclass"
        path.write_text(json.dumps(doc))
        with pytest.raises(BundleError, match="checksum"):
            load(path)

    @pytest.mark.parametrize("edit", [
        _drop_model,
        _drop_thresholds,
        _drop_valid_history,
        _drop_output_names,
        _drop_left,
    ], ids=lambda edit: edit.__name__[len("_drop_"):])
    def test_payload_without_a_field_raises_bundle_error(self, fitted_binary, edit, tmp_path):
        # A valid checksum over a payload that lacks a key is still malformed,
        # at the top level and in a model, encoder or tree record.
        _, _, model = fitted_binary
        path = tmp_path / "model.bundle"
        save(model, path)
        doc = json.loads(path.read_text())
        edit(doc["payload"])
        _rewrite_with_checksum(path, doc)
        with pytest.raises(BundleError, match="malformed bundle payload"):
            load(path)
        data = tmp_path / "features.csv"
        data.write_text("x1,x2,c1,c2\n0.5,0.1,a,u\n-0.5,0.2,b,v\n")
        assert main(["predict", "--model", str(path), "--data", str(data),
                     "--out", str(tmp_path / "p.csv")]) == 2

    def test_unknown_payload_field_is_ignored(self, fitted_binary, tmp_path):
        _, _, model = fitted_binary
        path = tmp_path / "model.bundle"
        save(model, path)
        doc = json.loads(path.read_text())
        doc["payload"]["comment"] = "written by a newer build"
        _rewrite_with_checksum(path, doc)
        loaded = load(path)
        test = binary_margin_dataset(30, seed=78, missing=0.05)
        np.testing.assert_array_equal(
            autogbt_predict(model, test).probabilities, autogbt_predict(loaded, test).probabilities
        )

    @pytest.mark.parametrize("edit", [
        _one_threshold,
        _divisor_zero,
        _divisor_negative,
        _feature_99,
        _one_class_fewer,
        _model_task_differs,
        _three_classes_for_binary,
        _left_out_of_range,
        _left_is_own_index,
        _children_shared,
        _node_arrays_differ,
        _round_one_tree_short,
        _base_score_one_short,
        _best_iteration_zero,
        _best_iteration_past_rounds,
        _model_reads_one_more_feature,
        _encoder_table_row_dropped,
        _no_encoders,
    ], ids=lambda edit: edit.__name__.strip("_"))
    def test_parts_that_disagree_raise_bundle_error(self, fitted_multiclass, edit, tmp_path):
        # The checksum matches the edited payload, so only the consistency
        # checks can refuse it; a self-referencing split would loop forever.
        _, _, model = fitted_multiclass
        path = tmp_path / "model.bundle"
        save(model, path)
        doc = json.loads(path.read_text())
        edit(doc["payload"])
        _rewrite_with_checksum(path, doc)
        with pytest.raises(BundleError, match="inconsistent bundle"):
            load(path)
        data = tmp_path / "features.csv"
        data.write_text("x,c\n0.5,p\n-3.0,q\n")
        assert main(["predict", "--model", str(path), "--data", str(data),
                     "--out", str(tmp_path / "p.csv")]) == 2

    @pytest.mark.parametrize("cutoff", [0.0, 1.0, 1.5])
    def test_binary_cutoff_outside_unit_interval_raises_bundle_error(
        self, fitted_binary, cutoff, tmp_path
    ):
        _, _, model = fitted_binary
        path = tmp_path / "model.bundle"
        save(model, path)
        doc = json.loads(path.read_text())
        doc["payload"]["thresholds"] = [cutoff]
        _rewrite_with_checksum(path, doc)
        with pytest.raises(BundleError, match="inconsistent bundle"):
            load(path)
        data = tmp_path / "features.csv"
        data.write_text("x1,x2,c1,c2\n0.5,0.1,a,u\n-0.5,0.2,b,v\n")
        assert main(["predict", "--model", str(path), "--data", str(data),
                     "--out", str(tmp_path / "p.csv")]) == 2

    def test_non_finite_number_raises_bundle_error(self, fitted_binary, tmp_path):
        _, _, model = fitted_binary
        path = tmp_path / "model.bundle"
        save(model, path)
        doc = json.loads(path.read_text())
        doc["payload"]["fit_report"]["objective_value"] = float("nan")
        path.write_text(json.dumps(doc))
        with pytest.raises(BundleError, match="non-finite"):
            load(path)

    def test_newer_version_raises_version_error(self, fitted_binary, tmp_path):
        _, _, model = fitted_binary
        path = tmp_path / "model.bundle"
        save(model, path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(BundleVersionError, match="version"):
            load(path)

    def test_foreign_file_raises(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(BundleError, match="not an autoboost"):
            load(path)
        with pytest.raises(BundleError, match="no such bundle"):
            load(tmp_path / "absent.bundle")
