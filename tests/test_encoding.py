"""Categorical encoders: dispatch, impact math, dummy indicators, fallbacks."""

import numpy as np
import pytest

from autoboost.data import Column, DataError, Dataset, SchemaError, level_codes
from autoboost.encoding import fit_encoders, transform


def make_ds(cat, y, task, extra_numeric=None):
    cols = [Column("f", "categorical", np.asarray(cat, dtype=object))]
    if extra_numeric is not None:
        cols.append(Column("num", "numeric", np.asarray(extra_numeric, dtype=float)))
    kind = "numeric" if task == "regression" else "categorical"
    cols.append(Column("y", kind, np.asarray(y, dtype=float if task == "regression" else object)))
    return Dataset(tuple(cols), "y", task)


def group_by_oracle_classification(cat, y, classes, m):
    """Independent conditional-frequency computation by explicit iteration."""
    n = len(y)
    prior = [sum(1 for v in y if v == c) / n for c in classes]
    table = {}
    for level in sorted(set(cat)):
        rows = [i for i, v in enumerate(cat) if v == level]
        vec = []
        for ci, c in enumerate(classes):
            count = sum(1 for i in rows if y[i] == c)
            vec.append((count + m * prior[ci]) / (len(rows) + m))
        table[level] = vec
    return table, prior


def group_by_oracle_regression(cat, y, m):
    ybar = sum(y) / len(y)
    table = {}
    for level in sorted(set(cat)):
        rows = [i for i, v in enumerate(cat) if v == level]
        total = sum(y[i] for i in rows)
        table[level] = (total + m * ybar) / (len(rows) + m)
    return table, ybar


def impact_reference(values, y, levels, classes, m):
    """The impact table computed one level and one class at a time.

    Same arithmetic as the encoder: float class counts plus m times the prior,
    over the level's row count plus m, with the prior as the unseen row.
    """
    n = len(y)
    prior = np.asarray([np.sum(y == c) / n for c in classes], dtype=np.float64)
    rows = []
    for level in levels:
        member = values == level
        n_a = int(np.sum(member))
        counts = np.asarray([np.sum(y[member] == c) for c in classes], dtype=np.float64)
        rows.append((counts + m * prior) / (n_a + m))
    return np.vstack([*rows, prior])


class TestLevelCodes:
    def test_index_in_levels_and_unseen_is_len_levels(self):
        codes = level_codes(np.asarray(["b", "zz", "a", "c", "b"], dtype=object), ("a", "b", "c"))
        assert codes.dtype == np.intp
        assert codes.tolist() == [1, 3, 0, 2, 1]

    def test_empty_input_gives_empty_intp_array(self):
        codes = level_codes(np.asarray([], dtype=object), ("a", "b"))
        assert codes.dtype == np.intp
        assert codes.shape == (0,)


class TestDispatch:
    def test_below_threshold_is_dummy(self):
        ds = make_ds(["a", "b", "c"] * 3, ["0", "1", "0"] * 3, "binary")
        enc = fit_encoders(ds, k=10)
        assert enc[0].strategy == "dummy"
        assert len(enc[0].output_names) == 3

    def test_at_or_above_threshold_uses_high_card_strategy(self):
        levels = [f"l{i:02d}" for i in range(12)]
        ds = make_ds(levels * 2, ["0", "1"] * 12, "binary")
        for strategy in ("impact", "integer"):
            enc = fit_encoders(ds, k=10, high_card_strategy=strategy)
            assert enc[0].strategy == strategy

    def test_threshold_is_strict_less_than(self):
        levels = [f"l{i}" for i in range(10)]
        ds = make_ds(levels * 2, ["0", "1"] * 10, "binary")
        enc = fit_encoders(ds, k=10)
        assert enc[0].strategy == "impact"  # 10 levels is not < 10

    def test_numeric_passthrough(self):
        ds = make_ds(["a", "b"] * 3, ["0", "1"] * 3, "binary", extra_numeric=[1.0] * 6)
        enc = fit_encoders(ds, k=10)
        assert enc[1].strategy == "passthrough"

    def test_k_below_two_errors(self):
        ds = make_ds(["a", "b"] * 3, ["0", "1"] * 3, "binary")
        with pytest.raises(DataError, match="k must be >= 2"):
            fit_encoders(ds, k=1)

    def test_impact_without_target_errors(self):
        cat = np.asarray([f"l{i}" for i in range(12)] * 2, dtype=object)
        ds = Dataset((Column("f", "categorical", cat),), None, None)
        with pytest.raises(DataError, match="requires a dataset with a target"):
            fit_encoders(ds, k=10, high_card_strategy="impact")


class TestImpactValues:
    def test_binary_conditional_frequencies_by_hand(self):
        ds = make_ds(["a", "a", "b", "b"], ["1", "0", "1", "1"], "binary")
        enc = fit_encoders(ds, k=2, high_card_strategy="impact", m=0.0)
        ce = enc[0]
        # classes are sorted ("0", "1"); index 1 is P(y=1 | level)
        assert ce.table[ce.levels.index("a")][1] == pytest.approx(0.5, abs=1e-15)
        assert ce.table[ce.levels.index("b")][1] == pytest.approx(1.0, abs=1e-15)

    def test_regression_group_means_by_hand(self):
        ds = make_ds(["a", "a", "b"], [2.0, 4.0, 6.0], "regression")
        enc = fit_encoders(ds, k=2, high_card_strategy="impact", m=0.0)
        ce = enc[0]
        assert ce.table[ce.levels.index("a")][0] == pytest.approx(3.0, abs=1e-15)
        assert ce.table[ce.levels.index("b")][0] == pytest.approx(6.0, abs=1e-15)

    def test_matches_group_by_oracle_on_random_data(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(5, 51))
            n_levels = int(rng.integers(2, 9))
            cat = rng.choice([f"l{i}" for i in range(n_levels)], size=n).tolist()
            if seed % 2 == 0:
                y = rng.choice(["c0", "c1"], size=n).tolist()
                while len(set(y)) < 2:
                    y = rng.choice(["c0", "c1"], size=n).tolist()
                ds = make_ds(cat, y, "binary")
                enc = fit_encoders(ds, k=2, high_card_strategy="impact", m=0.0)
                oracle, prior = group_by_oracle_classification(cat, y, list(ds.classes), 0.0)
                ce = enc[0]
                for level, vec in oracle.items():
                    assert np.max(np.abs(ce.table[ce.levels.index(level)] - vec)) <= 1e-12
                assert np.max(np.abs(ce.table[-1] - prior)) <= 1e-12
            else:
                y = rng.normal(size=n).tolist()
                ds = make_ds(cat, y, "regression")
                enc = fit_encoders(ds, k=2, high_card_strategy="impact", m=0.0)
                oracle, ybar = group_by_oracle_regression(cat, y, 0.0)
                ce = enc[0]
                for level, value in oracle.items():
                    assert abs(ce.table[ce.levels.index(level)][0] - value) <= 1e-12
                assert abs(ce.table[-1][0] - ybar) <= 1e-12

    def test_classification_tables_match_per_level_reference_bit_for_bit(self):
        for seed in range(60):
            rng = np.random.default_rng(seed)
            classes = [f"c{i}" for i in range(int(rng.integers(2, 6)))]
            levels = [f"l{i:02d}" for i in range(int(rng.integers(2, 31)))]
            cat, y = levels[:1] * len(classes), list(classes)  # every class seen
            for level in levels:
                # Each level draws from a random subset of the classes, so
                # most levels lack some class.
                allowed = rng.choice(classes, size=int(rng.integers(1, len(classes) + 1)), replace=False)
                size = int(rng.integers(1, 8))
                cat += [level] * size
                y += rng.choice(allowed, size=size).tolist()
            order = rng.permutation(len(y))
            cat = np.asarray(cat, dtype=object)[order]
            y = np.asarray(y, dtype=object)[order]
            ds = make_ds(cat, y, "binary" if len(classes) == 2 else "multiclass")
            for m in (0, 1, 2.5):
                ce = fit_encoders(ds, k=2, high_card_strategy="impact", m=m)[0]
                expected = impact_reference(cat, y, levels, classes, m)
                assert ce.levels == tuple(levels)
                assert np.array_equal(ce.table, expected), (seed, m)

    def test_multiclass_emits_one_column_per_class(self):
        cat = ["a", "a", "b", "b", "b", "c"]
        y = ["r", "s", "s", "t", "t", "r"]
        ds = make_ds(cat, y, "multiclass")
        enc = fit_encoders(ds, k=2, high_card_strategy="impact", m=0.0)
        ce = enc[0]
        assert ce.output_names == ("f~r", "f~s", "f~t")
        oracle, prior = group_by_oracle_classification(cat, y, ["r", "s", "t"], 0.0)
        for level, vec in oracle.items():
            assert np.max(np.abs(ce.table[ce.levels.index(level)] - vec)) <= 1e-12
        out = transform(enc, ds)
        block = np.column_stack([c.values for c in out.feature_columns])
        np.testing.assert_allclose(block.sum(axis=1), 1.0, atol=1e-12)

    def test_class_vectors_sum_to_one(self):
        for m in (0.0, 1.0, 5.0):
            ds = make_ds(["a", "a", "b", "c", "c", "c"], ["0", "1", "1", "0", "1", "0"], "binary")
            enc = fit_encoders(ds, k=2, high_card_strategy="impact", m=m)
            for vec in enc[0].table[:-1]:
                assert sum(vec) == pytest.approx(1.0, abs=1e-12)

    def test_smoothing_pulls_strictly_toward_prior(self):
        ds = make_ds(["a", "a", "b"], [2.0, 4.0, 6.0], "regression")
        enc = fit_encoders(ds, k=2, high_card_strategy="impact", m=2.0)
        ybar = 4.0
        # group b has mean 6; smoothed value must lie strictly between
        ce = enc[0]
        smoothed = ce.table[ce.levels.index("b")][0]
        assert ybar < smoothed < 6.0


class TestTransform:
    def test_integer_encoding_is_sorted_bijection(self):
        cat = ["c", "a", "b", "a"]
        ds = make_ds(cat, ["0", "1", "0", "1"], "binary")
        enc = fit_encoders(ds, k=2, high_card_strategy="integer")
        out = transform(enc, ds)
        assert out.feature_columns[0].values.tolist() == [3.0, 1.0, 2.0, 1.0]

    def test_integer_fallback_is_zero(self):
        ds = make_ds(["a", "b", "c"], ["0", "1", "0"], "binary")
        enc = fit_encoders(ds, k=2, high_card_strategy="integer")
        new = make_ds(["a", "z", "b"], ["0", "1", "0"], "binary")
        out = transform(enc, new)
        assert out.feature_columns[0].values[1] == 0.0

    def test_dummy_rows_sum_to_one_including_na(self):
        cat = np.asarray(["a", "b", "__NA__", "a", "c"], dtype=object)
        ds = Dataset(
            (
                Column("f", "categorical", cat),
                Column("y", "categorical", np.asarray(["0", "1", "0", "1", "0"], dtype=object)),
            ),
            "y",
            "binary",
        )
        enc = fit_encoders(ds, k=10)
        out = transform(enc, ds)
        block = np.column_stack([c.values for c in out.feature_columns])
        assert block.shape[1] == 4  # levels __NA__, a, b, c
        assert np.allclose(block.sum(axis=1), 1.0)

    def test_unseen_impact_level_maps_to_prior(self):
        ds = make_ds(["a", "a", "b", "b"], ["1", "0", "1", "1"], "binary")
        enc = fit_encoders(ds, k=2, high_card_strategy="impact", m=0.0)
        new = make_ds(["z", "a", "b", "a"], ["1", "0", "1", "1"], "binary")
        out = transform(enc, new)
        prior_pos = 0.75  # 3 of 4 training labels are "1"
        pos_col = [c for c in out.feature_columns if c.name == "f~1"][0]
        assert pos_col.values[0] == pytest.approx(prior_pos, abs=1e-15)

    def test_all_numeric_dataset_passes_through_unchanged(self):
        x = np.asarray([1.0, np.nan, 3.0])
        ds = Dataset(
            (Column("x", "numeric", x), Column("y", "numeric", np.asarray([1.0, 2.0, 3.0]))),
            "y",
            "regression",
        )
        enc = fit_encoders(ds, k=10)
        out = transform(enc, ds)
        assert out.feature_schema == ds.feature_schema
        np.testing.assert_array_equal(out.feature_columns[0].values, x)

    def test_training_transform_never_produces_missing_encoded_cells(self):
        rng = np.random.default_rng(4)
        cat = rng.choice(["a", "b", "c", "__NA__"], size=40).astype(object)
        y = rng.choice(["0", "1"], size=40).astype(object)
        ds = Dataset(
            (Column("f", "categorical", cat), Column("y", "categorical", y)), "y", "binary"
        )
        for strategy in ("impact", "integer"):
            for k in (2, 10):
                enc = fit_encoders(ds, k=k, high_card_strategy=strategy)
                out = transform(enc, ds)
                for col in out.feature_columns:
                    assert not np.isnan(col.values).any()

    def test_row_count_and_target_preserved(self, small_binary):
        enc = fit_encoders(small_binary, k=3)
        out = transform(enc, small_binary)
        assert out.n_rows == small_binary.n_rows
        assert out.target is None

    def test_schema_mismatch_errors(self):
        ds = make_ds(["a", "b"] * 3, ["0", "1"] * 3, "binary")
        enc = fit_encoders(ds, k=10)
        wrong = Dataset(
            (
                Column("f", "numeric", np.arange(4.0)),
                Column("y", "categorical", np.asarray(["0", "1", "0", "1"], dtype=object)),
            ),
            "y",
            "binary",
        )
        with pytest.raises(SchemaError, match="expected categorical"):
            transform(enc, wrong)
        missing = Dataset(
            (Column("y", "categorical", np.asarray(["0", "1"] * 2, dtype=object)),),
            "y",
            "binary",
        )
        with pytest.raises(SchemaError, match="missing feature"):
            transform(enc, missing)
