"""Dataset container, CSV loading, splitting, and the majority baseline."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autoboost.data import (
    Column,
    DataError,
    Dataset,
    _numeric_values,
    load_csv,
    majority_baseline,
    split_holdout,
)
from autoboost.pipeline import autogbt_fit

from conftest import binary_margin_dataset, random_mixed_dataset


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_numeric_and_string_columns(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,b,y\n1.5,x,0\n2.0,y,1\n3.5,x,0\n")
        ds = load_csv(p, target="y")
        assert ds.n_rows == 3
        kinds = {c.name: c.kind for c in ds.feature_columns}
        assert kinds == {"a": "numeric", "b": "categorical"}

    def test_empty_cell_in_numeric_column_is_missing(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,y\n1.5,0\n,1\n2.5,0\n")
        ds = load_csv(p, target="y")
        col = ds.feature_columns[0]
        assert col.kind == "numeric"
        assert np.isnan(col.values[1]) and not np.isnan(col.values[0])

    def test_numeric_target_infers_regression(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,y\n1,0.5\n2,0.7\n3,0.6\n")
        assert load_csv(p, target="y").task == "regression"

    def test_two_level_target_infers_binary(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,y\n1,u\n2,v\n3,u\n")
        assert load_csv(p, target="y").task == "binary"

    def test_three_level_target_infers_multiclass(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,y\n1,u\n2,v\n3,w\n")
        assert load_csv(p, target="y").task == "multiclass"

    def test_classification_hint_keeps_numeric_labels_as_strings(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,y\n1,0\n2,1\n3,0\n")
        ds = load_csv(p, target="y", task_hint="binary")
        assert ds.task == "binary"
        assert ds.classes == ("0", "1")

    def test_rfc4180_quoting(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", 'a,y\n"hello, world",0\n"line",1\nplain,0\n')
        ds = load_csv(p, target="y")
        assert ds.feature_columns[0].values[0] == "hello, world"

    def test_missing_categorical_becomes_na_level(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,y\nx,0\nNA,1\n?,0\n")
        ds = load_csv(p, target="y")
        assert ds.feature_columns[0].values[1] == "__NA__"
        assert ds.feature_columns[0].values[2] == "__NA__"

    def test_custom_na_tokens(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,y\n1,0\nmissing,1\n3,0\n")
        ds = load_csv(p, target="y", na_tokens=("missing",))
        assert ds.feature_columns[0].kind == "numeric"
        assert np.isnan(ds.feature_columns[0].values[1])

    def test_numeric_na_token_is_missing_not_its_number(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,y\n1,0\n-999,1\n3,0\n")
        col = load_csv(p, target="y", na_tokens=("-999",)).feature_columns[0]
        assert col.kind == "numeric"
        assert np.isnan(col.values[1]) and col.values.tolist()[::2] == [1.0, 3.0]

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_present_non_finite_cell_makes_column_categorical(self, tmp_path, cell):
        p = write_csv(tmp_path / "d.csv", f"a,y\n1,0\n{cell},1\n,0\n")
        col = load_csv(p, target="y").feature_columns[0]
        assert col.kind == "categorical"
        assert col.values.tolist() == ["1", cell, "__NA__"]

    def test_utf8_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"\xef\xbb\xbfa,y\n1,u\n2,v\n3,u\n")
        ds = load_csv(p, target="a")
        assert [c.name for c in ds.columns] == ["a", "y"]
        assert ds.task == "regression"
        assert ds.target_values().tolist() == [1.0, 2.0, 3.0]

    def test_target_none_loads_features_only(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,b\n1,x\n2,y\n")
        ds = load_csv(p, target=None)
        assert ds.target is None and ds.task is None
        assert len(ds.feature_columns) == 2

    def test_kinds_override_inference(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "zip,blank,x,n\n1,,1,5\n2,NA,2,\n")
        kinds = {"zip": "categorical", "blank": "categorical", "n": "numeric"}
        ds = load_csv(p, target=None, kinds=kinds)
        assert [c.kind for c in ds.columns] == ["categorical", "categorical", "numeric", "numeric"]
        assert ds.columns[0].levels == ("1", "2")
        assert ds.columns[1].levels == ("__NA__",)
        assert np.isnan(ds.columns[3].values[1])

    def test_unknown_kind_names_column_and_kind(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "x,y\n1,0\n2,1\n")
        with pytest.raises(DataError, match="column 'x' has unknown kind 'categoric'"):
            load_csv(p, target="y", kinds={"x": "categoric"})

    @pytest.mark.parametrize("cell", ["abc", "inf"])
    def test_text_in_numeric_kind_names_column_and_row(self, tmp_path, cell):
        p = write_csv(tmp_path / "d.csv", f"x,y\n1,0\n,1\n{cell},0\n")
        with pytest.raises(DataError, match=f"feature 'x' is numeric, row 4 holds '{cell}'"):
            load_csv(p, target="y", kinds={"x": "numeric"})

    @pytest.mark.parametrize("cell", ["nan", "-inf"])
    def test_non_finite_text_in_numeric_kind_names_column_and_row(self, tmp_path, cell):
        p = write_csv(tmp_path / "d.csv", f"x,y\n1,0\n,1\n{cell},0\n")
        with pytest.raises(DataError, match=f"feature 'x' is numeric, row 4 holds '{cell}'"):
            load_csv(p, target="y", kinds={"x": "numeric"})

    def test_missing_file_errors(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_csv(tmp_path / "absent.csv", target="y")

    def test_absent_target_errors(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,b\n1,2\n3,4\n")
        with pytest.raises(DataError, match="target column"):
            load_csv(p, target="y")

    def test_missing_target_cells_error(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,y\n1,0\n2,\n3,1\n")
        with pytest.raises(DataError, match="missing cells"):
            load_csv(p, target="y")

    def test_too_few_rows_errors(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,y\n1,0\n")
        with pytest.raises(DataError, match="at least 2"):
            load_csv(p, target="y")

    def test_single_level_target_errors(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,y\n1,u\n2,u\n3,u\n")
        with pytest.raises(DataError, match="single level"):
            load_csv(p, target="y")

    def test_binary_hint_with_three_labels_errors(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,y\n1,u\n2,v\n3,w\n")
        d = load_csv(p, target="y", task_hint="binary")
        with pytest.raises(DataError, match="binary target must have 2 levels, found 3"):
            autogbt_fit(d)

    def test_multiclass_hint_with_two_labels_errors(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,y\n1,u\n2,v\n3,u\n")
        d = load_csv(p, target="y", task_hint="multiclass")
        with pytest.raises(DataError, match="multiclass target must have >=3 levels, found 2"):
            autogbt_fit(d)

    def test_regression_hint_with_text_labels_errors(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,y\n1,u\n2,v\n3,u\n")
        with pytest.raises(DataError, match="target column 'y' is not numeric, cannot regress"):
            load_csv(p, target="y", task_hint="regression")

    def test_ragged_row_errors(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,y\n1,0\n2\n3,1\n")
        with pytest.raises(DataError, match="row 3 has 1 fields, expected 2"):
            load_csv(p, target="y")

    def test_first_ragged_row_is_named(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,y\n1,0\n2\n3,1\n4\n")
        with pytest.raises(DataError, match="row 3 has 1 fields, expected 2"):
            load_csv(p, target="y")

    def test_row_longer_than_header_errors(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,y\n1,0\n2,1\n3,0,9\n")
        with pytest.raises(DataError, match="row 4 has 3 fields, expected 2"):
            load_csv(p, target="y")

    def test_duplicate_header_errors(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,a,y\n1,2,0\n3,4,1\n")
        with pytest.raises(DataError, match="duplicate column names in header"):
            load_csv(p, target="y")


def reference_numeric_values(cells, na_set):
    """The cell-by-cell parse: NaN for a missing cell, else ``float(cell)``,
    and None when a present cell is not a finite number."""
    values = []
    for c in cells:
        if c in na_set:
            values.append(math.nan)
            continue
        try:
            v = float(c)
        except ValueError:
            return None
        if not math.isfinite(v):
            return None
        values.append(v)
    return np.asarray(values, dtype=np.float64)


CELL_TEXTS = ["", "NA", "?", "-999", "1", "-2.5", "1e3", " 7 ", "1_0", "nan", "inf", "-inf", "abc"]


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(
    st.lists(st.sampled_from(CELL_TEXTS), min_size=1, max_size=12),
    st.sets(st.sampled_from(CELL_TEXTS)),
)
def test_numeric_parse_matches_cell_by_cell_reference(cells, na_set):
    expected = reference_numeric_values(cells, na_set)
    got = _numeric_values(cells, na_set)
    if expected is None:
        assert got is None
    else:
        assert got is not None and got.dtype == np.float64
        np.testing.assert_array_equal(got, expected)


class TestDatasetInvariants:
    def test_levels_are_sorted_regardless_of_appearance(self):
        col = Column("c", "categorical", np.asarray(["z", "a", "m", "a"], dtype=object))
        assert col.levels == ("a", "m", "z")

    def test_binary_task_requires_two_levels(self):
        cols = (
            Column("x", "numeric", np.asarray([1.0, 2.0, 3.0])),
            Column("y", "categorical", np.asarray(["a", "b", "c"], dtype=object)),
        )
        with pytest.raises(DataError, match="2 levels"):
            autogbt_fit(Dataset(cols, "y", "binary"))

    def test_unequal_lengths_error(self):
        cols = (
            Column("x", "numeric", np.asarray([1.0, 2.0])),
            Column("y", "numeric", np.asarray([1.0, 2.0, 3.0])),
        )
        with pytest.raises(DataError, match="unequal"):
            Dataset(cols, "y", "regression")


class TestSplitHoldout:
    def test_round_rule(self, small_binary):
        d = small_binary.subset(np.arange(10))
        train, valid = split_holdout(d, 0.2, seed=7)
        assert train.n_rows == 8 and valid.n_rows == 2

    def test_stratified_balanced_binary_gets_one_of_each(self):
        # With 5 rows per class and 2 validation rows, every stratified
        # 2-subset holds exactly one row of each class; enumerating the
        # allocation confirms (1, 1) is the only proportional split.
        y = np.asarray(["a"] * 5 + ["b"] * 5, dtype=object)
        x = np.arange(10.0)
        d = Dataset((Column("x", "numeric", x), Column("y", "categorical", y)), "y", "binary")
        for seed in range(30):
            _, valid = split_holdout(d, 0.2, seed=seed, stratify=True)
            labels = valid.target_values().tolist()
            assert sorted(labels) == ["a", "b"]

    def test_fraction_bounds(self, small_binary):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(DataError, match="valid_fraction"):
                split_holdout(small_binary, bad, seed=1)

    def test_singleton_class_cannot_stratify(self):
        y = np.asarray(["a"] * 9 + ["b"], dtype=object)
        d = Dataset(
            (Column("x", "numeric", np.arange(10.0)), Column("y", "categorical", y)),
            "y",
            "binary",
        )
        with pytest.raises(DataError, match="fewer than 2 rows"):
            split_holdout(d, 0.2, seed=1, stratify=True)

    def test_split_is_pure(self, small_binary):
        a_train, a_valid = split_holdout(small_binary, 0.25, seed=42, stratify=True)
        b_train, b_valid = split_holdout(small_binary, 0.25, seed=42, stratify=True)
        assert a_valid.target_values().tolist() == b_valid.target_values().tolist()
        assert a_train.feature_columns[0].values.tolist() == b_train.feature_columns[0].values.tolist()

    def test_split_is_lossless(self):
        for seed in range(5):
            d = random_mixed_dataset(seed, n=23)
            train, valid = split_holdout(d, 0.3, seed=seed, stratify=False)

            def rows(ds):
                cols = [c.values.tolist() for c in ds.columns]
                return [tuple(str(v) for v in row) for row in zip(*cols)]

            assert Counter(rows(train)) + Counter(rows(valid)) == Counter(rows(d))

    def test_stratified_keeps_a_training_row_of_every_class(self):
        # 2 of 10 rows are "a": an 80% holdout's quota for "a" is 1.6, which
        # largest remainder rounds up to both rows. The cap keeps one in
        # training and gives the freed row to "b", so the holdout keeps 8 rows.
        y = np.asarray(["a"] * 2 + ["b"] * 8, dtype=object)
        d = Dataset(
            (Column("x", "numeric", np.arange(10.0)), Column("y", "categorical", y)),
            "y",
            "binary",
        )
        for seed in range(10):
            train, valid = split_holdout(d, 0.8, seed=seed, stratify=True)
            assert valid.n_rows == 8
            assert sorted(train.target_values().tolist()) == ["a", "b"]

    def test_stratified_holdout_that_must_take_a_whole_class_errors(self):
        # 9 of 10 rows in the holdout leave one training row for two classes.
        y = np.asarray(["a"] * 5 + ["b"] * 5, dtype=object)
        d = Dataset(
            (Column("x", "numeric", np.arange(10.0)), Column("y", "categorical", y)),
            "y",
            "binary",
        )
        with pytest.raises(DataError, match="no training row"):
            split_holdout(d, 0.9, seed=1, stratify=True)
        assert split_holdout(d, 0.8, seed=1, stratify=True)[1].n_rows == 8

    def test_stratified_proportions_within_one_row(self):
        d = binary_margin_dataset(97, seed=5)
        _, valid = split_holdout(d, 0.2, seed=3, stratify=True)
        n_valid = valid.n_rows
        y = d.target_values()
        yv = valid.target_values()
        for c in d.classes:
            expected = n_valid * np.sum(y == c) / d.n_rows
            got = np.sum(yv == c)
            assert abs(got - expected) <= 1.0


class TestMajorityBaseline:
    def _make(self, train_labels, test_labels):
        def ds(labels):
            n = len(labels)
            return Dataset(
                (
                    Column("x", "numeric", np.arange(float(n))),
                    Column("y", "categorical", np.asarray(labels, dtype=object)),
                ),
                "y",
                "binary" if len(set(labels)) == 2 else "multiclass",
            )

        return ds(train_labels), ds(test_labels)

    def test_simple_rate(self):
        train = Dataset(
            (
                Column("x", "numeric", np.arange(3.0)),
                Column("y", "categorical", np.asarray(["a", "a", "b"], dtype=object)),
            ),
            "y",
            "binary",
        )
        test = Dataset(
            (
                Column("x", "numeric", np.arange(2.0)),
                Column("y", "categorical", np.asarray(["a", "b"], dtype=object)),
            ),
            "y",
            "binary",
        )
        assert majority_baseline(train, test) == 0.5

    def test_all_majority_test_rows_give_zero(self, small_binary):
        y = small_binary.target_values()
        labels, counts = np.unique(y.astype(str), return_counts=True)
        major = labels[np.argmax(counts)]
        rows = np.flatnonzero(y == major)
        assert majority_baseline(small_binary, small_binary.subset(rows)) == 0.0

    def test_tie_breaks_lexicographically(self):
        train, test = self._make(["b", "a", "a", "b"], ["a", "a", "b"])
        # tie between a and b resolves to a
        assert majority_baseline(train, test) == pytest.approx(1.0 / 3.0)

    def test_regression_errors(self):
        d = Dataset(
            (
                Column("x", "numeric", np.arange(4.0)),
                Column("y", "numeric", np.arange(4.0)),
            ),
            "y",
            "regression",
        )
        with pytest.raises(DataError, match="classification"):
            majority_baseline(d, d)

    def test_rate_equals_one_minus_predicted_frequency(self):
        for seed in range(5):
            d = random_mixed_dataset(seed, n=31)
            if d.task == "regression":
                continue
            train, valid = split_holdout(d, 0.3, seed=seed)
            y_train = train.target_values().astype(str)
            labels, counts = np.unique(y_train, return_counts=True)
            predicted = labels[np.argmax(counts)]
            freq = np.mean(valid.target_values().astype(str) == predicted)
            assert majority_baseline(train, valid) == pytest.approx(1.0 - freq, abs=1e-12)
