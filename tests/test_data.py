"""Dataset container, CSV loading, splitting, and the majority baseline."""

import csv
import math
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import autoboost.data
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


class TestBlockReading:
    """load_csv reads ``_BLOCK_ROWS`` rows at a time; rows are numbered in the whole file."""

    @pytest.fixture(autouse=True)
    def two_row_blocks(self, monkeypatch):
        monkeypatch.setattr(autoboost.data, "_BLOCK_ROWS", 2)

    def test_ragged_row_in_a_later_block_names_its_row_in_the_file(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "x,c\n1,a\n2,b\n3,a\n4,b\n5,a\n6\n")
        with pytest.raises(DataError, match="row 7 has 1 fields, expected 2"):
            load_csv(p, target=None, kinds={"x": "numeric", "c": "categorical"})

    def test_text_in_a_later_block_names_its_row_in_the_file(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "x,c\n1,a\n2,b\n3,a\n4,b\nabc,a\n6,b\n")
        with pytest.raises(DataError, match="feature 'x' is numeric, row 6 holds 'abc'"):
            load_csv(p, target=None, kinds={"x": "numeric", "c": "categorical"})

    def test_ragged_row_is_reported_before_text_in_its_block(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "x,c\n1,a\n2,b\n3,a\n4,b\nabc,a\n6\n")
        with pytest.raises(DataError, match="row 7 has 1 fields, expected 2"):
            load_csv(p, target=None, kinds={"x": "numeric", "c": "categorical"})

    def test_text_in_an_earlier_block_is_reported_before_a_ragged_row(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "x,c\nabc,a\n2,b\n3,a\n4,b\n5,a\n6\n")
        with pytest.raises(DataError, match="feature 'x' is numeric, row 2 holds 'abc'"):
            load_csv(p, target=None, kinds={"x": "numeric", "c": "categorical"})


def test_typed_load_holds_a_block_of_text_not_the_whole_file(tmp_path):
    # A scoring-like file: 10 numeric columns with 5% missing, 2 categorical ones.
    rng = np.random.default_rng(0)
    n = 20_000
    x = rng.normal(size=(n, 10))
    missing = rng.uniform(size=x.shape) < 0.05
    codes = rng.integers(0, 40, size=(n, 2))
    names = [f"x{j}" for j in range(10)] + ["c5", "c40"]
    lines = [",".join(names)]
    for i in range(n):
        cells = ["" if missing[i, j] else f"{x[i, j]:.6f}" for j in range(10)]
        lines.append(",".join(cells + [f"c5_{codes[i, 0] % 5}", f"c40_{codes[i, 1]}"]))
    p = write_csv(tmp_path / "score.csv", "\n".join(lines) + "\n")
    kinds = {name: "numeric" for name in names[:10]} | {"c5": "categorical", "c40": "categorical"}
    tracemalloc.start()
    try:
        ds = load_csv(p, target=None, kinds=kinds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.n_rows == n
    # The typed columns take 104 bytes a row; a whole file's text took about 900.
    assert peak / n < 450


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

    @pytest.mark.parametrize("fraction,sides", [
        (0.05, "0 holdout rows and 8 training rows"),
        (0.95, "8 holdout rows and 0 training rows"),
    ], ids=["empty-holdout", "empty-training"])
    @pytest.mark.parametrize("stratify", [False, True], ids=["plain", "stratified"])
    def test_an_empty_side_names_the_fraction_and_the_row_counts(self, fraction, sides, stratify):
        y = np.asarray(["a", "b"] * 4, dtype=object)
        d = Dataset(
            (Column("x", "numeric", np.arange(8.0)), Column("y", "categorical", y)),
            "y",
            "binary",
        )
        with pytest.raises(DataError, match=f"valid_fraction {fraction} of 8 rows gives {sides}"):
            split_holdout(d, fraction, seed=1, stratify=stratify)

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


NA_TOKENS = ["", "NA", "?", "-999"]
NUMBERS = ["1", "-2.5", "1e3", " 7 ", "-999", "0"]
LEVELS = ["", "NA", "?", "-999", "a", "zz", "1", "2.5", "nan", "__NA__"]
# Cells that are not numbers, unless they are NA tokens.
FAULTS = ["abc", "nan", "inf", "", "NA", "?"]


@st.composite
def block_tables(draw):
    """Rows of (x, n, c, u) and the NA tokens. x and n hold numbers and NA
    tokens, with at most two faults; c holds levels, NA tokens and
    numeric-looking levels; u holds either kind of cell."""
    na_tokens = draw(st.sets(st.sampled_from(NA_TOKENS)))
    number = st.sampled_from(NUMBERS + sorted(na_tokens))
    level = st.sampled_from(LEVELS)
    inferred = draw(st.sampled_from([number, level]))
    rows = draw(st.lists(st.tuples(number, number, level, inferred), min_size=1, max_size=30))
    rows = [list(row) for row in rows]
    for i, j, cell in draw(st.lists(
        st.tuples(st.integers(0, len(rows) - 1), st.integers(0, 1), st.sampled_from(FAULTS)),
        max_size=2,
    )):
        rows[i][j] = cell
    return rows, na_tokens


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(block_tables())
def test_typed_columns_do_not_depend_on_the_block_size(tmp_path_factory, table):
    rows, na_tokens = table
    # x and c have fit-time kinds; u is inferred and keeps its cells until the end.
    path = tmp_path_factory.getbasetemp() / "blocks.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([("x", "n", "c", "u"), *rows])
    kinds = {"x": "numeric", "n": "numeric", "c": "categorical"}
    na_set = set(na_tokens)
    x, n, c, u = (list(cells) for cells in zip(*rows))
    bad = {name: [reference_numeric_values([v], na_set) is None for v in cells]
           for name, cells in (("x", x), ("n", n))}
    first_bad = next((i for i in range(len(rows)) if bad["x"][i] or bad["n"][i]), None)
    for block_rows in (1, 2, 7, len(rows) + 1):
        with mock.patch.object(autoboost.data, "_BLOCK_ROWS", block_rows):
            if first_bad is not None:
                # The first block with a fault reports its first column's first fault.
                start = first_bad - first_bad % block_rows
                block = range(start, min(start + block_rows, len(rows)))
                name = "x" if any(bad["x"][i] for i in block) else "n"
                i = next(i for i in block if bad[name][i])
                with pytest.raises(DataError, match=f"feature '{name}' is numeric, row {i + 2} "):
                    load_csv(path, target=None, na_tokens=tuple(na_tokens), kinds=kinds)
                continue
            ds = load_csv(path, target=None, na_tokens=tuple(na_tokens), kinds=kinds)
        assert [col.name for col in ds.columns] == ["x", "n", "c", "u"]
        assert [col.kind for col in ds.columns[:3]] == ["numeric", "numeric", "categorical"]
        for col, cells in ((ds.columns[0], x), (ds.columns[1], n)):
            assert np.array_equal(col.values, reference_numeric_values(cells, na_set), equal_nan=True)
        assert ds.columns[2].values.tolist() == ["__NA__" if v in na_set else v for v in c]
        inferred = autoboost.data._build_feature_column("u", u, na_set, None)
        assert ds.columns[3].kind == inferred.kind
        if inferred.kind == "numeric":
            assert np.array_equal(ds.columns[3].values, inferred.values, equal_nan=True)
        else:
            assert ds.columns[3].values.tolist() == inferred.values.tolist()
