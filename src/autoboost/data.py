"""Tabular dataset container, CSV ingestion, label and level codes, holdout
splitting, majority baseline.

Raw data is kept as-is: no scaling, numeric missing values stay NaN (the
booster routes them through learned default directions), and missing
categorical cells become the explicit level ``__NA__`` so the encoders have a
concrete level to map.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

TASKS = ("binary", "multiclass", "regression")
KINDS = ("numeric", "categorical")

NA_LEVEL = "__NA__"
DEFAULT_NA_TOKENS = ("", "NA", "?")


class DataError(ValueError):
    """A dataset, file, or split request violates the data contracts."""


class SchemaError(DataError):
    """Column names or kinds do not match the expected schema."""


def level_codes(values, levels) -> np.ndarray:
    """Each value's index in ``levels`` as an intp array, ``len(levels)`` if absent.

    This is the one map from labels and categorical levels to indices: class
    indices, the stratified holdout, the encoders and the baseline all use it.
    """
    index = {level: i for i, level in enumerate(levels)}
    absent = len(levels)
    return np.fromiter(map(index.get, values, repeat(absent)), dtype=np.intp, count=len(values))


@dataclass(frozen=True)
class Column:
    """One named column.

    Numeric columns hold float64 with NaN for missing cells; categorical
    columns hold string levels (missing cells are the ``__NA__`` level).
    """

    name: str
    kind: str
    values: np.ndarray

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DataError(f"unknown column kind: {self.kind!r}")
        if self.kind == "numeric":
            object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        else:
            object.__setattr__(self, "values", np.asarray(list(map(str, self.values)), dtype=object))

    def __len__(self) -> int:
        return len(self.values)

    @property
    def levels(self) -> tuple[str, ...]:
        """Distinct levels, sorted lexicographically (categorical only).

        First-appearance order in the source file is deliberately not exposed;
        every iteration over levels is file-order insensitive.
        """
        if self.kind != "categorical":
            raise DataError(f"column {self.name!r} is numeric, has no levels")
        return tuple(sorted(set(self.values.tolist())))

    def take(self, rows: np.ndarray) -> "Column":
        return Column(self.name, self.kind, self.values[rows])


@dataclass(frozen=True)
class Dataset:
    """Immutable tabular dataset.

    ``target`` may be None for prediction-time data that carries features
    only, and then ``task`` is None too. Only the shape is checked here.
    """

    columns: tuple[Column, ...]
    target: str | None
    task: str | None

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise DataError("duplicate column names")
        lengths = {len(c) for c in self.columns}
        if len(lengths) > 1:
            raise DataError("columns have unequal lengths")
        if self.target is None:
            if self.task is not None:
                raise DataError("task given without a target column")
            return
        if self.task not in TASKS:
            raise DataError(f"unknown task: {self.task!r}")
        self._column(self.target)

    def _column(self, name: str) -> Column:
        for c in self.columns:
            if c.name == name:
                return c
        raise DataError(f"no column named {name!r}")

    @property
    def n_rows(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @property
    def feature_columns(self) -> tuple[Column, ...]:
        return tuple(c for c in self.columns if c.name != self.target)

    @property
    def target_column(self) -> Column:
        if self.target is None:
            raise DataError("dataset has no target column")
        return self._column(self.target)

    @property
    def classes(self) -> tuple[str, ...]:
        """Sorted target levels for classification tasks."""
        if self.task not in ("binary", "multiclass"):
            raise DataError("classes are defined for classification tasks only")
        return self.target_column.levels

    @property
    def feature_schema(self) -> tuple[tuple[str, str], ...]:
        return tuple((c.name, c.kind) for c in self.feature_columns)

    def subset(self, rows: np.ndarray) -> "Dataset":
        rows = np.asarray(rows, dtype=np.intp)
        return Dataset(tuple(c.take(rows) for c in self.columns), self.target, self.task)

    def feature_matrix(self) -> np.ndarray:
        """Stack all-numeric features into an (n_rows, n_features) float matrix."""
        for c in self.feature_columns:
            if c.kind != "numeric":
                raise DataError(f"feature {c.name!r} is categorical, not numeric")
        if not self.feature_columns:
            return np.empty((self.n_rows, 0), dtype=np.float64)
        return np.column_stack([c.values for c in self.feature_columns])

    def target_values(self) -> np.ndarray:
        return self.target_column.values

    def class_indices(self, classes: tuple[str, ...]) -> np.ndarray:
        """Target labels as integer indices into ``classes``.

        Pass the training split's classes for every split of one fit, so a
        label means the same index in each. A label not in ``classes``
        raises DataError.
        """
        y = self.target_values()
        codes = level_codes(y, classes)
        unknown = np.flatnonzero(codes == len(classes))
        if unknown.size:
            raise DataError(f"label {y[unknown[0]]!r} not present in training data")
        return codes


@contextmanager
def open_text(path: Path, what: str):
    """Open ``path`` for the csv module as UTF-8 text, skipping a byte-order mark.

    A file that is absent, unreadable, not UTF-8 or not parseable as CSV (say,
    a cell past the csv module's field size limit) raises DataError naming it
    as ``what``, also while the caller reads it.
    """
    try:
        with path.open("r", encoding="utf-8-sig", newline="") as fh:
            yield fh
    except FileNotFoundError:
        raise DataError(f"no such {what}: {path}") from None
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{what} {path} is not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise DataError(f"cannot parse {what} {path}: {exc}") from None


def load_csv(
    path: str | Path,
    target: str | None,
    task_hint: str | None = None,
    na_tokens: tuple[str, ...] = DEFAULT_NA_TOKENS,
    kinds: dict[str, str] | None = None,
) -> Dataset:
    """Load an RFC-4180 CSV file (header row mandatory, UTF-8, optional BOM) into a Dataset.

    A feature named in ``kinds`` (say, the fit-time schema) gets the kind it
    maps to, and text in a numeric one raises DataError. Other columns whose
    non-missing cells all parse as finite numbers become numeric; everything
    else is categorical. Cells matching ``na_tokens`` become missing. The
    target column and its task come from ``_build_target_column``.
    ``target=None`` loads a feature-only dataset for prediction, which may
    hold a single row; a file with a target needs two.
    """
    path = Path(path)
    if task_hint is not None and task_hint not in TASKS:
        raise DataError(f"unknown task hint: {task_hint!r}")
    for name, kind in (kinds or {}).items():
        if kind not in KINDS:
            raise DataError(f"column {name!r} has unknown kind {kind!r}, expected one of {KINDS}")
    na_set = set(na_tokens)

    with open_text(path, "file") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        # One row-major list of all fields, so no row list outlives its line.
        fields, widths = [], []
        for row in reader:
            fields += row
            widths.append(len(row))
    if header is None:
        raise DataError(f"{path}: empty file, header row required")

    if len(set(header)) != len(header):
        raise DataError(f"{path}: duplicate column names in header")
    if target is not None and target not in header:
        raise DataError(f"{path}: target column {target!r} not in header")
    if target is not None and len(widths) < 2:
        raise DataError(f"{path}: need at least 2 data rows, found {len(widths)}")
    if not widths:
        raise DataError(f"{path}: need at least 1 data row, found 0")
    if set(widths) != {len(header)}:
        i, width = next((i, w) for i, w in enumerate(widths) if w != len(header))
        raise DataError(f"{path}: row {i + 2} has {width} fields, expected {len(header)}")

    columns = []
    task = None
    for j, name in enumerate(header):
        cells = fields[j::len(header)]
        if name == target:
            column, task = _build_target_column(name, cells, na_set, task_hint)
        else:
            column = _build_feature_column(name, cells, na_set, (kinds or {}).get(name))
        columns.append(column)

    return Dataset(tuple(columns), target, task)


def _numeric_values(cells: list[str], na_set: set[str]) -> np.ndarray | None:
    """The cells as floats, NaN where missing, or None if the column is not numeric.

    A column is numeric when every present cell parses as a finite number:
    missing cells parse as NaN, so every non-finite value must be a missing cell.
    """
    as_nan = dict.fromkeys(na_set, "nan")
    try:
        values = np.fromiter(map(float, map(as_nan.get, cells, cells)), np.float64, count=len(cells))
    except ValueError:
        return None
    non_finite = np.flatnonzero(~np.isfinite(values)).tolist()
    return values if na_set.issuperset(map(cells.__getitem__, non_finite)) else None


def _build_feature_column(
    name: str, cells: list[str], na_set: set[str], kind: str | None
) -> Column:
    values = None if kind == "categorical" else _numeric_values(cells, na_set)
    if values is not None:
        return Column(name, "numeric", values)
    if kind == "numeric":
        row = next(i for i, c in enumerate(cells) if _numeric_values([c], na_set) is None)
        raise DataError(f"feature {name!r} is numeric, row {row + 2} holds {cells[row]!r}")
    as_level = dict.fromkeys(na_set, NA_LEVEL)
    return Column(name, "categorical", list(map(as_level.get, cells, cells)))


def _build_target_column(
    name: str, cells: list[str], na_set: set[str], task_hint: str | None
) -> tuple[Column, str]:
    """The target column and its task: the hint, unchecked against the levels
    (``check_target`` holds the training rules), else regression for a numeric
    target, binary for 2 levels and multiclass for 3 or more."""
    if not na_set.isdisjoint(cells):
        raise DataError(f"target column {name!r} has missing cells")
    values = _numeric_values(cells, na_set)
    if task_hint == "regression" or (task_hint is None and values is not None):
        if values is None:
            raise DataError(f"target column {name!r} is not numeric, cannot regress")
        return Column(name, "numeric", values), "regression"
    # Classification targets keep their literal string labels, numeric-looking or not.
    column = Column(name, "categorical", cells)
    n_levels = len(column.levels)
    if task_hint is None and n_levels < 2:
        raise DataError(f"target column {name!r} has a single level")
    return column, task_hint or ("binary" if n_levels == 2 else "multiclass")


def check_target(d: Dataset) -> None:
    """Raise DataError unless the target can train its task: regression needs a
    numeric target with no NaN, binary 2 levels and multiclass 3 or more."""
    if d.target is None:
        raise DataError("fitting requires a dataset with a target column")
    column = d.target_column
    if d.task == "regression":
        if column.kind != "numeric":
            raise DataError(f"regression requires a numeric target, {column.name!r} is categorical")
        if np.isnan(column.values).any():
            raise DataError(f"target column {column.name!r} has missing values")
    elif column.kind != "categorical":
        raise DataError(f"task {d.task!r} requires a categorical target, {column.name!r} is numeric")
    elif d.task == "binary" and len(column.levels) != 2:
        raise DataError(f"binary target must have 2 levels, found {len(column.levels)}")
    elif d.task == "multiclass" and len(column.levels) < 3:
        raise DataError(f"multiclass target must have >=3 levels, found {len(column.levels)}")


def split_holdout(
    d: Dataset, valid_fraction: float, seed: int, stratify: bool = False
) -> tuple[Dataset, Dataset]:
    """Return (train, valid), with a holdout of round(valid_fraction * n_rows) rows.

    Stratified splits allocate per-class validation counts by largest
    remainder, which keeps class proportions within one row of exact, and
    leave at least one row of every class in training: a class already at
    its cap passes its extra row to the next class in remainder order. The
    split is a pure function of (d, valid_fraction, seed, stratify).
    """
    if not (0.0 < valid_fraction < 1.0):
        raise DataError(f"valid_fraction must be in (0,1), got {valid_fraction}")
    n = d.n_rows
    if n < 5:
        raise DataError(f"need at least 5 rows to split, got {n}")
    n_valid = int(math.floor(valid_fraction * n + 0.5))
    rng = np.random.default_rng(seed)

    if stratify:
        if d.task not in ("binary", "multiclass"):
            raise DataError("stratified splitting requires a classification task")
        classes = d.classes
        y = d.class_indices(classes)
        counts = np.bincount(y, minlength=len(classes)).tolist()
        thin = [c for c, count in zip(classes, counts) if count < 2]
        if thin:
            raise DataError(f"class {thin[0]!r} has fewer than 2 rows, cannot stratify")
        if n_valid > n - len(classes):
            raise DataError(
                f"a {n_valid}-row holdout leaves no training row for some of the "
                f"{len(classes)} classes in {n} rows"
            )
        # Lists indexed by class; classes are sorted, so index order is label order.
        quotas = [n_valid * count / n for count in counts]
        alloc = [math.floor(q) for q in quotas]
        shortfall = n_valid - sum(alloc)
        by_remainder = sorted(range(len(classes)), key=lambda i: (-(quotas[i] - alloc[i]), i))
        while shortfall:
            for i in by_remainder:
                if shortfall and alloc[i] < counts[i] - 1:
                    alloc[i] += 1
                    shortfall -= 1
        valid_idx = [
            rng.choice(np.flatnonzero(y == i), size=a, replace=False)
            for i, a in enumerate(alloc)
            if a > 0
        ]
        valid_rows = np.sort(np.concatenate(valid_idx)) if valid_idx else np.empty(0, np.intp)
    else:
        valid_rows = np.sort(rng.choice(n, size=n_valid, replace=False))

    mask = np.zeros(n, dtype=bool)
    mask[valid_rows] = True
    train_rows = np.flatnonzero(~mask)
    return d.subset(train_rows), d.subset(valid_rows)


def majority_baseline(train: Dataset, test: Dataset) -> float:
    """Misclassification rate of always predicting the most frequent train class.

    Ties between equally frequent classes break to the lexicographically
    smallest label, so the baseline is deterministic.
    """
    if train.task not in ("binary", "multiclass"):
        raise DataError("majority baseline is defined for classification tasks only")
    classes = train.classes
    predicted = int(np.argmax(np.bincount(train.class_indices(classes))))
    return float(np.mean(level_codes(test.target_values(), classes) != predicted))
