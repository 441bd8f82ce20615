"""Categorical feature transforms: integer, dummy, and impact encoding.

A cardinality threshold dispatches per column: categorical features with
fewer than ``k`` levels are dummy encoded, the rest get the configured
high-cardinality strategy (integer or impact). Numeric features pass through
untouched. Impact encoding replaces a level with smoothed conditional target
aggregates: per-class frequencies for classification, the group mean for
regression.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Column, DataError, Dataset, SchemaError, level_codes

STRATEGIES = ("integer", "impact")


@dataclass(frozen=True)
class ColumnEncoder:
    """Fitted transform for a single source column, as a level table.

    Row i of ``table`` encodes ``levels[i]`` and the last row encodes every
    level not seen at fit time; there is one table column per output name.
    Integer rows hold the 1-based level index (0 when unseen), dummy rows a
    unit indicator (all zeros when unseen), impact rows the smoothed class
    frequencies or group mean (the prior when unseen). Passthrough encoders
    have no levels and an empty table.
    """

    name: str
    strategy: str  # "passthrough" | "integer" | "dummy" | "impact"
    levels: tuple[str, ...]
    table: np.ndarray
    output_names: tuple[str, ...]

    @property
    def kind(self) -> str:
        """Kind of the fit-time source column: passthrough columns are numeric."""
        return "numeric" if self.strategy == "passthrough" else "categorical"


def fit_encoders(
    train: Dataset, k: int = 10, high_card_strategy: str = "impact", m: float = 1.0
) -> tuple[ColumnEncoder, ...]:
    """Fit per-column encoders on the training split, in feature column order.

    Dispatch is strict: a categorical column with L < k levels is dummy
    encoded, L >= k gets ``high_card_strategy``. Impact values for level a
    and class c are (count_a(y=c) + m * P(y=c)) / (n_a + m); for regression
    (sum of y in group a + m * ybar) / (n_a + m). Unseen levels fall back to
    the global prior (impact), 0 (integer), or all-zero indicators (dummy).
    """
    if train.n_rows < 1:
        raise DataError("cannot fit encoders on an empty dataset")
    if k < 2:
        raise DataError(f"cardinality threshold k must be >= 2, got {k}")
    if high_card_strategy not in STRATEGIES:
        raise DataError(f"unknown high-cardinality strategy {high_card_strategy!r}")
    if m < 0:
        raise DataError(f"smoothing m must be >= 0, got {m}")

    encoders = []
    for col in train.feature_columns:
        if col.kind == "numeric":
            encoders.append(_passthrough(col))
        elif len(col.levels) < k:
            encoders.append(_fit_dummy(col))
        elif high_card_strategy == "integer":
            encoders.append(_fit_integer(col))
        else:
            encoders.append(_fit_impact(col, train, m))
    return tuple(encoders)


def _passthrough(col: Column) -> ColumnEncoder:
    return ColumnEncoder(col.name, "passthrough", (), np.empty((0, 1)), (col.name,))


def _fit_integer(col: Column) -> ColumnEncoder:
    levels = col.levels
    table = np.append(np.arange(1.0, len(levels) + 1), 0.0)[:, None]
    return ColumnEncoder(col.name, "integer", levels, table, (col.name,))


def _fit_dummy(col: Column) -> ColumnEncoder:
    levels = col.levels
    table = np.vstack([np.eye(len(levels)), np.zeros(len(levels))])
    names = tuple(f"{col.name}={level}" for level in levels)
    return ColumnEncoder(col.name, "dummy", levels, table, names)


def _fit_impact(col: Column, train: Dataset, m: float) -> ColumnEncoder:
    if train.target is None:
        raise DataError("impact encoding requires a dataset with a target")
    levels = col.levels
    x = level_codes(col.values, levels)
    n_a = np.bincount(x, minlength=len(levels))
    if train.task in ("binary", "multiclass"):
        classes = train.classes
        k = len(classes)
        y = train.class_indices(classes)
        counts = np.bincount(x * k + y, minlength=len(levels) * k).reshape(-1, k)
        prior = np.bincount(y, minlength=k) / len(y)
        table = (counts + m * prior) / (n_a[:, None] + m)
        names = tuple(f"{col.name}~{c}" for c in classes)
        return ColumnEncoder(col.name, "impact", levels, np.vstack([table, prior]), names)

    # One sum per level: a weighted bincount would add in another order.
    y = np.asarray(train.target_values(), dtype=np.float64)
    ybar = float(np.mean(y))
    rows = [(np.sum(y[x == i]) + m * ybar) / (n_a[i] + m) for i in range(len(levels))]
    table = np.asarray([*rows, ybar], dtype=np.float64)[:, None]
    return ColumnEncoder(col.name, "impact", levels, table, (col.name,))


def transform(enc: tuple[ColumnEncoder, ...], d: Dataset) -> Dataset:
    """Apply fitted encoders; the result holds the encoded features only.

    Requires every fit-time feature to be present with the same kind; other
    columns, the target among them, are ignored. Unseen levels map to the
    last row of each encoder's table.
    """
    available = {c.name: c for c in d.columns}
    out_columns: list[Column] = []
    for ce in enc:
        col = available.get(ce.name)
        if col is None:
            raise SchemaError(f"missing feature column {ce.name!r}")
        if col.kind != ce.kind:
            raise SchemaError(f"feature {ce.name!r} is {col.kind}, expected {ce.kind}")
        if ce.strategy == "passthrough":
            out_columns.append(col)
            continue
        encoded = ce.table[level_codes(col.values, ce.levels)]
        for j, out_name in enumerate(ce.output_names):
            out_columns.append(Column(out_name, "numeric", encoded[:, j]))
    return Dataset(tuple(out_columns), None, None)
