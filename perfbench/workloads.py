"""Synthetic workloads: the input files each one writes, and its CLI arguments.

Every input is a pure function of the workload and the seed. The program only
ever sees the CSV files written here; the truth labels of each scoring file go
to a separate file that only the benchmark reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_NUMERIC = 10
NAN_SHARE = 0.05
NOISE_SD = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    index: int  # separates the random streams of workloads that share a seed
    n_classes: int
    n_train: int
    n_score: int
    budget: int
    max_rounds: int
    # (name, levels) of the categorical features; the CLI's default k = 10
    # dummy encodes fewer than 10 levels and impact encodes the rest.
    categoricals: tuple[tuple[str, int], ...]
    unseen_share: float  # share of scoring rows whose categorical levels were never trained on


# The CLI builds 2 * 8 = 16 Latin-hypercube points before its first GP step
# (fewer when the budget is smaller), so `budget - 16` is the number of GP
# steps. `--max-rounds` at or below the early-stopping patience of 10 makes
# every training run exactly `max_rounds` rounds, so the work per fit does
# not hinge on when early stopping fires.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fit-binary", 1, 2, 1000, 40000, 18, 10, (("cat30", 30),), 0.0),
        Workload("tune-multiclass", 2, 3, 100, 40000, 48, 5, (("cat30", 30),), 0.0),
        Workload(
            "score-batch", 3, 3, 300, 60000, 4, 10,
            (("cat5", 5), ("cat40", 40)), 0.05,
        ),
    )
}

# The training file and the tuner's seed are the same for every run; `--seed`
# draws the scoring batch and its truth. Across ten training-set seeds the
# tuner's incumbent swung between depth-3 and depth-16 trees (bundle 24-125 KB,
# fit time quartile spread 17% of the median, test logloss 24%), more than any
# bound this benchmark could hold; see README.md.
TRAIN_SEED = 0
FIT_SEED = 1


@dataclass(frozen=True)
class Inputs:
    train_csv: Path
    score_csv: Path
    truth_csv: Path


def _class_names(n_classes: int) -> tuple[str, ...]:
    return tuple(f"c{i}" for i in range(n_classes))


def _draw(w: Workload, rng, n: int, level_effects: list[np.ndarray], unseen_share: float):
    """Features and the noisy latent score of `n` rows."""
    x = rng.standard_normal((n, N_NUMERIC))
    latent = x[:, 0] + 0.5 * x[:, 1] ** 2 + rng.normal(0.0, NOISE_SD, size=n)
    cats = []
    for (name, n_levels), effect in zip(w.categoricals, level_effects):
        codes = rng.integers(0, n_levels, size=n)
        latent = latent + effect[codes]
        labels = np.asarray([f"{name}_{i}" for i in range(n_levels)], dtype=object)[codes]
        if unseen_share > 0:
            unseen = rng.uniform(size=n) < unseen_share
            labels[unseen] = np.asarray(
                [f"{name}_new{i}" for i in rng.integers(0, 7, size=int(unseen.sum()))],
                dtype=object,
            )
        cats.append(labels)
    x[rng.uniform(size=x.shape) < NAN_SHARE] = np.nan
    return x, cats, latent


def _labels(latent: np.ndarray, cuts: np.ndarray, classes: tuple[str, ...]) -> list[str]:
    return [classes[i] for i in np.searchsorted(cuts, latent, side="right")]


def _write_csv(path: Path, header: list[str], columns: list[list[str]]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(cells) for cells in zip(*columns))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _numeric_cells(col: np.ndarray) -> list[str]:
    return ["" if v != v else repr(v) for v in np.round(col, 6).tolist()]


def write_inputs(w: Workload, seed: int, workdir: Path) -> Inputs:
    """Write the train CSV, the feature-only scoring CSV and its truth file."""
    train_rng = np.random.default_rng([TRAIN_SEED, w.index])
    classes = _class_names(w.n_classes)
    level_effects = [train_rng.normal(0.0, 0.5, size=n) for _, n in w.categoricals]
    x_tr, cats_tr, latent_tr = _draw(w, train_rng, w.n_train, level_effects, 0.0)
    score_rng = np.random.default_rng([seed, w.index, 1])
    x_sc, cats_sc, latent_sc = _draw(w, score_rng, w.n_score, level_effects, w.unseen_share)
    # Fixed class boundaries: equal-mass quantiles of the training latent score.
    cuts = np.quantile(latent_tr, np.arange(1, w.n_classes) / w.n_classes)

    header = [f"x{j}" for j in range(N_NUMERIC)] + [name for name, _ in w.categoricals]
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(workdir / "train.csv", workdir / "score.csv", workdir / "truth.csv")
    train_cols = [_numeric_cells(x_tr[:, j]) for j in range(N_NUMERIC)]
    train_cols += [c.tolist() for c in cats_tr]
    _write_csv(inputs.train_csv, header + ["label"], train_cols + [_labels(latent_tr, cuts, classes)])
    score_cols = [_numeric_cells(x_sc[:, j]) for j in range(N_NUMERIC)]
    score_cols += [c.tolist() for c in cats_sc]
    _write_csv(inputs.score_csv, header, score_cols)
    _write_csv(inputs.truth_csv, ["label"], [_labels(latent_sc, cuts, classes)])
    return inputs
