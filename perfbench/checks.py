"""Correctness checks computed apart from the program.

Nothing here calls into `autoboost`: the test measures, the baselines, the
label rule and the bundle checksum are recomputed from the files the CLI
wrote and the truth files the benchmark wrote.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

ROW_SUM_TOL = 1e-8
PROB_FLOOR = 1e-15  # a probability of exactly 0 for the true class would make logloss infinite


class CheckError(AssertionError):
    """An output of the program is wrong."""


def read_truth(path: Path) -> list[str]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return [r[0] for r in rows[1:]]


def read_predictions(path: Path) -> tuple[list[str], tuple[str, ...], list[list[float]]]:
    """Labels, class names and probability rows of a predictions CSV."""
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[0] != "prediction" or not all(h.startswith("prob_") for h in header[1:]):
            raise CheckError(f"unexpected predictions header {header}")
        classes = tuple(h[len("prob_"):] for h in header[1:])
        labels, probs = [], []
        for row in reader:
            labels.append(row[0])
            probs.append([float(v) for v in row[1:]])
    return labels, classes, probs


def mmce(predicted: list[str], truth: list[str]) -> float:
    """Share of positions where the predicted label differs from the truth."""
    if len(predicted) != len(truth) or not truth:
        raise CheckError(f"{len(predicted)} predictions for {len(truth)} truth labels")
    return sum(p != t for p, t in zip(predicted, truth)) / len(truth)


def logloss(probs: list[list[float]], classes: tuple[str, ...], truth: list[str]) -> float:
    """Mean negative log probability of the true class, floored at 1e-15."""
    if len(probs) != len(truth) or not truth:
        raise CheckError(f"{len(probs)} probability rows for {len(truth)} truth labels")
    column = {c: j for j, c in enumerate(classes)}
    total = 0.0
    for row, t in zip(probs, truth):
        total -= math.log(max(row[column[t]], PROB_FLOOR))
    return total / len(truth)


def majority_error(truth: list[str]) -> float:
    """Error of always predicting the most frequent truth label."""
    return 1.0 - max(Counter(truth).values()) / len(truth)


def prior_entropy(truth: list[str]) -> float:
    """Logloss of predicting the truth labels' own class frequencies."""
    n = len(truth)
    return -sum(k / n * math.log(k / n) for k in Counter(truth).values())


def derive_labels(
    probs: list[list[float]], thresholds: list[float], classes: tuple[str, ...]
) -> list[str]:
    """Labels by the thresholding rule, from the probabilities alone.

    Binary (one threshold t): the second class iff its probability >= t.
    Multiclass: the class maximizing p_k / t_k, ties going to the lowest index.
    """
    if len(thresholds) == 1:
        t = thresholds[0]
        return [classes[1] if row[1] >= t else classes[0] for row in probs]
    labels = []
    for row in probs:
        best = 0
        best_ratio = row[0] / thresholds[0]
        for k in range(1, len(row)):
            ratio = row[k] / thresholds[k]
            if ratio > best_ratio:
                best, best_ratio = k, ratio
        labels.append(classes[best])
    return labels


def check_probabilities(probs: list[list[float]], n_classes: int) -> None:
    for i, row in enumerate(probs):
        if len(row) != n_classes:
            raise CheckError(f"row {i} has {len(row)} probabilities, expected {n_classes}")
        if any(not 0.0 <= p <= 1.0 for p in row):
            raise CheckError(f"row {i} has a probability outside [0, 1]: {row}")
        if abs(math.fsum(row) - 1.0) > ROW_SUM_TOL:
            raise CheckError(f"row {i} sums to {math.fsum(row)!r}, not 1 within {ROW_SUM_TOL}")


def read_bundle(path: Path) -> dict:
    """The bundle document, after recomputing its SHA-256 from the payload."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    canonical = json.dumps(doc["payload"], sort_keys=True, separators=(",", ":"), allow_nan=False)
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    if digest != doc["checksum"]:
        raise CheckError(f"bundle checksum {doc['checksum']} != recomputed {digest}")
    return doc


def model_digest(payload: dict) -> str:
    """SHA-256 of the payload without the wall-clock seconds of each evaluation.

    The bundle records how long each tuner evaluation took, so two fits of
    the same inputs and seed never share a bundle checksum; everything else
    in the payload must repeat exactly.
    """
    history = dict(payload["history"])
    history["evaluations"] = [
        {k: v for k, v in e.items() if k != "elapsed"} for e in history["evaluations"]
    ]
    stripped = dict(payload, history=history)
    canonical = json.dumps(stripped, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def check_history(history_csv: Path, payload: dict, budget: int) -> None:
    """`budget` evaluations in both histories; the reported objective is their minimum."""
    with history_csv.open(newline="", encoding="utf-8") as fh:
        values = [float(r["objective"]) for r in csv.DictReader(fh)]
    evaluations = payload["history"]["evaluations"]
    if len(values) != budget or len(evaluations) != budget:
        raise CheckError(
            f"history has {len(values)} CSV rows and {len(evaluations)} bundle records, "
            f"expected {budget}"
        )
    objective = payload["fit_report"]["objective_value"]
    if objective != min(values) or objective != min(e["value"] for e in evaluations):
        raise CheckError(f"objective_value {objective!r} is not the minimum of the history")


def check_predictions(
    labels: list[str], classes: tuple[str, ...], probs: list[list[float]],
    truth: list[str], payload: dict,
) -> None:
    """Row count, probability rows, thresholded labels and the two baselines."""
    if len(labels) != len(truth) or len(probs) != len(truth):
        raise CheckError(f"{len(labels)} predictions for {len(truth)} scoring rows")
    if list(classes) != payload["classes"]:
        raise CheckError(f"prediction classes {classes} != bundle classes {payload['classes']}")
    check_probabilities(probs, len(classes))
    derived = derive_labels(probs, payload["thresholds"], classes)
    wrong = sum(a != b for a, b in zip(derived, labels))
    if wrong:
        raise CheckError(f"{wrong} labels differ from the bundle thresholds applied to the probabilities")
    if not mmce(labels, truth) < majority_error(truth):
        raise CheckError("test mmce is not below the majority-class error")
    if not logloss(probs, classes, truth) < prior_entropy(truth):
        raise CheckError("test logloss is not below the entropy of the class priors")


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()
