"""Performance measures used as tuning objectives and for threshold search.

All measures are minimized. A measure that would naturally be maximized must
be negated before it joins ``MEASURES``; keeping a single direction simplifies
both the optimizer loop and the threshold code.
"""

from __future__ import annotations

import numpy as np

from .data import DataError

PROB_CLIP = 1e-15
ROW_SUM_TOL = 1e-8

MEASURES = ("mmce", "logloss", "rmse")


def resolve_measure(name: str | None, task: str) -> str:
    """The measure a fit of ``task`` uses: ``name``, or mmce / rmse by task if None.

    An unknown name raises ValueError; rmse outside regression, or another
    measure in regression, raises DataError.
    """
    if name is None:
        return "rmse" if task == "regression" else "mmce"
    if name not in MEASURES:
        raise ValueError(f"unknown measure {name!r}, expected one of {sorted(MEASURES)}")
    if (name == "rmse") != (task == "regression"):
        kind = "regression" if task == "regression" else "classification"
        raise DataError(f"measure {name!r} does not apply to {kind}")
    return name


def mmce(predicted, truth) -> float:
    """Mean misclassification error: fraction of positions where labels differ."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape or predicted.ndim != 1:
        raise ValueError(f"label vectors must match, got {predicted.shape} vs {truth.shape}")
    if predicted.size == 0:
        raise ValueError("mmce of empty vectors is undefined")
    return float(np.mean(predicted != truth))


def logloss(prob, truth) -> float:
    """Mean negative log probability of the true class.

    ``prob`` is an (n, K) row-stochastic matrix and ``truth`` holds integer
    column indices. Probabilities are clipped to [1e-15, 1 - 1e-15] before
    the log.
    """
    prob = np.asarray(prob, dtype=np.float64)
    if prob.ndim != 2 or prob.shape[0] == 0:
        raise ValueError("prob must be a non-empty (n, K) matrix")
    row_sums = prob.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > ROW_SUM_TOL):
        raise ValueError("probability rows must sum to 1 within 1e-8")
    n, k = prob.shape
    idx = np.asarray(truth, dtype=np.intp)
    if np.any(idx < 0) or np.any(idx >= k):
        raise ValueError("truth indices out of range for probability columns")
    if len(idx) != n:
        raise ValueError(f"need {n} truth entries, got {len(idx)}")
    p_true = np.clip(prob[np.arange(n), idx], PROB_CLIP, 1.0 - PROB_CLIP)
    return float(-np.mean(np.log(p_true)))


def rmse(predicted, truth) -> float:
    """Root mean squared error."""
    predicted = np.asarray(predicted, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if predicted.shape != truth.shape or predicted.ndim != 1:
        raise ValueError(f"value vectors must match, got {predicted.shape} vs {truth.shape}")
    if predicted.size == 0:
        raise ValueError("rmse of empty vectors is undefined")
    return float(np.sqrt(np.mean((predicted - truth) ** 2)))
